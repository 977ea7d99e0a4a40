"""The public names of the package and the fields of its configs, pinned
so that a name or a knob is only added or removed on purpose."""

import dataclasses
import inspect
import types

import privote

EXPORTS = [
    "ActiveState",
    "Dataset",
    "Ensemble",
    "ExactSession",
    "ExperimentConfig",
    "FiniteClassDescriptor",
    "FiniteHypothesisClass",
    "GaussianSession",
    "LibsvmParseError",
    "LinearClassDescriptor",
    "LinearHypothesis",
    "PrivacyBudget",
    "RunReport",
    "SessionExhausted",
    "Split",
    "SummaryReport",
    "SvtSession",
    "TncGenerator",
    "TrialReport",
    "VoteCount",
    "active_update_version_space",
    "calibrate_gaussian_sigma",
    "compute_svt_params",
    "derive_seed",
    "emit_report",
    "empirical_error",
    "gen_massart",
    "gen_realizable",
    "gen_tnc",
    "make_rng",
    "margin",
    "margin_distribution_report",
    "parse_libsvm",
    "pate_asq",
    "pate_psq",
    "render_trial_csv",
    "run_active_learning",
    "run_experiment",
    "split_protocol",
    "train_committee",
    "train_erm",
    "write_libsvm",
]


def test_exports_are_pinned():
    public = sorted(
        name
        for name in dir(privote)
        if not name.startswith("_")
        # submodules appear once anything imports them
        and not isinstance(getattr(privote, name), types.ModuleType)
    )
    assert public == EXPORTS


CONFIG_FIELDS = {
    "ExperimentConfig": [
        "dataset",
        "method",
        "epsilon",
        "delta",
        "trials",
        "seed",
        "K",
        "svt_T",
        "generator_params",
        "record_timing",
    ],
    "ActiveState": [
        "descriptor",
        "xs",
        "ys",
        "j",
        "query_budget",
        "hypothesis",
        "alive",
        "memo",
        "rows",
    ],
}


def test_config_fields_are_pinned():
    for name, fields in CONFIG_FIELDS.items():
        cls = getattr(privote, name)
        assert [f.name for f in dataclasses.fields(cls) if f.init] == fields, name


# the pipelines' parameters, in order, with their kinds: everything after
# the budget is keyword-only, so a seed cannot land in the cutoff T, nor
# row indices in the rng. A budget has no default, so the non-private
# baseline is asked for with budget=None
SPLITS = ["teacher_data", "student_pool", "test_data"]
PIPELINE_PARAMETERS = {
    "pate_psq": ([*SPLITS, "K", "budget"], ["T", "rng", "teacher_rows"]),
    "pate_asq": ([*SPLITS, "K", "query_budget", "budget"], ["rng", "teacher_rows"]),
}


def test_pipeline_parameters_are_pinned():
    for name, (positional, keyword) in PIPELINE_PARAMETERS.items():
        parameters = inspect.signature(getattr(privote, name)).parameters
        assert list(parameters) == positional + keyword, name
        kinds = [p.kind for p in parameters.values()]
        assert kinds == (
            [inspect.Parameter.POSITIONAL_OR_KEYWORD] * len(positional)
            + [inspect.Parameter.KEYWORD_ONLY] * len(keyword)
        ), name
        assert parameters["budget"].default is inspect.Parameter.empty, name
