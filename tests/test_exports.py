"""The public names of the package and the fields of its configs, pinned
so that a name or a knob is only added or removed on purpose."""

import dataclasses
import types

import privote

EXPORTS = [
    "ActiveState",
    "AsqConfig",
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
    "PsqConfig",
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
    "calibrate_svt_lambda",
    "compute_k_for_gaussian",
    "compute_svt_params",
    "derive_seed",
    "emit_report",
    "empirical_error",
    "gaussian_composition_rho",
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
    "sample_gaussian",
    "sample_laplace",
    "split_protocol",
    "svt_threshold_w",
    "threshold_class",
    "train_committee",
    "train_erm",
    "vote_majority",
    "write_libsvm",
    "zcdp_to_dp",
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
    "PsqConfig": ["K", "budget", "T"],
    "AsqConfig": ["K", "query_budget", "budget"],
    "ExperimentConfig": [
        "dataset",
        "method",
        "epsilon",
        "delta",
        "trials",
        "seed",
        "K",
        "query_fraction",
        "svt_T",
        "synth_n",
        "generator_params",
        "record_timing",
    ],
}


def test_config_fields_are_pinned():
    for name, fields in CONFIG_FIELDS.items():
        cls = getattr(privote, name)
        assert [f.name for f in dataclasses.fields(cls) if f.init] == fields, name
