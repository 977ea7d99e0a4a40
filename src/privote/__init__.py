"""Privately aggregated teacher-committee labeling.

Split sensitive data across a committee of teachers, release their
majority votes through calibrated noise (per-query Gaussian or
stable-release with an unstable-query cutoff), and train a public student
on the pseudo-labels. Includes a disagreement-driven active variant that
pays privacy only for the labels it actually requests. The package ships
this labeler and its data sources (LIBSVM files and seeded synthetic
families), with the experiment harness that runs it on them.
"""

from .aggregation import (
    ExactSession,
    GaussianSession,
    SessionExhausted,
    SvtSession,
    VoteCount,
    margin,
)
from .dp_core import PrivacyBudget, calibrate_gaussian_sigma, derive_seed, make_rng
from .harness import (
    ExperimentConfig,
    LibsvmParseError,
    Split,
    SummaryReport,
    TrialReport,
    emit_report,
    parse_libsvm,
    render_trial_csv,
    run_experiment,
    split_protocol,
    write_libsvm,
)
from .learners import (
    Dataset,
    Ensemble,
    LinearHypothesis,
    empirical_error,
    margin_distribution_report,
    train_committee,
    train_erm,
)
from .pipelines import (
    ActiveState,
    LinearClassDescriptor,
    RunReport,
    active_update_version_space,
    compute_svt_params,
    pate_asq,
    pate_psq,
    run_active_learning,
)
from .synthdata import TncGenerator, gen_massart, gen_realizable, gen_tnc

__version__ = "0.1.0"
