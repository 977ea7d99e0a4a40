"""End-to-end private student training.

Two pipelines share the same shape: split the sensitive data into a
teacher committee, answer label queries about a public pool through a
private aggregation session, and train a student on the result.

passive (PSQ): every pool point is queried once, in stream order.
active (ASQ): a disagreement-based learner decides which points are worth
    one of its limited label queries, so the realized privacy loss tracks
    the number of labels actually requested. It streams the pool's row
    indices. For halfspaces its test costs one accelerated descent per
    stream point, three fits side by side on the queried set plus the
    point, on rows grown from the pool's one layout (see
    `LinearClassDescriptor`).

Both share one labeling stage, `_labeler`, where the budget and the
passive cutoff T choose the session. budget=None means exact majority: an
ExactSession answers every query without noise, the non-private baseline,
and the run reports epsilon = inf. Otherwise T=None means Gaussian noise,
and a T means stable release with at most T bottom answers.

Parameter-sizing helpers translate accuracy targets into the committee
size K and the unstable-query cutoff T.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .aggregation import (
    ExactSession, GaussianSession, SessionExhausted, SvtSession, VoteCount
)
from .dp_core import PrivacyBudget, calibrate_gaussian_sigma, make_rng
from .learners import (
    Dataset,
    FiniteHypothesisClass,
    LinearHypothesis,
    _Rows,
    _train_columns,
    empirical_error,
    train_committee,
    train_erm,
)

__all__ = [
    "PsqConfig",
    "AsqConfig",
    "ActiveState",
    "RunReport",
    "LinearClassDescriptor",
    "FiniteClassDescriptor",
    "pate_psq",
    "pate_asq",
    "active_update_version_space",
    "run_active_learning",
    "compute_k_for_gaussian",
    "compute_svt_params",
]


@dataclass(frozen=True)
class RunReport:
    """What a pipeline run cost and bought.

    queries counts interactions with the aggregation session; bots counts
    pool points that never received a released label (refusals plus any
    points after an early halt) and were labeled 0 instead.
    """

    queries: int
    bots: int
    eps_ex_post: float
    accuracy: float
    halted_early: bool = False


@dataclass(frozen=True)
class PsqConfig:
    K: int
    budget: PrivacyBudget | None  # None: exact majority, no privacy
    T: int | None = None  # None: Gaussian noise; else stable release, cutoff T

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be positive")
        if self.T is not None and (self.T < 1 or self.budget is None):
            raise ValueError("stable release needs a positive cutoff T and a budget")


@dataclass(frozen=True)
class AsqConfig:
    K: int
    query_budget: int
    budget: PrivacyBudget | None  # None: exact majority, no privacy

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be positive")
        if self.query_budget < 1:
            raise ValueError("query_budget must be positive")


def _require_pools(teacher_data: Dataset, student_pool: Dataset, test_data: Dataset, K: int) -> None:
    if len(teacher_data) < max(1, K):
        raise ValueError("teacher pool must hold at least K examples")
    if not teacher_data.labeled:
        raise ValueError("teacher pool must be labeled")
    if len(student_pool) < 1:
        raise ValueError("student pool is empty")
    if len(test_data) < 1 or not test_data.labeled:
        raise ValueError("test data must be nonempty and labeled")


def _labeler(
    teacher_data: Dataset, student_pool: Dataset, test_data: Dataset,
    config: PsqConfig | AsqConfig, ell: int, T: int | None, rng,
):
    """The private front end of both pipelines: the committee's votes on
    the pool behind one session, sized for ell answers. The rng draws the
    committee's permutation, then the session's noise.

    Returns `ask(i)`, the session's answer about pool point i, and
    `report(h, queries, bots)`, the student h with its `RunReport`.
    """
    _require_pools(teacher_data, student_pool, test_data, config.K)
    rng = make_rng(rng)
    ones = train_committee(teacher_data, config.K, rng).vote_ones(student_pool.X)
    if config.budget is None:
        session = ExactSession()
    elif T is None:
        session = GaussianSession.for_budget(ell, config.budget, rng)
    else:
        session = SvtSession.for_budget(ell, T, config.budget, rng)

    def ask(i: int) -> int | None:
        return session.answer(VoteCount(int(ones[i]), config.K))

    def report(h: LinearHypothesis, queries: int, bots: int):
        eps = session.privacy_report()[0]
        accuracy = 1.0 - empirical_error(h, test_data)
        halted = getattr(session, "halted", False)  # only stable release halts
        return h, RunReport(queries, bots, eps, accuracy, halted)

    return ask, report


def pate_psq(
    teacher_data: Dataset,
    student_pool: Dataset,
    test_data: Dataset,
    config: PsqConfig,
    rng: np.random.Generator | int | None = None,
) -> tuple[LinearHypothesis, RunReport]:
    """Passive pipeline: pseudo-label the whole pool, then fit a student.

    Every pool point is pushed through the aggregation session in stream
    order. A stable-release session may refuse some answers and eventually
    halt; refused and post-halt points are labeled 0, and the report
    records how many. With no budget every point gets the exact
    majority label.
    """
    m = len(student_pool)
    ask, report = _labeler(
        teacher_data, student_pool, test_data, config, m, config.T, rng
    )
    answers = []
    with contextlib.suppress(SessionExhausted):  # stable release halted
        for i in range(m):
            answers.append(ask(i))
    released = [i for i, y in enumerate(answers) if y is not None]
    labels = np.zeros(m, dtype=np.int64)  # bots keep label 0
    labels[released] = [answers[i] for i in released]
    student = train_erm(student_pool.with_labels(labels))
    return report(student, len(answers), m - len(released))


# ---------------------------------------------------------------------------
# Disagreement-based active learning
#
# The learner is generic over a hypothesis-class descriptor. Finite classes
# keep an exact version space; linear classes carry the semantics through a
# constrained-refit surrogate and keep no explicit member set.


@dataclass
class ActiveState:
    """Mutable state of one active-learning run."""

    descriptor: Any
    xs: list = field(default_factory=list)  # queried points: stream indices
    ys: list = field(default_factory=list)
    j: int = 0  # stream position, 1-based
    c: int = 0  # label queries spent
    query_budget: int | None = None  # set by run_active_learning
    hypothesis: Any = None
    alive: np.ndarray | None = None  # finite classes: version-space mask
    # linear classes: the fits derived from xs, ys and hypothesis, and
    # (indices, their rows) in `rows`, kept for the next call; the
    # descriptor checks they are current before use
    memo: Any = field(default=None, repr=False, compare=False)
    rows: Any = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FiniteClassDescriptor:
    """Exact version-space bookkeeping over an explicit finite class.

    At each update a member is dropped once its mistakes on Q exceed the
    best live member's by more than base + sqrt(best * base), where
    base = log 2 + log(1/gamma_j): the tolerance for VC dimension 1 with
    disagreement coefficient 2, at confidence level gamma_j =
    gamma / log2(2j)^2 for stream position j.
    """

    hclass: FiniteHypothesisClass
    gamma: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")

    def init_state(self) -> ActiveState:
        alive = np.ones(self.hclass.n_members, dtype=bool)
        return ActiveState(descriptor=self, hypothesis=0, alive=alive)

    def disagreement(self, state: ActiveState, x, slack: float) -> bool:
        col = self.hclass.by_point[int(x)][state.alive]
        return bool(col.min() != col.max())

    def update(self, state: ActiveState, j: int) -> None:
        gamma_j = self.gamma / math.log2(2 * j) ** 2
        mistakes = self.hclass.mistake_counts(state.xs, state.ys)
        best = int(mistakes[state.alive].min())
        # log(theta) + log(1/gamma_j) at VC dimension 1 and theta = 2
        base = math.log(2.0) + math.log(1.0 / gamma_j)
        tolerance = base + math.sqrt(best * base)
        state.alive &= mistakes - best <= tolerance
        self.refit(state)

    def refit(self, state: ActiveState) -> None:
        mistakes = self.hclass.mistake_counts(state.xs, state.ys).astype(float)
        mistakes[~state.alive] = np.inf
        state.hypothesis = int(np.argmin(mistakes))


@dataclass
class _ReferenceMemo:
    """The reference fit on Q, and the two fits it may become next.

    `base` is the `probe_steps` fit on `xs`, `ys` from `hypothesis`.
    `next_bases[y]` is the same fit on `xs + [x]`, `ys + [y]`, where `x`
    is the stream index just probed; it is empty where querying `x` would
    end the run. Equal indices name the same pool row.
    """

    hypothesis: LinearHypothesis
    xs: list
    ys: list
    base: LinearHypothesis
    x: int
    next_bases: list[LinearHypothesis]

    def lookup(self, state: ActiveState) -> LinearHypothesis | None:
        """The reference fit for the state, or None if this memo does not
        cover its hypothesis, queried points and labels."""
        k = len(self.xs)
        same = state.hypothesis is self.hypothesis and k <= len(state.xs) <= k + 1
        if not (same and state.ys[:k] == self.ys and state.xs[:k] == self.xs):
            return None
        if len(state.xs) == k:
            return self.base
        y = state.ys[-1]
        if state.xs[-1] == self.x and y in (0, 1) and self.next_bases:
            return self.next_bases[int(y)]
        return None


@dataclass(frozen=True, eq=False)
class LinearClassDescriptor:
    """Constrained-refit surrogate for halfspaces over an unlabeled pool.

    Stream elements are row indices into `pool`, anything `Dataset`
    accepts, checked and made canonical once, here, and laid out once
    (`_Rows`); an index that is not an integer in [0, len(pool)) raises
    ValueError. The rows of Q and the point probed last are kept in
    `state.rows` and grown by each queried point's pool row, or laid out
    again from the pool where Q changed other than by appending.

    No explicit version space exists; a point counts as ambiguous when some
    near-optimal fit on the queried pool Q labels it opposite to the
    current hypothesis. The reference is a fresh fit `base` on Q, warm
    started from the current hypothesis. The probe fit pins the point's
    label with a heavy sample weight, starts from `base`, and must stay
    within `slack` of base's empirical error on Q. The reference and
    probe fits take `probe_steps` descent steps, the refits `steps`.

    The learner's next reference is known up to the answer: `base` itself
    if the point is not queried, or the fit on Q plus the point labeled 0
    or 1. So each probe is trained together with those two fits, as three
    label and weight columns of one descent over Q's rows grown by the
    point's, and the state's memo keeps them for the next call. That call
    reuses the memo only while the hypothesis is the same object and Q and
    its labels are the memo's, or those plus the probed point itself;
    after a refit (on the doubling schedule) or any other change to the
    state it fits `base` alone. At a power-of-two stream position
    `state.j` the refit right after replaces the hypothesis, so the probe
    is trained alone there and the memo is cleared; Q's rows stay. It is
    trained alone, too, where a query would spend `state.query_budget`
    and end the run; the memo then keeps `base`. The predictions of
    `base` and of the probe on Q and the point are one product with those
    rows each, their bias column giving `X @ w + b`. Every fit, refits
    included, runs `_train_columns` on those rows and is bit-for-bit the
    one a lone `train_erm` and `predict` would make, so the answers do
    not depend on the memo or the kept rows.
    """

    pool: Any
    steps: int = 35
    probe_steps: int = 10
    _layout: _Rows = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pool", Dataset(self.pool).X)
        object.__setattr__(self, "_layout", _Rows.of(self.pool))

    @property
    def n_features(self) -> int:
        return self.pool.shape[1]

    def init_state(self) -> ActiveState:
        h0 = LinearHypothesis(np.zeros(self.n_features), 0.0)
        return ActiveState(descriptor=self, hypothesis=h0)

    def _grow(self, rows: _Rows, i) -> _Rows:
        """rows, then the pool's row i, where i is checked."""
        m = self._layout.shape[0]
        if not (isinstance(i, numbers.Integral) and 0 <= i < m):
            raise ValueError(f"stream index {i!r} is not a row of the {m}-row pool")
        return rows.grow(self._layout, i)

    def _rows(self, state: ActiveState) -> _Rows:
        """Q's rows: the kept ones, less a probed point's not queried, grown
        by the points queried since; laid out afresh if Q changed otherwise."""
        kept_xs, rows = state.rows or ([], self._layout.head(0))
        if state.xs[: len(kept_xs)] != kept_xs:
            n = len(state.xs) if kept_xs[:-1] == state.xs else 0
            kept_xs, rows = kept_xs[:n], rows.head(n)
        for i in state.xs[len(kept_xs) :]:
            rows = self._grow(rows, i)
        state.rows = (list(state.xs), rows)
        return rows

    @staticmethod
    def _fit(rows: _Rows, y: np.ndarray, steps: int, init) -> LinearHypothesis:
        return _train_columns(rows, [y], steps, [None], [init])[0]

    def disagreement(self, state: ActiveState, x, slack: float) -> bool:
        if math.isinf(slack) or not state.xs:
            return True
        rows = self._rows(state)
        y = np.asarray(state.ys)
        memo = state.memo
        base = memo.lookup(state) if isinstance(memo, _ReferenceMemo) else None
        if base is None:
            # the reference is a fresh unconstrained optimum, not the
            # possibly stale current hypothesis
            base = self._fit(rows, y, self.probe_steps, state.hypothesis)
        n = len(y)
        rows_next = self._grow(rows, x)
        state.rows = (state.xs + [x], rows_next)
        base_ones = rows_next.scores(base) >= 0.0
        base_errors = int((base_ones[:n] != y).sum())
        forced = 1 - int(base_ones[n])
        weights = np.ones(n + 1)
        weights[-1] = n + 1.0
        # a refit follows at a power-of-two position and replaces the
        # hypothesis, and a query that spends the budget ends the run, so
        # the two next-reference fits would go unused
        j = state.j
        refits = j >= 1 and j & (j - 1) == 0
        last = state.c + 1 == state.query_budget
        labels = (forced,) if refits or last else (forced, 0, 1)
        h, *next_bases = _train_columns(
            rows_next,
            [np.append(y, label) for label in labels],
            self.probe_steps,
            [weights, None, None][: len(labels)],
            [base, state.hypothesis, state.hypothesis][: len(labels)],
        )
        state.memo = None if refits else _ReferenceMemo(
            state.hypothesis, list(state.xs), list(state.ys), base, x, next_bases
        )
        probe_ones = rows_next.scores(h) >= 0.0
        if int(probe_ones[n]) != forced:
            return False
        probe_errors = int((probe_ones[:n] != y).sum())
        return probe_errors <= base_errors + slack * n

    def update(self, state: ActiveState, j: int) -> None:
        self.refit(state)

    def refit(self, state: ActiveState) -> None:
        if state.xs:
            state.hypothesis = self._fit(
                self._rows(state), np.asarray(state.ys), self.steps, state.hypothesis
            )


def active_update_version_space(state: ActiveState, j: int) -> ActiveState:
    """Shrink the version space at stream position j (a power of two).

    Finite classes drop every member whose mistake count on Q exceeds the
    best live member's by more than the confidence tolerance at the
    descriptor's level gamma_j. Linear classes refresh the hypothesis by
    retraining on Q.
    """
    if j < 1 or 2 ** int(math.log2(j)) != j:
        raise ValueError("updates happen on the doubling schedule")
    state.descriptor.update(state, j)
    return state


def run_active_learning(
    descriptor,
    stream,
    oracle: Callable[[Any, int], int],
    query_budget: int,
    slack: float | None = None,
) -> ActiveState:
    """Drive the disagreement learner down a fixed stream.

    Stream elements are indices into the descriptor's domain or pool.
    oracle(x, i) labels stream element i on request, only where
    `descriptor.disagreement` finds x ambiguous (with infinite slack,
    everywhere: passive learning), until the budget is spent. slack=None
    uses 1/|Q|, refreshed as Q grows. The final hypothesis is refit on
    everything queried.
    """
    if query_budget < 1:
        raise ValueError("query_budget must be positive")
    # NaN fails every comparison, so it would pass a plain `slack < 0`
    if slack is not None and not slack >= 0:
        raise ValueError("slack must be nonnegative (or None)")
    state = descriptor.init_state()
    state.query_budget = query_budget
    for i, x in enumerate(stream):
        j = i + 1
        state.j = j
        effective_slack = (
            slack if slack is not None else 1.0 / max(1, len(state.xs))
        )
        if descriptor.disagreement(state, x, effective_slack):
            state.ys.append(oracle(x, i))
            state.xs.append(x)
            state.c += 1
        if j & (j - 1) == 0:
            active_update_version_space(state, j)
        if state.c >= query_budget:
            break
    descriptor.refit(state)
    return state


def pate_asq(
    teacher_data: Dataset,
    student_pool: Dataset,
    test_data: Dataset,
    config: AsqConfig,
    rng: np.random.Generator | int | None = None,
) -> tuple[LinearHypothesis, RunReport]:
    """Active pipeline: spend label queries only where the learner is unsure.

    The teacher committee sits behind a noisy-majority session calibrated
    for `query_budget` answers, so the privacy statement covers the worst
    case while the reported ex-post loss reflects the queries actually
    made. With no budget the committee's exact majority answers.
    """
    ask, report = _labeler(
        teacher_data, student_pool, test_data, config, config.query_budget, None, rng
    )
    state = run_active_learning(
        LinearClassDescriptor(student_pool.X),
        range(len(student_pool)),
        lambda x, i: ask(i),
        config.query_budget,
    )
    return report(state.hypothesis, state.c, 0)


# ---------------------------------------------------------------------------
# Parameter sizing


def compute_k_for_gaussian(m_or_ell: int, budget: PrivacyBudget, n: int) -> int:
    """Committee size for noisy-majority labeling of m queries.

    Equals ceil(6 * sigma * sqrt(2 log 2n)) for the sigma of
    `calibrate_gaussian_sigma`, which spends the budget over m answers;
    sized so realized vote margins beat the noise on every query
    simultaneously, with n the per-teacher sample size.
    """
    if n < 1:
        raise ValueError("n must be positive")
    sigma = calibrate_gaussian_sigma(m_or_ell, budget)
    return math.ceil(6.0 * sigma * math.sqrt(2.0 * math.log(2.0 * n)))


def compute_svt_params(
    m: int,
    expected_teacher_error: float,
    beta: float,
    budget: PrivacyBudget,
) -> tuple[int, int]:
    """Cutoff T and committee size K for stable-release labeling.

    T budgets the unstable queries a typical teacher error rate produces
    over m points (at failure level beta); K makes the remaining margins
    comfortably clear the noisy threshold.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not (0.0 <= expected_teacher_error <= 1.0):
        raise ValueError("expected_teacher_error must lie in [0, 1]")
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    eps, delta = budget.epsilon, budget.delta
    T = math.ceil(
        3.0
        * (
            expected_teacher_error * m
            + math.sqrt(m * math.log(m / beta) / 2.0)
        )
    )
    T = max(T, 1)
    K = math.ceil(
        136.0
        * math.log(4.0 * m * T / min(delta, beta / 2.0))
        * math.sqrt(T * math.log(2.0 / delta))
        / eps
    )
    return T, K
