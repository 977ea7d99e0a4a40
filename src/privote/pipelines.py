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
    LinearHypothesis,
    _Rows,
    _train_columns,
    empirical_error,
    train_committee,
    train_erm,
)

__all__ = [
    "ActiveState",
    "RunReport",
    "LinearClassDescriptor",
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


def _require_pools(
    teacher_data: Dataset, student_pool: Dataset, test_data: Dataset, K: int,
    teacher_rows=None,
) -> None:
    n_teacher = len(teacher_data if teacher_rows is None else teacher_rows)
    if n_teacher < max(1, K):
        raise ValueError("teacher pool must hold at least K examples")
    if not teacher_data.labeled:
        raise ValueError("teacher pool must be labeled")
    if len(student_pool) < 1:
        raise ValueError("student pool is empty")
    if len(test_data) < 1 or not test_data.labeled:
        raise ValueError("test data must be nonempty and labeled")


def _require_query_budget(query_budget) -> None:
    # a float passes `>= 1` and fails only where Q's rows are laid out
    if not (isinstance(query_budget, numbers.Integral) and query_budget >= 1):
        raise ValueError(
            f"query_budget must be positive and an integer, got {query_budget!r}"
        )


def _labeler(
    teacher_data: Dataset, student_pool: Dataset, test_data: Dataset,
    K: int, budget: PrivacyBudget | None, ell: int, T: int | None, rng,
    teacher_rows,
):
    """The private front end of both pipelines: the committee's votes on
    the pool behind one session, sized for ell answers. The committee
    trains on the rows `teacher_rows` of teacher_data (all of them if
    None). The rng draws the committee's permutation, then the session's
    noise. K, T, ell and the pools are checked before the committee
    trains.

    Returns `ask(i)`, the session's answer about pool point i, and
    `report(h, queries, bots)`, the student h with its `RunReport`.
    """
    if K < 1:
        raise ValueError("K must be positive")
    if T is not None and (T < 1 or budget is None):
        raise ValueError("stable release needs a positive cutoff T and a budget")
    _require_pools(teacher_data, student_pool, test_data, K, teacher_rows)
    # after the pools: the passive ell is the pool's size, checked above
    _require_query_budget(ell)
    rng = make_rng(rng)
    committee = train_committee(teacher_data, K, rng, rows=teacher_rows)
    ones = committee.vote_ones(student_pool.X)
    if budget is None:
        session = ExactSession()
    elif T is None:
        session = GaussianSession.for_budget(ell, budget, rng)
    else:
        session = SvtSession.for_budget(ell, T, budget, rng)

    def ask(i: int) -> int | None:
        return session.answer(VoteCount(int(ones[i]), K))

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
    K: int,
    budget: PrivacyBudget | None,
    *,
    T: int | None = None,
    rng: np.random.Generator | int | None = None,
    teacher_rows=None,
) -> tuple[LinearHypothesis, RunReport]:
    """Passive pipeline: pseudo-label the whole pool, then fit a student.

    A committee of K teachers, trained on the rows `teacher_rows` of
    teacher_data (all of them if None), votes on every pool point, and
    each vote goes through the aggregation session in stream order.
    budget=None (which must be given) gives every point the exact
    majority label; otherwise T=None means Gaussian noise, and a cutoff
    T stable release. A stable-release session may refuse some answers
    and eventually halt; refused and post-halt points are labeled 0, and
    the report records how many.
    """
    m = len(student_pool)
    ask, report = _labeler(
        teacher_data, student_pool, test_data, K, budget, m, T, rng, teacher_rows
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
# The loop drives any descriptor with `init_state`, `disagreement`, `update`
# and `refit`. Halfspaces carry the semantics through a constrained-refit
# surrogate and keep no explicit member set.


@dataclass
class ActiveState:
    """Mutable state of one active-learning run."""

    descriptor: Any
    xs: list = field(default_factory=list)  # queried points: stream indices
    ys: list = field(default_factory=list)
    j: int = 0  # stream position, 1-based
    query_budget: int | None = None  # set by run_active_learning
    hypothesis: Any = None
    # the linear descriptor's: in `memo`, (start, fits), the reference fits
    # warm started from the hypothesis `start`, keyed by the (indices,
    # labels) they were fit on; in `rows`, (indices, their rows), never
    # written into, so a copied state may share them. Both are kept for
    # the next call and read only where they match the state
    memo: Any = field(default=None, repr=False, compare=False)
    rows: Any = field(default=None, repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class LinearClassDescriptor:
    """Constrained-refit surrogate for halfspaces over an unlabeled pool.

    Stream elements are row indices into `pool`, anything `Dataset`
    accepts, checked and made canonical once, here, and laid out once
    (`_Rows`); an index that is not an integer in [0, len(pool)) raises
    ValueError. The rows of Q and the point probed last are kept in
    `state.rows` and grown, into new arrays, by each queried point's pool
    row, or laid out again from the pool where Q changed other than by
    appending.

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
    point's. The state's memo keeps the three reference fits, each under
    the (Q indices, labels) it was fit on, with the hypothesis they
    started from; the next call reads the fit under its own Q and labels
    while the hypothesis is still that object, and otherwise fits `base`
    alone. At a power-of-two stream position `state.j` the refit right
    after replaces the hypothesis, so the probe is trained alone there
    and the memo is cleared; Q's rows stay. It is trained alone, too,
    where a query would spend `state.query_budget` and end the run; the
    memo then keeps `base`. The predictions of `base` and of the probe on
    Q and the point are one product with those rows each, their bias
    column giving `X @ w + b`. Every fit, refits included, runs
    `_train_columns` on those rows and is bit-for-bit the one a lone
    `train_erm` and `predict` would make, so the answers do not depend
    on the memo or the kept rows.
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

    def disagreement(self, state: ActiveState, x, slack: float) -> bool:
        if not state.xs:
            return True
        rows = self._rows(state)
        y = np.asarray(state.ys)
        n = len(y)
        # a refit follows at a power-of-two position and replaces the
        # hypothesis, and a query that spends the budget ends the run, so
        # the two next-reference fits would go unused
        refits = _on_schedule(state.j)
        last = len(state.xs) + 1 == state.query_budget
        # Q's labels in each column, the candidate labels in the last row
        B = 1 if refits or last else 3
        Y = np.empty((n + 1, B), dtype=y.dtype)
        Y[:n] = y[:, None]
        xs, ys = tuple(state.xs), tuple(state.ys)
        start, kept = state.memo or (None, {})
        base = kept.get((xs, ys)) if start is state.hypothesis else None
        if base is None:
            # the reference is a fresh unconstrained optimum, not the
            # possibly stale current hypothesis
            [base] = _train_columns(
                rows, Y[:n, :1], self.probe_steps, [None], [state.hypothesis]
            )
        rows_next = self._grow(rows, x)
        state.rows = (state.xs + [x], rows_next)
        base_ones = rows_next.scores(base) >= 0.0
        base_errors = np.count_nonzero(base_ones[:n] != y)
        forced = 1 - int(base_ones[n])
        Y[n] = (forced, 0, 1)[:B]
        weights = np.ones(n + 1)
        weights[-1] = n + 1.0
        h, *next_bases = _train_columns(
            rows_next, Y, self.probe_steps, [weights, None, None][:B],
            [base, state.hypothesis, state.hypothesis][:B],
        )
        fits = {(xs, ys): base}
        for label, fit in enumerate(next_bases):
            fits[xs + (x,), ys + (label,)] = fit
        state.memo = None if refits else (state.hypothesis, fits)
        probe_ones = rows_next.scores(h) >= 0.0
        if int(probe_ones[n]) != forced:
            return False
        probe_errors = np.count_nonzero(probe_ones[:n] != y)
        return probe_errors <= base_errors + slack * n

    def update(self, state: ActiveState, j: int) -> None:
        self.refit(state)

    def refit(self, state: ActiveState) -> None:
        if state.xs:
            Y = np.asarray(state.ys)[:, None]
            [state.hypothesis] = _train_columns(
                self._rows(state), Y, self.steps, [None], [state.hypothesis]
            )


def _on_schedule(j: int) -> bool:
    """Whether stream position j is on the doubling schedule: a power of two."""
    return j >= 1 and j & (j - 1) == 0


def active_update_version_space(state: ActiveState, j: int) -> ActiveState:
    """Update the learner at stream position j (a power of two) with the
    descriptor's `update`; the linear descriptor retrains the hypothesis
    on Q.
    """
    if not _on_schedule(j):
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

    Stream elements are indices into the descriptor's pool. oracle(x, i)
    labels stream element i on request until the budget is spent: with
    infinite slack everywhere (passive learning), otherwise only where
    `descriptor.disagreement` finds x ambiguous. slack=None uses 1/|Q|,
    refreshed as Q grows. The final hypothesis is refit on everything
    queried.
    """
    _require_query_budget(query_budget)
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
        if math.isinf(effective_slack) or descriptor.disagreement(
            state, x, effective_slack
        ):
            state.ys.append(oracle(x, i))
            state.xs.append(x)
        if _on_schedule(j):
            active_update_version_space(state, j)
        if len(state.xs) >= query_budget:
            break
    descriptor.refit(state)
    return state


def pate_asq(
    teacher_data: Dataset,
    student_pool: Dataset,
    test_data: Dataset,
    K: int,
    query_budget: int,
    budget: PrivacyBudget | None,
    *,
    rng: np.random.Generator | int | None = None,
    teacher_rows=None,
) -> tuple[LinearHypothesis, RunReport]:
    """Active pipeline: spend label queries only where the learner is unsure.

    The committee of K teachers, trained on the rows `teacher_rows` of
    teacher_data (all of them if None), sits behind a noisy-majority
    session calibrated for `query_budget` answers, so the privacy
    statement covers the worst case while the reported ex-post loss
    reflects the queries actually made. With budget=None (which must be
    given) the committee's exact majority answers.
    """
    ask, report = _labeler(
        teacher_data, student_pool, test_data, K, budget, query_budget, None, rng,
        teacher_rows,
    )
    state = run_active_learning(
        LinearClassDescriptor(student_pool.X),
        range(len(student_pool)),
        lambda x, i: ask(i),
        query_budget,
    )
    return report(state.hypothesis, len(state.xs), 0)


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


# the failure level of the public cutoff rule
_SVT_BETA = 0.05


def compute_svt_params(m: int, budget: PrivacyBudget) -> tuple[int, int]:
    """Cutoff T and committee size K for stable-release labeling.

    T budgets the unstable queries of error-free teachers over m points
    (at failure level 0.05), so it reads nothing of the sensitive data;
    K makes the remaining margins comfortably clear the noisy threshold.
    """
    if m < 1:
        raise ValueError("m must be positive")
    T = max(math.ceil(3.0 * math.sqrt(m * math.log(m / _SVT_BETA) / 2.0)), 1)
    return T, _svt_committee_size(m, T, budget)


def _svt_committee_size(m: int, T: int, budget: PrivacyBudget) -> int:
    """Committee size K for stable release over m points with cutoff T."""
    delta = budget.delta
    return math.ceil(
        136.0
        * math.log(4.0 * m * T / min(delta, _SVT_BETA / 2.0))
        * math.sqrt(T * math.log(2.0 / delta))
        / budget.epsilon
    )
