"""End-to-end private student training.

Two pipelines share the same shape: split the sensitive data into a
teacher committee, answer label queries about a public pool through a
private aggregation session, and train a student on the result.

passive (PSQ): every pool point is queried once, in stream order.
active (ASQ): a disagreement-based learner decides which points are worth
    one of its limited label queries, so the realized privacy loss tracks
    the number of labels actually requested. For halfspaces its test
    costs one batched gradient descent per stream point: the reference
    fit on the queried set is carried over from the previous point (see
    `LinearClassDescriptor`).

A config's budget picks the session. budget=None means exact majority: an
ExactSession answers every query without noise, which is the non-private
baseline, and the run reports epsilon = inf.

Parameter-sizing helpers translate accuracy targets into the committee
size K and the unstable-query cutoff T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

from .aggregation import ExactSession, GaussianSession, SvtSession, VoteCount
from .dp_core import PrivacyBudget, make_rng
from .learners import (
    Dataset,
    FiniteHypothesisClass,
    LinearHypothesis,
    TrainerSettings,
    empirical_error,
    train_committee,
    train_erm,
    train_erm_batch,
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

MECHANISMS = ("gaussian", "svt")


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
    mechanism: str = "gaussian"
    T: int | None = None

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be positive")
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"mechanism must be one of {MECHANISMS}")
        if self.mechanism == "svt" and (self.T is None or self.T < 1):
            raise ValueError("the svt mechanism needs a positive cutoff T")
        if self.mechanism == "svt" and self.budget is None:
            raise ValueError("the svt mechanism needs a privacy budget")


@dataclass(frozen=True)
class AsqConfig:
    K: int
    query_budget: int
    budget: PrivacyBudget | None  # None: exact majority, no privacy
    gamma: float = 0.1

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be positive")
        if self.query_budget < 1:
            raise ValueError("query_budget must be positive")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")


def _require_pools(teacher_data: Dataset, student_pool: Dataset, test_data: Dataset, K: int) -> None:
    if len(teacher_data) < max(1, K):
        raise ValueError("teacher pool must hold at least K examples")
    if not teacher_data.labeled:
        raise ValueError("teacher pool must be labeled")
    if len(student_pool) < 1:
        raise ValueError("student pool is empty")
    if len(test_data) < 1 or not test_data.labeled:
        raise ValueError("test data must be nonempty and labeled")


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
    _require_pools(teacher_data, student_pool, test_data, config.K)
    rng = make_rng(rng)
    ensemble = train_committee(teacher_data, config.K, rng)
    ones = ensemble.vote_ones(student_pool.X)
    m = len(student_pool)

    if config.budget is None:
        session = ExactSession()
    elif config.mechanism == "gaussian":
        session = GaussianSession.for_budget(m, config.budget, rng)
    else:
        session = SvtSession.for_budget(m, config.T, config.budget, rng)

    labels = np.zeros(m, dtype=np.int64)  # bots keep label 0
    queries = 0
    bots = 0
    for i in range(m):
        votes = VoteCount(int(ones[i]), config.K)
        if isinstance(session, SvtSession) and session.halted:
            answer = None
        else:
            answer = session.answer(votes)
            queries += 1
        if answer is None:
            bots += 1
        else:
            labels[i] = answer

    eps, _ = session.privacy_report()
    student = train_erm(student_pool.with_labels(labels))
    report = RunReport(
        queries=queries,
        bots=bots,
        eps_ex_post=eps,
        accuracy=1.0 - empirical_error(student, test_data),
        halted_early=isinstance(session, SvtSession) and session.halted,
    )
    return student, report


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
    xs: list = field(default_factory=list)  # queried points, native form
    ys: list = field(default_factory=list)
    j: int = 0  # stream position, 1-based
    c: int = 0  # label queries spent
    hypothesis: Any = None
    alive: np.ndarray | None = None  # finite classes: version-space mask
    # the descriptor's work derived from xs, ys and hypothesis, kept for
    # the next call; each descriptor checks it is current before use
    memo: Any = field(default=None, repr=False, compare=False)


@dataclass
class _MistakeTally:
    """Per-member mistake counts on the queried points `xs`, `ys`."""

    xs: list
    ys: list
    counts: np.ndarray


@dataclass(frozen=True)
class FiniteClassDescriptor:
    """Exact version-space bookkeeping over an explicit finite class.

    At each update a member is dropped once its mistakes on Q exceed the
    best live member's by more than base + sqrt(best * base), where
    base = log 2 + log(1/gamma_j): the tolerance for VC dimension 1 with
    disagreement coefficient 2.
    """

    hclass: FiniteHypothesisClass

    def init_state(self) -> ActiveState:
        alive = np.ones(self.hclass.n_members, dtype=bool)
        return ActiveState(descriptor=self, hypothesis=0, alive=alive)

    def disagreement(self, state: ActiveState, x, slack: float) -> bool:
        col = self.hclass.by_point[int(x)][state.alive]
        return bool(col.min() != col.max())

    def _mistakes(self, state: ActiveState) -> np.ndarray:
        """Per-member mistakes on Q, counting only points added since the
        last call; a Q changed other than by appending is counted anew."""
        tally = state.memo
        k = len(tally.xs) if isinstance(tally, _MistakeTally) else 0
        if not (k and state.xs[:k] == tally.xs and state.ys[:k] == tally.ys):
            zeros = np.zeros(self.hclass.n_members, dtype=np.int64)
            tally, k = _MistakeTally([], [], zeros), 0
        if len(state.xs) > k:
            new_xs, new_ys = state.xs[k:], state.ys[k:]
            tally = _MistakeTally(
                tally.xs + new_xs,
                tally.ys + new_ys,
                tally.counts + self.hclass.mistake_counts(new_xs, new_ys),
            )
        state.memo = tally
        return tally.counts

    def update(self, state: ActiveState, j: int, gamma: float) -> None:
        gamma_j = gamma / math.log2(2 * j) ** 2
        mistakes = self._mistakes(state)
        best = int(mistakes[state.alive].min())
        # log(theta) + log(1/gamma_j) at VC dimension 1 and theta = 2
        base = math.log(2.0) + math.log(1.0 / gamma_j)
        tolerance = base + math.sqrt(best * base)
        state.alive &= mistakes - best <= tolerance
        self.refit(state)

    def refit(self, state: ActiveState) -> None:
        mistakes = self._mistakes(state).astype(float)
        mistakes[~state.alive] = np.inf
        state.hypothesis = int(np.argmin(mistakes))


@dataclass
class _ReferenceMemo:
    """The reference fit on Q, and the two fits it may become next.

    `base` is the probe-settings fit on `xs`, `ys` (stacked as `X`) from
    `hypothesis`. `next_bases[y]` is the same fit on `xs + [x]`,
    `ys + [y]` (stacked as `X_next`), where `x` is the point just probed.
    """

    hypothesis: LinearHypothesis
    xs: list
    ys: list
    X: sp.csr_matrix
    base: LinearHypothesis
    x: Any
    X_next: sp.csr_matrix
    next_bases: list[LinearHypothesis]

    def lookup(self, state: ActiveState):
        """(stacked Q, reference fit) for the state, or None if this memo
        does not cover its hypothesis, queried points and labels."""
        k = len(self.xs)
        if state.hypothesis is not self.hypothesis or not (
            k <= len(state.xs) <= k + 1
        ):
            return None
        if state.ys[:k] != self.ys or any(
            a is not b for a, b in zip(state.xs, self.xs)
        ):
            return None
        if len(state.xs) == k:
            return self.X, self.base
        y = state.ys[-1]
        if state.xs[-1] is self.x and y in (0, 1):
            return self.X_next, self.next_bases[int(y)]
        return None


@dataclass(frozen=True)
class LinearClassDescriptor:
    """Constrained-refit surrogate for halfspaces.

    No explicit version space exists; a point counts as ambiguous when some
    near-optimal fit on the queried pool Q labels it opposite to the
    current hypothesis. The reference is a fresh fit `base` on Q, warm
    started from the current hypothesis. The probe fit pins the point's
    label with a heavy sample weight, starts from `base`, and must stay
    within `slack` of base's empirical error on Q.

    The learner's next reference is known up to the answer: `base` itself
    if the point is not queried, or the fit on Q plus the point labeled 0
    or 1. So each probe is trained in one `train_erm_batch` call together
    with those two fits, and the state's memo keeps them with the stacked
    Q for the next call. That call reuses a memo only while the
    hypothesis is the same object and Q and its labels are the memo's, or
    those plus the probed point itself; after a refit (on the doubling
    schedule) or any other change to the state it fits `base` alone.
    Every fit is bit-for-bit the one a lone `train_erm` would make, so the
    answers do not depend on the memo.
    """

    n_features: int
    settings: TrainerSettings = TrainerSettings()
    probe_settings: TrainerSettings = TrainerSettings(max_iter=150)

    def init_state(self) -> ActiveState:
        h0 = LinearHypothesis(np.zeros(self.n_features), 0.0)
        return ActiveState(descriptor=self, hypothesis=h0)

    def _pool(self, state: ActiveState) -> Dataset:
        return Dataset(sp.vstack(state.xs), np.asarray(state.ys))

    def disagreement(self, state: ActiveState, x, slack: float) -> bool:
        if math.isinf(slack) or not state.xs:
            return True
        y = np.asarray(state.ys)
        memo = state.memo
        hit = memo.lookup(state) if isinstance(memo, _ReferenceMemo) else None
        if hit is None:
            pool = self._pool(state)
            X = pool.X
            # the reference is a fresh unconstrained optimum, not the
            # possibly stale current hypothesis
            base = train_erm(pool, self.probe_settings, init=state.hypothesis)
        else:
            X, base = hit
        n = len(y)
        base_errors = int((base.predict(X) != y).sum())
        forced = 1 - int(base.predict(x)[0])
        X_next = sp.vstack([X, sp.csr_matrix(x)])
        weights = np.ones(n + 1)
        weights[-1] = n + 1.0
        h, *next_bases = train_erm_batch(
            [Dataset(X_next, np.append(y, label)) for label in (forced, 0, 1)],
            self.probe_settings,
            [weights, None, None],
            [base, state.hypothesis, state.hypothesis],
        )
        state.memo = _ReferenceMemo(
            state.hypothesis,
            list(state.xs),
            list(state.ys),
            X,
            base,
            x,
            X_next,
            next_bases,
        )
        if int(h.predict(x)[0]) != forced:
            return False
        probe_errors = int((h.predict(X) != y).sum())
        return probe_errors <= base_errors + slack * n

    def update(self, state: ActiveState, j: int, gamma: float) -> None:
        self.refit(state)

    def refit(self, state: ActiveState) -> None:
        if state.xs:
            state.hypothesis = train_erm(
                self._pool(state), self.settings, init=state.hypothesis
            )


def active_update_version_space(state: ActiveState, j: int, gamma: float) -> ActiveState:
    """Shrink the version space at stream position j (a power of two).

    Finite classes drop every member whose mistake count on Q exceeds the
    best live member's by more than the confidence tolerance at level
    gamma_j = gamma / log2(2j)^2. Linear classes refresh the hypothesis by
    retraining on Q.
    """
    if j < 1 or 2 ** int(math.log2(j)) != j:
        raise ValueError("updates happen on the doubling schedule")
    state.descriptor.update(state, j, gamma)
    return state


def run_active_learning(
    descriptor,
    stream,
    oracle: Callable[[Any, int], int],
    query_budget: int,
    gamma: float,
    slack: float | None = None,
) -> ActiveState:
    """Drive the disagreement learner down a fixed stream.

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
            active_update_version_space(state, j, gamma)
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
    _require_pools(teacher_data, student_pool, test_data, config.K)
    rng = make_rng(rng)
    ensemble = train_committee(teacher_data, config.K, rng)
    ones = ensemble.vote_ones(student_pool.X)
    if config.budget is None:
        session = ExactSession()
    else:
        session = GaussianSession.for_budget(
            config.query_budget, config.budget, rng
        )

    state = run_active_learning(
        LinearClassDescriptor(student_pool.n_features),
        # rows are sliced as the loop reaches them: it stops once the
        # query budget is spent
        (student_pool.X[i] for i in range(len(student_pool))),
        lambda x, i: session.answer(VoteCount(int(ones[i]), config.K)),
        config.query_budget,
        config.gamma,
    )
    report = RunReport(
        queries=state.c,
        bots=0,
        eps_ex_post=session.privacy_report()[0],
        accuracy=1.0 - empirical_error(state.hypothesis, test_data),
    )
    return state.hypothesis, report


# ---------------------------------------------------------------------------
# Parameter sizing


def compute_k_for_gaussian(m_or_ell: int, budget: PrivacyBudget, n: int) -> int:
    """Committee size for noisy-majority labeling of m queries.

    Equals ceil(6 * sigma * sqrt(2 log 2n)) for the sigma that spends the
    budget over m answers; sized so realized vote margins beat the noise
    on every query simultaneously, with n the per-teacher sample size.
    """
    m = int(m_or_ell)
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    eps, delta = budget.epsilon, budget.delta
    inner = math.sqrt(m * math.log(1.0 / delta)) + math.sqrt(
        m * math.log(1.0 / delta) + eps * m
    )
    return math.ceil(6.0 * math.sqrt(math.log(2.0 * n)) * inner / eps)


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
