"""Independent oracles for the test suite.

Everything in this module is computed from first principles: closed-form
algebra, stdlib math, brute-force enumeration, bisection root finding, or
a plain one-fit-at-a-time loop. Nothing at module level imports from
privote, so agreement between the package and these functions is a
genuine second opinion rather than a tautology.

The exceptions are at the end. The LIBSVM reader is privote's as it
was before it converted tokens in bulk; it uses privote's file opener,
label table, error type and Dataset. The linear active-learning descriptor
is the one that fitted its reference and probe afresh at every stream
point, before those fits were carried over and batched; it calls
privote's trainer. The two reference pipelines are the non-private
pipelines as they stood before exact-majority sessions, and they call
privote's committee trainer, student fit and active loop driver (with the
reference descriptor); they pin that running the private pipelines with
no budget changes nothing. The copying split is the trial split as it
was before it returned row indices; it calls privote's rng and
`Dataset.subset`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, gammaln, log_ndtr


# ---------------------------------------------------------------------------
# Distributions


def laplace_cdf(x: float, scale: float) -> float:
    if x < 0:
        return 0.5 * math.exp(x / scale)
    return 1.0 - 0.5 * math.exp(-x / scale)


def gaussian_cdf(x: float, sigma: float) -> float:
    return 0.5 * (1.0 + math.erf(x / (sigma * math.sqrt(2.0))))


def binomial_se(p: float, n: int) -> float:
    """Standard error of a frequency estimate from n Bernoulli(p) draws."""
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


# ---------------------------------------------------------------------------
# Privacy accounting algebra


def zcdp_epsilon(rho: float, delta: float) -> float:
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def gaussian_session_epsilon(sigma: float, ell: int, delta: float) -> float:
    """Privacy loss of ell sensitivity-1 releases at noise sigma.

    This is the left-hand side of the calibration equation: the zCDP cost
    ell/(2 sigma^2) converted to (epsilon, delta)-DP.
    """
    return math.sqrt(2.0 * ell * math.log(1.0 / delta)) / sigma + ell / (
        2.0 * sigma**2
    )


def solve_sigma_bisect(ell: int, epsilon: float, delta: float) -> float:
    """Bisection solve of gaussian_session_epsilon(sigma) = epsilon.

    Independent of any closed form; the loss is strictly decreasing in sigma.
    """
    lo, hi = 1e-9, 1.0
    while gaussian_session_epsilon(hi, ell, delta) > epsilon:
        hi *= 2.0
    for _ in range(50000):
        mid = 0.5 * (lo + hi)
        if gaussian_session_epsilon(mid, ell, delta) > epsilon:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


def svt_lambda_formula(T: int, epsilon: float, delta: float) -> float:
    a = math.log(2.0 / delta)
    return (math.sqrt(2.0 * T * (epsilon + a)) + math.sqrt(2.0 * T * a)) / epsilon


def svt_threshold_formula(lam: float, ell: int, T: int, delta: float) -> float:
    return 3.0 * lam * math.log(2.0 * (ell + T) / delta)


# ---------------------------------------------------------------------------
# Exact privacy of noisy-majority answers, from their output distributions


def noisy_majority_log_probs(ones, total: int, sigma: float):
    """log P(1) and log P(0) of the answer 1(ones + N(0, sigma^2) >= total/2),
    for each count in `ones`."""
    z = (np.asarray(ones, dtype=float) - total / 2.0) / sigma
    return log_ndtr(z), log_ndtr(-z)


def binomial_log_pmf(ell: int, log_one, log_zero) -> np.ndarray:
    """log P(k ones among ell independent answers), k = 0..ell along the
    last axis, for answers whose log P(1), log P(0) are given per count."""
    k = np.arange(ell + 1)
    log_choose = gammaln(ell + 1) - gammaln(k + 1) - gammaln(ell - k + 1)
    log_one = np.asarray(log_one)[..., None]
    log_zero = np.asarray(log_zero)[..., None]
    return log_choose + k * log_one + (ell - k) * log_zero


def outcome_log_pmf(log_one, log_zero) -> np.ndarray:
    """log P of each of the 2^m answer vectors to m independent queries,
    whose log P(1), log P(0) are given per query (enumerated, so m small)."""
    m = len(log_one)
    bits = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    return bits @ np.asarray(log_one) + (1 - bits) @ np.asarray(log_zero)


def hockey_stick_delta(log_p, log_q, eps: float) -> np.ndarray:
    """delta(eps) = sum over outcomes (the last axis) of max(0, P - e^eps Q),
    computed from the log-probabilities as P * (1 - e^(eps + log Q - log P))."""
    gap = -np.expm1(np.minimum(eps + log_q - log_p, 0.0))
    return np.sum(np.exp(log_p) * gap, axis=-1)


# ---------------------------------------------------------------------------
# Votes, margins, stability (brute force over explicit vote vectors)


def brute_majority(votes: list[int]) -> int:
    ones = sum(votes)
    return 1 if ones >= len(votes) / 2 else 0


def brute_margin(votes: list[int]) -> int:
    ones = sum(votes)
    return abs(2 * ones - len(votes))


def brute_distance(votes: list[int]) -> int:
    """Flips needed beyond one to change the majority, floored at zero.

    Counted directly: the smallest number of single-vote flips that changes
    brute_majority, minus one.
    """
    base = brute_majority(votes)
    k = len(votes)
    for flips in range(k + 1):
        ones = sum(votes)
        # flipping f votes moves `ones` anywhere in [ones-f, ones+f]
        lo = max(0, ones - flips)
        hi = min(k, ones + flips)
        for new_ones in range(lo, hi + 1):
            maj = 1 if new_ones >= k / 2 else 0
            if maj != base:
                return max(0, flips - 1)
    return k


def all_vote_vectors(k: int):
    return itertools.product((0, 1), repeat=k)


def pigeonhole_violated(mistakes: list[list[int]]) -> bool:
    """Direct check of the vote-matrix counting bound.

    mistakes[k][j] = 1 iff teacher k is wrong on point j. Returns True when
    the number of points with at least K/3 wrong teachers exceeds 3B, where
    B is the worst per-teacher mistake count.
    """
    K = len(mistakes)
    m = len(mistakes[0])
    B = max(sum(row) for row in mistakes)
    heavy = sum(1 for j in range(m) if sum(row[j] for row in mistakes) >= K / 3)
    return heavy > 3 * B


# ---------------------------------------------------------------------------
# The four-point counterexample, recomputed from its own table


VF_CLASS = [
    (1, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, 0, 1),
]
VF_LABELS = (1, 1, 1, 1)


def vf_member_error(member: tuple[int, ...]) -> float:
    return sum(1 for p, y in zip(member, VF_LABELS) if p != y) / 4.0


def vf_exact_majority() -> tuple[int, ...]:
    out = []
    for j in range(4):
        ones = sum(h[j] for h in VF_CLASS)
        out.append(1 if ones >= len(VF_CLASS) / 2 else 0)
    return tuple(out)


def vf_majority_error() -> float:
    maj = vf_exact_majority()
    return sum(1 for p, y in zip(maj, VF_LABELS) if p != y) / 4.0


# ---------------------------------------------------------------------------
# 1-D threshold noise family: closed forms


def tnc_margin(x: float, tau: float, c: float = 0.5) -> float:
    """Regression-function distance from 1/2 at x, for the 1-D family."""
    if tau == 1.0:
        return min(0.5, c)
    q = (1.0 - tau) / tau
    return min(0.5, c * abs(x - 0.5) ** q)


def tnc_excess(t: float, tau: float, c: float = 0.5) -> float:
    """Exact excess risk of the threshold at t against the optimum at 1/2.

    Integrates 2 * margin(x) between t and 1/2, in closed form (piecewise:
    the margin is c*u^q until it clamps at 1/2, where u = |x - 1/2|).
    """
    a = abs(t - 0.5)
    if tau == 1.0:
        return 2.0 * min(0.5, c) * a
    q = (1.0 - tau) / tau
    if c >= 0.5:
        u_star = (0.5 / c) ** (1.0 / q)
    else:
        u_star = float("inf")
    if a <= u_star:
        return 2.0 * c * a ** (q + 1.0) / (q + 1.0)
    return 2.0 * c * u_star ** (q + 1.0) / (q + 1.0) + (a - u_star)


def tnc_tail_mass(t: float, tau: float, c: float = 0.5) -> float:
    """P(margin(X) <= t) for X uniform on [0,1], exact."""
    if tau == 1.0:
        return 0.0 if t < min(0.5, c) else 1.0
    q = (1.0 - tau) / tau
    if t <= 0:
        return 0.0
    radius = (t / c) ** (1.0 / q)
    return min(1.0, 2.0 * radius)


# ---------------------------------------------------------------------------
# Logistic-regression training, one fit at a time


def reference_train_erm(data, steps, sample_weight=None, init=None):
    """One full-batch accelerated-descent fit, in its own loop.

    This is privote's trainer as one fit at a time, written straight from
    the method: each of `steps` steps, step k counted from 0, takes the
    gradient at y = x_k + k/(k+3) (x_k - x_{k-1}), with x_{-1} = x_0, and
    moves to y - g(y)/L. The batched trainer must match it bit for bit.
    `data` has a CSR `X` and 0/1 labels `y`; `init` has weights and bias.
    Returns (weights, bias).
    """
    X = data.X
    n, d = X.shape
    signs = 2.0 * data.y - 1.0
    if sample_weight is None:
        wts = np.full(n, 1.0 / n)
    else:
        wts = np.asarray(sample_weight, dtype=float)
        wts = wts / wts.sum()

    # smoothness bound, rows augmented with the bias coordinate: the least
    # of the largest squared row norm and four Collatz-Wielandt ratios
    # max_i (Av)_i / v_i over v_i > 0 of A = |X|^T diag(wts) |X|, from
    # v = 1, each step moving to v = Av / max(Av)
    row_sq = np.asarray(X.multiply(X).sum(axis=1)).ravel() + 1.0
    absX = sp.hstack([abs(X), np.ones((n, 1))], format="csr")
    bound = float(row_sq.max())
    v = np.ones(d + 1)
    for _ in range(4):
        u = absX.T @ (wts * (absX @ v))
        pos = v > 0
        bound = min(bound, float((u[pos] / v[pos]).max()))
        v = u / u.max()
    step = 1.0 / (0.25 * bound)

    if init is None:
        w = np.zeros(d)
        b = 0.0
    else:
        w = init.weights.copy()
        b = float(init.bias)
    w_prev, b_prev = w, b
    for k in range(steps):
        beta = k / (k + 3)
        yw = w + beta * (w - w_prev)
        yb = b + beta * (b - b_prev)
        scores = signs * (np.asarray(X @ yw).ravel() + yb)
        coef = wts * signs * expit(-scores)
        grad_w = -(X.T @ coef)
        # the bias column's terms in row order from +0.0, as the transpose
        # product sums every column
        grad_b = -functools.reduce(operator.add, coef.tolist(), 0.0)
        w_prev, w = w, yw - step * grad_w
        b_prev, b = b, yb - step * grad_b
    return w, b


# ---------------------------------------------------------------------------
# Linear active learning, one fresh reference and probe fit per point


class ReferenceLinearDescriptor:
    """privote's LinearClassDescriptor as it was before its memo.

    At every stream point it stacks the queried set Q, fits the reference
    `base` on it from the current hypothesis, then fits the probe from
    `base`, each with its own `train_erm` call. The memoised, batched
    descriptor must make the same decisions and end with the same
    hypothesis bit for bit.
    """

    def __init__(self, n_features, steps=35, probe_steps=10):
        self.n_features = n_features
        self.steps = steps
        self.probe_steps = probe_steps

    def init_state(self):
        from privote.learners import LinearHypothesis
        from privote.pipelines import ActiveState

        h0 = LinearHypothesis(np.zeros(self.n_features), 0.0)
        return ActiveState(descriptor=self, hypothesis=h0)

    def _pool(self, state):
        from privote.learners import Dataset

        return Dataset(sp.vstack(state.xs), np.asarray(state.ys))

    def disagreement(self, state, x, slack):
        from privote.learners import Dataset, train_erm

        if math.isinf(slack) or not state.xs:
            return True
        pool = self._pool(state)
        base = train_erm(pool, self.probe_steps, init=state.hypothesis)
        base_errors = int((base.predict(pool.X) != pool.y).sum())
        forced = 1 - int(base.predict(x)[0])
        probe = Dataset(
            sp.vstack([pool.X, sp.csr_matrix(x)]),
            np.append(pool.y, forced),
        )
        weights = np.ones(len(probe))
        weights[-1] = len(pool) + 1.0
        h = train_erm(probe, self.probe_steps, sample_weight=weights, init=base)
        if int(h.predict(x)[0]) != forced:
            return False
        probe_errors = int((h.predict(pool.X) != pool.y).sum())
        return probe_errors <= base_errors + slack * len(pool)

    def update(self, state, j):
        self.refit(state)

    def refit(self, state):
        from privote.learners import train_erm

        if state.xs:
            state.hypothesis = train_erm(
                self._pool(state), self.steps, init=state.hypothesis
            )


# ---------------------------------------------------------------------------
# Non-private pipelines, before exact-majority sessions


def reference_psq_noiseless(teacher_data, student_pool, test_data, K, rng=None):
    """Non-private baseline: exact majority labels for the whole pool."""
    from privote.dp_core import make_rng
    from privote.learners import empirical_error, train_committee, train_erm
    from privote.pipelines import RunReport, _require_pools

    _require_pools(teacher_data, student_pool, test_data, K)
    rng = make_rng(rng)
    ensemble = train_committee(teacher_data, K, rng)
    ones = ensemble.vote_ones(student_pool.X)
    labels = (2 * ones >= K).astype(np.int64)
    student = train_erm(student_pool.with_labels(labels))
    report = RunReport(
        queries=len(student_pool),
        bots=0,
        eps_ex_post=math.inf,
        accuracy=1.0 - empirical_error(student, test_data),
    )
    return student, report


def reference_asq_noiseless(
    teacher_data, student_pool, test_data, K, query_budget, rng=None
):
    """Active baseline answered by the exact committee majority."""
    from privote.aggregation import VoteCount, vote_majority
    from privote.dp_core import make_rng
    from privote.learners import empirical_error, train_committee
    from privote.pipelines import RunReport, _require_pools

    _require_pools(teacher_data, student_pool, test_data, K)
    rng = make_rng(rng)
    ensemble = train_committee(teacher_data, K, rng)
    ones = ensemble.vote_ones(student_pool.X)

    state = _drive_asq(
        student_pool,
        query_budget,
        lambda x, i: vote_majority(VoteCount(int(ones[i]), K)),
    )
    report = RunReport(
        queries=len(state.xs),
        bots=0,
        eps_ex_post=math.inf,
        accuracy=1.0 - empirical_error(state.hypothesis, test_data),
    )
    return state.hypothesis, report


def _drive_asq(student_pool, query_budget, oracle):
    from privote.pipelines import run_active_learning

    descriptor = ReferenceLinearDescriptor(student_pool.n_features)
    stream = [student_pool.X[i] for i in range(len(student_pool))]
    return run_active_learning(
        descriptor,
        stream,
        oracle,
        query_budget,
    )


# ---------------------------------------------------------------------------
# The trial split, copying its rows


class CopiedSplit(NamedTuple):
    teacher: object  # Dataset
    student: object  # Dataset, unlabeled
    test: object  # Dataset
    student_labels: np.ndarray


def reference_split_protocol(data, rng) -> CopiedSplit:
    """The split as it stood before it returned row indices: one
    permutation of the rows, cut into floor(0.8 n) teachers, ceil(0.02 n)
    pool points and the rest for testing, each part copied out of data by
    `Dataset.subset` in permuted order, the pool's labels beside it."""
    from privote.dp_core import make_rng

    n = len(data)
    n_teacher, n_student = math.floor(0.8 * n), math.ceil(0.02 * n)
    perm = make_rng(rng).permutation(n)
    student = data.subset(perm[n_teacher : n_teacher + n_student])
    return CopiedSplit(
        data.subset(perm[:n_teacher]),
        student.without_labels(),
        data.subset(perm[n_teacher + n_student :]),
        student.y.copy(),
    )


# ---------------------------------------------------------------------------
# LIBSVM reading, one token at a time


def reference_parse_libsvm(path):
    """privote's LIBSVM reader as it was before bulk conversion.

    Read `label idx:val ...` lines into a sparse dataset.

    Labels {+1, 1} map to 1 and {-1, 0, 2} to 0. Feature indices are
    1-based in the file, strictly increasing within a line, and stored
    0-based. Anything after '#' on a line is a comment.
    """
    import io

    from privote.harness import _LABEL_MAP, LibsvmParseError, _open_bytes
    from privote.learners import Dataset

    labels: list[int] = []
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    max_index = -1

    with io.TextIOWrapper(_open_bytes(path), encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label_value = float(tokens[0])
            except ValueError:
                raise LibsvmParseError(
                    f"line {lineno}: unreadable label {tokens[0]!r}"
                ) from None
            label = _LABEL_MAP.get(label_value)
            if label is None:
                raise LibsvmParseError(
                    f"line {lineno}: unknown label value {tokens[0]}"
                )
            previous = 0
            for token in tokens[1:]:
                idx_str, _, val_str = token.partition(":")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise LibsvmParseError(
                        f"line {lineno}: malformed feature {token!r}"
                    ) from None
                if idx < 1:
                    raise LibsvmParseError(
                        f"line {lineno}: feature index {idx} is not positive"
                    )
                if idx <= previous:
                    raise LibsvmParseError(
                        f"line {lineno}: feature index {idx} does not increase"
                    )
                previous = idx
                indices.append(idx - 1)
                values.append(val)
                max_index = max(max_index, idx - 1)
            labels.append(label)
            indptr.append(len(indices))

    if not labels:
        raise LibsvmParseError("no examples found")
    X = sp.csr_matrix(
        (np.asarray(values), np.asarray(indices), np.asarray(indptr)),
        shape=(len(labels), max_index + 1),
    )
    return Dataset(X, np.asarray(labels))


# ---------------------------------------------------------------------------
# Misc


def hoeffding_vote_bound(k: int, xi: float) -> float:
    return math.exp(-2.0 * k * xi**2)


def is_partition(parts: list[list[int]], whole: list[int]) -> bool:
    seen: list[int] = []
    for p in parts:
        seen.extend(p)
    return sorted(seen) == sorted(whole) and len(seen) == len(set(seen))


def mean_halfwidth(values: list[float]) -> tuple[float, float]:
    """Mean and the 95% Student-t half-width, t_{n-1, 0.975} * sd / sqrt(n),
    used by summary reports."""
    from scipy.stats import t

    n = len(values)
    mu = sum(values) / n
    if n < 2:
        return mu, 0.0
    var = sum((v - mu) ** 2 for v in values) / (n - 1)
    return mu, t.ppf(0.975, n - 1) * math.sqrt(var) / math.sqrt(n)
