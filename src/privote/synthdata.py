"""Seeded synthetic data generators and the two voting counterexamples.

Each generator is deterministic given its seed and ships the ground truth
alongside the data (separating hyperplane, Bayes error, noise exponents),
so experiments can measure excess risk exactly instead of estimating it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dp_core import make_rng
from .learners import Dataset, FiniteHypothesisClass, LinearHypothesis

__all__ = [
    "TncGenerator",
    "VotingFailsFixture",
    "VotingWinsGenerator",
    "gen_realizable",
    "gen_massart",
    "gen_tnc",
    "gen_voting_wins",
]

def _hidden_halfspace(d: int, rng: np.random.Generator) -> LinearHypothesis:
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    return LinearHypothesis(w, 0.0)


def gen_realizable(
    d: int, n: int, rng: np.random.Generator
) -> tuple[Dataset, LinearHypothesis]:
    """Noiseless halfspace data: x uniform on [-1,1]^d, y = 1(w*.x >= 0)."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    rng = make_rng(rng)
    h_star = _hidden_halfspace(d, rng)
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    y = (X @ h_star.weights >= 0.0).astype(np.int64)
    return Dataset(sp.csr_matrix(X), y), h_star


def gen_massart(
    d: int, n: int, flip: float, rng: np.random.Generator
) -> tuple[Dataset, LinearHypothesis]:
    """Halfspace data with labels independently flipped with probability flip."""
    if not (0.0 <= flip < 0.5):
        raise ValueError("flip rate must lie in [0, 1/2)")
    rng = make_rng(rng)
    data, h_star = gen_realizable(d, n, rng)
    flips = rng.random(n) < flip
    y = np.where(flips, 1 - data.y, data.y)
    return Dataset(data.X, y), h_star


@dataclass(frozen=True)
class TncGenerator:
    """One-dimensional threshold family with a polynomial noise margin.

    x is uniform on [0,1]; the regression function sits at distance
    m(x) = min(1/2, c * |x - 1/2|^q) from 1/2 with q = (1 - tau)/tau, so
    small tau means the margin collapses quickly near the boundary.
    tau = 1 gives a constant margin (bounded noise); c = 1/2 there makes
    the labels deterministic.
    """

    tau: float
    c: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0, 1]")
        if not (0.0 < self.c <= 1.0):
            raise ValueError("margin constant must lie in (0, 1]")

    @property
    def q(self) -> float:
        return (1.0 - self.tau) / self.tau

    @property
    def h_star(self) -> LinearHypothesis:
        return LinearHypothesis(np.array([1.0]), -0.5)

    def margin(self, x) -> np.ndarray:
        """Distance of the regression function from 1/2 at x."""
        x = np.asarray(x, dtype=float)
        if self.tau == 1.0:
            return np.minimum(0.5, np.full_like(x, self.c))
        return np.minimum(0.5, self.c * np.abs(x - 0.5) ** self.q)

    def eta(self, x) -> np.ndarray:
        """P(y = 1 | x)."""
        x = np.asarray(x, dtype=float)
        return 0.5 + np.sign(x - 0.5) * self.margin(x)

    def excess_error(self, t: float) -> float:
        """Exact excess risk of the threshold classifier 1(x >= t)."""
        u = abs(min(max(t, 0.0), 1.0) - 0.5)
        if self.tau == 1.0:
            return 2.0 * min(0.5, self.c) * u
        q = self.q
        # clamp point where c * u^q reaches 1/2
        u_star = (0.5 / self.c) ** (1.0 / q)
        inner = min(u, u_star)
        total = 2.0 * self.c * inner ** (q + 1.0) / (q + 1.0)
        if u > u_star:
            total += u - u_star
        return total

    def sample_xy(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        xs = rng.random(n)
        ys = (rng.random(n) < self.eta(xs)).astype(np.int64)
        return xs, ys

    def dataset(self, n: int, rng: np.random.Generator) -> Dataset:
        xs, ys = self.sample_xy(n, rng)
        return Dataset(sp.csr_matrix(xs[:, None]), ys)

    def fit_threshold(self, xs, ys) -> float:
        """Exact 0-1 ERM over thresholds 1(x >= t); leftmost minimizer."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys)
        order = np.argsort(xs, kind="stable")
        ys_sorted = ys[order]
        xs_sorted = xs[order]
        # errors(k) for the cut predicting 1 on positions k..n-1
        ones_before = np.concatenate(([0], np.cumsum(ys_sorted == 1)))
        zeros_after = (ys_sorted == 0).sum() - np.concatenate(
            ([0], np.cumsum(ys_sorted == 0))
        )
        errors = ones_before + zeros_after
        k = int(np.argmin(errors))
        if k == 0:
            return 0.0
        if k == len(xs_sorted):
            return 2.0
        return float(0.5 * (xs_sorted[k - 1] + xs_sorted[k]))

    def fit(self, xs, ys, rng: np.random.Generator | None = None):
        t = self.fit_threshold(xs, ys)
        return lambda probes: (np.asarray(probes, dtype=float) >= t).astype(
            np.int64
        )

    def probe_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random(count)

    def optimal_labels(self, xs) -> np.ndarray:
        return (np.asarray(xs, dtype=float) >= 0.5).astype(np.int64)


def gen_tnc(
    tau: float, n: int, rng: np.random.Generator, c: float = 0.5
) -> tuple[Dataset, TncGenerator]:
    """Threshold data under the polynomial-margin noise condition."""
    gen = TncGenerator(tau, c)
    return gen.dataset(n, make_rng(rng)), gen


@dataclass(frozen=True)
class VotingFailsFixture:
    """Four-point domain where majority-of-ERMs is much worse than one ERM.

    Labels are identically 1. Every class member errs on exactly two of the
    four points (error 1/2), but their exact majority is (1,0,0,0): error
    3/4. Randomized-tie ERM teachers vote each minority member up about a
    third of the time, so the aggregate converges to the bad majority.
    """

    member_labels: np.ndarray = field(
        default_factory=lambda: np.array(
            [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], dtype=np.int8
        )
    )

    @property
    def domain(self) -> np.ndarray:
        return np.arange(4)

    @property
    def true_labels(self) -> np.ndarray:
        return np.ones(4, dtype=np.int64)

    @property
    def hypothesis_class(self) -> FiniteHypothesisClass:
        return FiniteHypothesisClass(self.member_labels)

    def member_error(self, member: int) -> float:
        return float(np.mean(self.member_labels[member] != self.true_labels))

    def exact_majority(self) -> np.ndarray:
        ones = self.member_labels.sum(axis=0)
        return (2 * ones >= self.member_labels.shape[0]).astype(np.int64)

    def majority_error(self) -> float:
        return float(np.mean(self.exact_majority() != self.true_labels))

    def _mistake_counts(self, point_counts: np.ndarray) -> np.ndarray:
        # member m errs exactly where its row is 0 (true labels are all 1)
        wrong = self.member_labels == 0
        return point_counts @ wrong.T

    def aggregate_error_mc(
        self,
        K: int,
        n_per_teacher: int,
        reps: int,
        rng: np.random.Generator,
    ) -> float:
        """Mean error of a K-teacher majority, averaged over reps draws.

        Each teacher is an exact ERM over the class on its own uniform
        n-point sample, with ties broken uniformly at random.
        """
        rng = make_rng(rng)
        errs = np.empty(reps)
        for r in range(reps):
            counts = rng.multinomial(n_per_teacher, [0.25] * 4, size=K)
            mistakes = self._mistake_counts(counts).astype(float)
            mistakes += rng.random(mistakes.shape)  # uniform tie-break
            winners = np.argmin(mistakes, axis=1)
            ones = self.member_labels[winners].sum(axis=0)
            majority = (2 * ones >= K).astype(np.int64)
            errs[r] = np.mean(majority != self.true_labels)
        return float(errs.mean())

    # same teacher process, exposed through the estimator protocol
    def sample_xy(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        xs = rng.integers(0, 4, size=n)
        return xs, np.ones(n, dtype=np.int64)

    def fit(self, xs, ys, rng: np.random.Generator):
        member = self.hypothesis_class.erm(xs, ys, rng)
        row = self.member_labels[member]
        return lambda probes: row[np.asarray(probes)]

    def probe_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 4, size=count)

    def optimal_labels(self, xs) -> np.ndarray:
        return np.ones(len(np.asarray(xs)), dtype=np.int64)


@dataclass(frozen=True)
class VotingWinsGenerator:
    """Finite domain where every teacher beats chance by a fixed margin.

    Teachers are simulated predictors, not trained models: independently at
    each domain point a teacher is correct with probability 1/2 + xi, so a
    K-majority's per-point error decays like exp(-2 K xi^2).
    """

    xi: float
    truth: np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 < self.xi < 0.5):
            raise ValueError("xi must lie in (0, 1/2)")

    @property
    def domain_size(self) -> int:
        return len(self.truth)

    def teacher_labels(self, rng: np.random.Generator) -> np.ndarray:
        wrong = rng.random(self.domain_size) < (0.5 - self.xi)
        return np.where(wrong, 1 - self.truth, self.truth)

    def aggregate_error(self, K: int, rng: np.random.Generator) -> float:
        """Fraction of the domain a K-teacher majority gets wrong."""
        rng = make_rng(rng)
        ones = np.zeros(self.domain_size, dtype=np.int64)
        for _ in range(K):
            ones += self.teacher_labels(rng)
        majority = (2 * ones >= K).astype(np.int64)
        return float(np.mean(majority != self.truth))

    def sample_xy(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        xs = rng.integers(0, self.domain_size, size=n)
        return xs, self.truth[xs]

    def fit(self, xs, ys, rng: np.random.Generator):
        row = self.teacher_labels(rng)
        return lambda probes: row[np.asarray(probes)]

    def probe_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.domain_size, size=count)

    def optimal_labels(self, xs) -> np.ndarray:
        return self.truth[np.asarray(xs)]


def gen_voting_wins(
    xi: float, domain_size: int, rng: np.random.Generator
) -> VotingWinsGenerator:
    """Uniform-margin teacher simulator over a random binary ground truth."""
    if domain_size < 1:
        raise ValueError("domain_size must be positive")
    rng = make_rng(rng)
    truth = rng.integers(0, 2, size=domain_size).astype(np.int64)
    return VotingWinsGenerator(xi, truth)
