"""Seeded synthetic data generators.

Each generator is deterministic given its seed and ships the ground truth
alongside the data (separating hyperplane, noise exponents), so
experiments can measure excess risk exactly instead of estimating it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dp_core import make_rng
from .learners import Dataset, LinearHypothesis

__all__ = [
    "TncGenerator",
    "gen_realizable",
    "gen_massart",
    "gen_tnc",
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


def gen_tnc(
    tau: float, n: int, rng: np.random.Generator, c: float = 0.5
) -> tuple[Dataset, TncGenerator]:
    """Threshold data under the polynomial-margin noise condition."""
    gen = TncGenerator(tau, c)
    return gen.dataset(n, make_rng(rng)), gen
