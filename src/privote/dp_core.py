"""Noise sampling, zCDP accounting, and closed-form budget calibration.

The accounting currency is zero-concentrated differential privacy (zCDP):
a rho-zCDP release composes additively in rho and converts to (epsilon,
delta)-DP through ``epsilon = rho + 2*sqrt(rho*log(1/delta))``. All noise
flows from an explicit seeded generator passed by the caller; nothing here
touches global RNG state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrivacyBudget",
    "make_rng",
    "derive_seed",
    "sample_laplace",
    "sample_gaussian",
    "gaussian_epsilon",
    "calibrate_gaussian_sigma",
    "calibrate_svt",
]


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) differential-privacy target.

    epsilon must be positive and delta in (0, 1). Budgets with
    epsilon > log(1/delta) are accepted but trigger a warning, since the
    utility analysis of the aggregation mechanisms assumes the opposite.
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.epsilon > math.log(1.0 / self.delta):
            warnings.warn(
                "budget has epsilon > log(1/delta); utility guarantees of the "
                "aggregation sessions assume epsilon <= log(1/delta)",
                stacklevel=2,
            )


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Wrap a seed (or pass through an existing generator)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(master: int, index: int) -> int:
    """Per-subtask seed from a master seed and a subtask index.

    Splitmix-style 64-bit finalizer over master XOR index, so serial and
    parallel trial execution construct identical generators.
    """
    z = (master ^ index) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def sample_laplace(
    scale: float, rng: np.random.Generator, size: int | None = None
):
    """Zero-mean Laplace draw(s) with the given scale.

    Inverse-CDF transform of a single uniform per draw, so the stream is
    fully determined by the generator state.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    u = rng.random(size) - 0.5
    # u = -0.5 would hit log(0); probability ~2^-53, clamped for safety
    interior = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny)
    out = -scale * np.sign(u) * np.log(interior)
    return float(out) if size is None else out


def sample_gaussian(
    sigma: float, rng: np.random.Generator, size: int | None = None
):
    """N(0, sigma^2) draw(s)."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    out = rng.normal(0.0, sigma, size)
    return float(out) if size is None else out


def _check_ell(ell: int) -> None:
    if ell != int(ell) or ell < 1:
        raise ValueError(f"query count must be a positive integer, got {ell}")


def gaussian_epsilon(answers: int, sigma: float, delta: float) -> float:
    """Epsilon, at this delta, of `answers` sensitivity-1 Gaussian releases.

    Their zCDP cost rho = answers / (2 sigma^2) composes additively and
    converts to (rho + 2*sqrt(rho*log(1/delta)), delta)-DP.
    """
    if answers < 0 or answers != int(answers):
        raise ValueError("answers must be a nonnegative integer")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    rho = answers / (2.0 * sigma**2)
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def calibrate_gaussian_sigma(ell: int, budget: PrivacyBudget) -> float:
    """Noise scale for answering ell vote-count queries within the budget.

    Closed-form solution of gaussian_epsilon(ell, sigma, delta) = epsilon,

        sqrt(2*ell*log(1/delta)) / sigma + ell / (2*sigma^2) = epsilon.

    A residual back-substitution guards the algebra. If rounding puts the
    cost of ell answers, as a session reports it, above epsilon, sigma is
    raised one ulp at a time until it is not.
    """
    _check_ell(ell)
    eps, delta = budget.epsilon, budget.delta
    a = 2.0 * ell * math.log(1.0 / delta)
    sigma = (math.sqrt(a) + math.sqrt(a + 2.0 * eps * ell)) / (2.0 * eps)
    residual = abs(gaussian_epsilon(ell, sigma, delta) - eps) / eps
    if residual > 1e-9:
        raise ArithmeticError(
            f"calibration residual {residual:.3e} exceeds 1e-9"
        )
    while gaussian_epsilon(ell, sigma, delta) > eps:
        sigma = math.nextafter(sigma, math.inf)
    return sigma


def calibrate_svt(ell: int, T: int, budget: PrivacyBudget) -> tuple[float, float]:
    """Laplace scale lambda and release threshold w of a stable-release
    session answering ell queries with unstable cutoff T.

    lambda makes the T threshold crossings cost (epsilon, delta/2)-DP,
    leaving delta/2 for the stable-release failure event. w is high
    enough that, over ell queries and T refreshes, every Laplace
    perturbation stays below w/3 except with probability delta.
    """
    _check_ell(ell)
    _check_ell(T)
    eps, delta = budget.epsilon, budget.delta
    a = math.log(2.0 / delta)
    lam = (math.sqrt(2.0 * T * (eps + a)) + math.sqrt(2.0 * T * a)) / eps
    return lam, 3.0 * lam * math.log(2.0 * (ell + T) / delta)
