"""Private labeling sessions over adaptive vote-count streams.

Three session types answer "what does the ensemble say at x?" queries:

* GaussianSession perturbs every vote count and pays for every answer.
* SvtSession releases the exact majority only when the vote margin clears a
  noisy stability threshold, pays only for threshold crossings, and emits at
  most ``cutoff`` bottom (None) answers over its lifetime.
* ExactSession releases the exact majority with no noise; it is the
  non-private baseline and reports epsilon = inf.

Each session's ``privacy_report()`` is the one place it states its cost.

Sessions are strictly sequential single-owner state machines; the caller
supplies the next query after seeing each answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dp_core import (
    PrivacyBudget,
    calibrate_gaussian_sigma,
    calibrate_svt,
    gaussian_epsilon,
    sample_gaussian,
    sample_laplace,
)

__all__ = [
    "VoteCount",
    "SessionExhausted",
    "ExactSession",
    "GaussianSession",
    "SvtSession",
    "margin",
    "vote_majority",
]


@dataclass(frozen=True)
class VoteCount:
    """Teacher votes at one query point: `ones` of `total` voted for 1."""

    ones: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1 or self.total != int(self.total):
            raise ValueError("total must be a positive integer")
        if not (0 <= self.ones <= self.total) or self.ones != int(self.ones):
            raise ValueError(
                f"ones must lie in [0, total], got {self.ones}/{self.total}"
            )


def margin(votes: VoteCount) -> int:
    """Absolute vote gap |2*ones - total|, a nonnegative integer.

    One vote flip moves the margin by exactly 2, and the parity always
    matches the ensemble size.
    """
    return abs(2 * votes.ones - votes.total)


def distance_to_instability(votes: VoteCount) -> int:
    """Flips the majority output is guaranteed to withstand: max{0, ceil(margin/2)-1}.

    A conservative stability radius with global sensitivity 1 in the
    underlying dataset (one record changes one teacher's vote).
    """
    m = margin(votes)
    return max(0, (m + 1) // 2 - 1)


def vote_majority(votes: VoteCount) -> int:
    """Majority label; exact ties release 1 (the `>= total/2` rule)."""
    return int(votes.ones >= votes.total / 2)


class SessionExhausted(RuntimeError):
    """The session's query budget or unstable cutoff has been consumed."""


class ExactSession:
    """Non-private labeler: every answer is the exact vote majority.

    It draws no noise and has no query budget; its report is
    (epsilon, delta) = (inf, 0).
    """

    def answer(self, votes: VoteCount) -> int:
        return vote_majority(votes)

    def privacy_report(self) -> tuple[float, float]:
        return math.inf, 0.0


class GaussianSession:
    """Budgeted noisy-majority labeler.

    Each answer perturbs the vote count with N(0, sigma^2) and applies the
    majority rule, spending 1/(2 sigma^2) zCDP per query.
    """

    def __init__(
        self,
        sigma: float,
        budget_ell: int,
        delta: float,
        rng: np.random.Generator,
    ) -> None:
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        if budget_ell < 1:
            raise ValueError("budget_ell must be positive")
        if not (0.0 < delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        self.sigma = sigma
        self.budget_ell = int(budget_ell)
        self.delta = delta
        self.answered = 0
        self._rng = rng

    @classmethod
    def for_budget(
        cls, ell: int, budget: PrivacyBudget, rng: np.random.Generator
    ) -> "GaussianSession":
        """Calibrate sigma so that ell answers exactly exhaust the budget."""
        return cls(calibrate_gaussian_sigma(ell, budget), ell, budget.delta, rng)

    def answer(self, votes: VoteCount) -> int:
        if self.answered >= self.budget_ell:
            raise SessionExhausted(
                f"query budget of {self.budget_ell} already spent"
            )
        noise = sample_gaussian(self.sigma, self._rng)
        self.answered += 1
        return int(votes.ones + noise >= votes.total / 2)

    def privacy_report(self) -> tuple[float, float]:
        """Realized (epsilon, delta) for the answers released so far."""
        return gaussian_epsilon(self.answered, self.sigma, self.delta), self.delta


class SvtSession:
    """Stable-release labeler with unstable cutoff.

    Per query, the margin-derived stability distance plus Laplace(2*lambda)
    is compared against a noisy threshold. Above: the exact (noise-free)
    majority label is released. Below: None is emitted, one unit of the
    cutoff is consumed, and the threshold is re-noised. After `cutoff`
    bottom answers the session refuses further queries.

    The privacy cost is fixed by (cutoff, lambda) alone; released answers
    are free, so the report never depends on how many queries were stable.
    """

    def __init__(
        self,
        lam: float,
        w: float,
        cutoff: int,
        budget: PrivacyBudget,
        rng: np.random.Generator,
    ) -> None:
        if not lam > 0:
            raise ValueError("lambda must be positive")
        if not w > 0:
            raise ValueError("w must be positive")
        if cutoff < 1:
            raise ValueError("cutoff must be positive")
        self.lam = lam
        self.w = w
        self.cutoff = int(cutoff)
        self.budget = budget
        self.consumed = 0
        self._rng = rng
        self._noisy_threshold = w + sample_laplace(lam, rng)

    @classmethod
    def for_budget(
        cls,
        ell: int,
        cutoff: int,
        budget: PrivacyBudget,
        rng: np.random.Generator,
    ) -> "SvtSession":
        lam, w = calibrate_svt(ell, cutoff, budget)
        return cls(lam, w, cutoff, budget, rng)

    @property
    def halted(self) -> bool:
        return self.consumed >= self.cutoff

    def answer(self, votes: VoteCount) -> int | None:
        if self.halted:
            raise SessionExhausted(
                f"unstable cutoff of {self.cutoff} already consumed"
            )
        dist = distance_to_instability(votes)
        if dist + sample_laplace(2.0 * self.lam, self._rng) > self._noisy_threshold:
            return vote_majority(votes)
        self.consumed += 1
        if not self.halted:
            # threshold noise is refreshed after every bottom answer; on the
            # final one the session dies first, so no draw is spent
            self._noisy_threshold = self.w + sample_laplace(self.lam, self._rng)
        return None

    def privacy_report(self) -> tuple[float, float]:
        """The budgeted (epsilon, delta); depends only on cutoff and lambda."""
        return self.budget.epsilon, self.budget.delta
