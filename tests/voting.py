"""The two voting counterexamples behind acceptance criteria 2 and 3.

`VotingFailsFixture` is a four-point domain where a majority of exact
ERMs is much worse than any one of them; `gen_voting_wins` simulates
teachers that each beat chance by a fixed margin at every point, so their
majority's error decays like exp(-2 K xi^2). Neither runs in a trial, so
they live beside the oracles that check them rather than in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from privote import make_rng


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
    def true_labels(self) -> np.ndarray:
        return np.ones(4, dtype=np.int64)

    def member_error(self, member: int) -> float:
        return float(np.mean(self.member_labels[member] != self.true_labels))

    def exact_majority(self) -> np.ndarray:
        ones = self.member_labels.sum(axis=0)
        return (2 * ones >= self.member_labels.shape[0]).astype(np.int64)

    def majority_error(self) -> float:
        return float(np.mean(self.exact_majority() != self.true_labels))

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
        # member m errs exactly where its row is 0 (true labels are all 1)
        wrong = self.member_labels == 0
        errs = np.empty(reps)
        for r in range(reps):
            counts = rng.multinomial(n_per_teacher, [0.25] * 4, size=K)
            mistakes = (counts @ wrong.T).astype(float)
            mistakes += rng.random(mistakes.shape)  # uniform tie-break
            winners = np.argmin(mistakes, axis=1)
            ones = self.member_labels[winners].sum(axis=0)
            majority = (2 * ones >= K).astype(np.int64)
            errs[r] = np.mean(majority != self.true_labels)
        return float(errs.mean())


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


def gen_voting_wins(
    xi: float, domain_size: int, rng: np.random.Generator
) -> VotingWinsGenerator:
    """Uniform-margin teacher simulator over a random binary ground truth."""
    if domain_size < 1:
        raise ValueError("domain_size must be positive")
    rng = make_rng(rng)
    truth = rng.integers(0, 2, size=domain_size).astype(np.int64)
    return VotingWinsGenerator(xi, truth)
