"""The exact version-space learner over an explicit finite class.

`FiniteClassDescriptor` drives privote's active loop,
`run_active_learning`, with an exact version space over a
`FiniteHypothesisClass`, such as the thresholds of `threshold_class`.
Acceptance criterion 8 checks the loop's label savings with it. No trial
runs it, so it lives beside the oracles that check it rather than in the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from privote.learners import _is_binary
from privote.pipelines import ActiveState


@dataclass
class FiniteHypothesisClass:
    """Explicit class over a finite domain: one row of labels per member.

    `by_point` holds the same labels domain-major (row x is every
    member's label of point x), so that reading one point, or a sample
    of points, reads contiguous memory. It is a view when `labels` is the
    transpose of a C-ordered array, as `threshold_class` builds it, and a
    copy otherwise; `labels` must not be modified afterwards.
    """

    labels: np.ndarray
    by_point: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2 or self.labels.shape[0] < 1:
            raise ValueError("labels must be a nonempty members-by-domain matrix")
        if not _is_binary(self.labels):
            raise ValueError("labels must be 0 or 1")
        self.labels = self.labels.astype(np.int8, copy=False)
        self.by_point = np.ascontiguousarray(self.labels.T)

    @property
    def n_members(self) -> int:
        return self.labels.shape[0]

    def mistake_counts(self, xs, ys) -> np.ndarray:
        """Per-member number of errors on a sample of (domain index, label);
        zeros on an empty sample."""
        xs = np.asarray(xs)
        if not xs.size:
            xs = xs.astype(np.intp)  # `[]` reads as floats
        return (self.by_point[xs].T != np.asarray(ys)).sum(axis=1)


def threshold_class(points) -> FiniteHypothesisClass:
    """All (n+1) threshold classifiers 1(x >= t) restricted to these points.

    Member k predicts 1 exactly on the k-th and later points in sorted
    order, so member 0 is all-ones and member n is all-zeros. Domain
    indices follow the input order of `points`.
    """
    xs = np.asarray(points, dtype=float)
    n = len(xs)
    if n < 1:
        raise ValueError("need at least one point")
    ranks = np.argsort(np.argsort(xs, kind="stable"), kind="stable")
    # member k labels point i with 1 iff rank(i) >= k
    members = np.arange(n + 1)
    # built domain-major, so that `by_point` needs no transposing copy
    by_point = (ranks[:, None] >= members[None, :]).astype(np.int8)
    return FiniteHypothesisClass(by_point.T)


@dataclass
class FiniteState(ActiveState):
    """An active-learning run's state with its version space."""

    alive: np.ndarray | None = None  # version-space mask over the members


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

    def init_state(self) -> FiniteState:
        alive = np.ones(self.hclass.n_members, dtype=bool)
        return FiniteState(descriptor=self, hypothesis=0, alive=alive)

    def disagreement(self, state: FiniteState, x, slack: float) -> bool:
        col = self.hclass.by_point[int(x)][state.alive]
        return bool(col.min() != col.max())

    def update(self, state: FiniteState, j: int) -> None:
        gamma_j = self.gamma / math.log2(2 * j) ** 2
        mistakes = self.hclass.mistake_counts(state.xs, state.ys)
        best = int(mistakes[state.alive].min())
        # log(theta) + log(1/gamma_j) at VC dimension 1 and theta = 2
        base = math.log(2.0) + math.log(1.0 / gamma_j)
        tolerance = base + math.sqrt(best * base)
        state.alive &= mistakes - best <= tolerance
        self.refit(state)

    def refit(self, state: FiniteState) -> None:
        mistakes = self.hclass.mistake_counts(state.xs, state.ys).astype(float)
        mistakes[~state.alive] = np.inf
        state.hypothesis = int(np.argmin(mistakes))
