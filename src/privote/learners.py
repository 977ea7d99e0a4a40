"""Hypotheses, ERM training, ensembles, and vote-margin reports.

Linear models with sparse features carry the real-data experiments; an
explicit finite hypothesis class backs the counterexample fixtures and the
exact version-space machinery.

All linear training goes through one accelerated-descent loop (Nesterov
momentum). A committee's K disjoint shards are stacked into one
block-diagonal sparse matrix, so each step scores and differentiates
every teacher with one pass over all rows; a lone fit (`train_erm`) is
the one-block case. The design is built once per fit; a teacher that
converges early keeps the point of its stop step while the others go on.
Each member comes out bit-for-bit equal to a separate fit of its shard,
so batching changes no seeded output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

__all__ = [
    "Dataset",
    "LinearHypothesis",
    "TrainerSettings",
    "Ensemble",
    "FiniteHypothesisClass",
    "threshold_class",
    "split_disjoint",
    "train_erm",
    "train_erm_batch",
    "empirical_error",
    "train_committee",
    "margin_distribution_report",
]


def _as_csr(X) -> sp.csr_matrix:
    if sp.issparse(X):
        return X.tocsr()
    arr = np.atleast_2d(np.asarray(X, dtype=float))
    return sp.csr_matrix(arr)


def _is_binary(a: np.ndarray) -> bool:
    """Whether every entry equals 0 or 1.

    Accepts exactly what `np.isin(a, (0, 1)).all()` accepts, without the
    index arrays np.isin builds for integer input.
    """
    return bool(((a == 0) | (a == 1)).all())


@dataclass
class Dataset:
    """Sparse feature matrix plus optional binary labels.

    Unlabeled datasets (y is None) represent student pools; labels live in
    {0, 1}.
    """

    X: sp.csr_matrix
    y: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.X = _as_csr(self.X)
        if self.y is not None:
            self.y = np.asarray(self.y)
            if self.y.shape != (self.X.shape[0],):
                raise ValueError(
                    f"labels shape {self.y.shape} does not match "
                    f"{self.X.shape[0]} examples"
                )
            if not _is_binary(self.y):
                raise ValueError("labels must be 0 or 1")
            self.y = self.y.astype(np.int64)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def labeled(self) -> bool:
        return self.y is not None

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        y = None if self.y is None else self.y[idx]
        return Dataset(self.X[idx], y)

    def without_labels(self) -> "Dataset":
        return Dataset(self.X, None)

    def with_labels(self, y) -> "Dataset":
        return Dataset(self.X, np.asarray(y))


@dataclass
class LinearHypothesis:
    """Halfspace classifier: predicts 1 iff w.x + b >= 0."""

    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1:
            raise ValueError("weights must be a vector")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)):
            raise ValueError("weights and bias must be finite")

    def decision(self, X) -> np.ndarray:
        return np.asarray(_as_csr(X) @ self.weights + self.bias).ravel()

    def predict(self, X) -> np.ndarray:
        return (self.decision(X) >= 0.0).astype(np.int64)


@dataclass(frozen=True)
class TrainerSettings:
    """Accelerated full-batch descent settings for the logistic surrogate.

    The default 50 steps serve the student and the active loop's refits;
    the committee trains with `COMMITTEE_SETTINGS` and the active probes
    with `LinearClassDescriptor.probe_settings`.
    """

    max_iter: int = 50
    l2: float = 0.0
    grad_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")


# what `train_committee` trains each teacher with unless told otherwise
COMMITTEE_SETTINGS = TrainerSettings(max_iter=100)


def train_erm(
    data: Dataset,
    settings: TrainerSettings | None = None,
    sample_weight: np.ndarray | None = None,
    init: LinearHypothesis | None = None,
) -> LinearHypothesis:
    """Logistic-loss approximation of the 0-1 empirical risk minimizer.

    Full-batch accelerated descent (Nesterov momentum k/(k+3) at step k)
    from zero initialization (or from `init`) with step 1/L, where L
    bounds the logistic smoothness on this data. The loss need not fall
    at every step, but after k steps it is within 2L||x_0 - x*||^2/(k+1)^2
    of its minimum. The fit draws no randomness. This is the one-block
    case of the loop that trains a whole committee (see
    `train_erm_batch`), so a lone fit and a committee member on the same
    rows are bit-for-bit equal.
    """
    return train_erm_batch([data], settings, [sample_weight], [init])[0]


@dataclass
class _BlockDesign:
    """Labeled blocks stacked into one block-diagonal design.

    Block i's rows hold its features in columns i*d..(i+1)*d, so `X @ w`
    scores each row against its own block's weights and `XT @ coef`
    gives each block's weight gradient. Within a row the nonzeros keep
    their order, so the sparse kernels add the same terms in the same
    order as they would on that block alone.
    """

    X: sp.csr_matrix
    XT: sp.csc_matrix
    signs: np.ndarray
    signed_wts: np.ndarray
    # (first row, first block, blocks, rows per block) of each run of
    # consecutive equal-size blocks
    runs: list[tuple[int, int, int, int]]
    step: np.ndarray
    step_cols: np.ndarray

    @classmethod
    def stack(cls, blocks: list[Dataset], weights: list[np.ndarray], l2: float):
        d = blocks[0].n_features
        if len(blocks) == 1:
            X = blocks[0].X
        else:
            indptr, indices, values = [np.zeros(1, dtype=np.int64)], [], []
            nnz = 0
            for i, blk in enumerate(blocks):
                lo, hi = blk.X.indptr[0], blk.X.indptr[-1]
                indptr.append(blk.X.indptr[1:] - lo + nnz)
                indices.append(blk.X.indices[lo:hi] + i * d)
                values.append(blk.X.data[lo:hi])
                nnz += hi - lo
            X = sp.csr_matrix(
                (np.concatenate(values), np.concatenate(indices), np.concatenate(indptr)),
                shape=(sum(len(blk) for blk in blocks), len(blocks) * d),
            )
        sizes = np.array([len(blk) for blk in blocks])
        starts = np.cumsum(sizes) - sizes
        # smoothness bound per block: rows augmented with the bias coordinate
        row_sq = np.asarray(X.multiply(X).sum(axis=1)).ravel() + 1.0
        step = 1.0 / (0.25 * np.maximum.reduceat(row_sq, starts) + l2)
        runs = []
        for i, (lo, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
            if runs and runs[-1][3] == size:
                runs[-1][2] += 1
            else:
                runs.append([lo, i, 1, size])
        signs = 2.0 * np.concatenate([blk.y for blk in blocks]) - 1.0
        return cls(
            X=X,
            XT=X.T,
            signs=signs,
            signed_wts=np.concatenate(weights) * signs,
            runs=[tuple(run) for run in runs],
            step=step,
            step_cols=np.repeat(step, d),
        )

    def add_block_values(self, v: np.ndarray, c: np.ndarray) -> None:
        """Add c[i] to every row of block i, in place."""
        for lo, first, count, size in self.runs:
            rows = v[lo : lo + count * size].reshape(count, size)
            rows += c[first : first + count, None]

    def block_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-block sums of a row vector, each rounded as `v[lo:hi].sum()`.

        A run of equal-size blocks is summed as the rows of a 2-D view:
        numpy sums each contiguous row pairwise, exactly as it sums the
        1-D slice, so one call serves the run.
        """
        sums = [
            v[lo : lo + count * size].reshape(count, size).sum(axis=1)
            for lo, _, count, size in self.runs
        ]
        return sums[0] if len(sums) == 1 else np.concatenate(sums)


def train_erm_batch(
    blocks: list[Dataset],
    settings: TrainerSettings | None = None,
    sample_weights: list | None = None,
    inits: list | None = None,
) -> list[LinearHypothesis]:
    """`train_erm` of every block, all in one accelerated-descent loop.

    Block k is fit with `sample_weights[k]` and warm-started from
    `inits[k]` (either list may be None, as may its entries). Each block
    is its own logistic-regression problem with its own step 1/L_k and
    its own `grad_tol` stop. Step k (from 0) takes the gradient at the
    extrapolated point y = x_k + beta_k (x_k - x_{k-1}), with
    beta_k = k/(k+3) and x_{-1} = x_0, and moves to
    x_{k+1} = y - g(y)/L_k (Nesterov 1983; Beck & Teboulle 2009). The
    block-diagonal design and its transpose are built once per call, and
    every step makes one product with each. A block whose gradient norm
    at y falls below `grad_tol` has y recorded as its weights and bias.
    It stays in the design, where no other block sees it, and the loop
    ends once every block has stopped, or after `max_iter` steps with
    x_{max_iter}.

    The result equals a separate fit of each block bit for bit: every
    floating-point operation that reaches the weights is the one a lone
    fit would make, in the same order. Two places need care. A block's
    bias gradient is numpy's pairwise sum over its contiguous slice
    (np.add.reduceat rounds differently; see `_BlockDesign.block_sums`).
    And the stop test confirms with np.dot every norm that an einsum
    pre-filter puts within 2x of `grad_tol`, because einsum also rounds
    differently in the last place.
    """
    if settings is None:
        settings = TrainerSettings()
    K = len(blocks)
    sample_weights = sample_weights or [None] * K
    inits = inits or [None] * K
    d = blocks[0].n_features
    W = np.zeros((K, d))
    b = np.zeros(K)
    wts = []
    for k, (data, weight, init) in enumerate(zip(blocks, sample_weights, inits)):
        if len(data) == 0:
            raise ValueError("cannot train on an empty dataset")
        if not data.labeled:
            raise ValueError("training data must be labeled")
        n = len(data)
        if weight is None:
            wts.append(np.full(n, 1.0 / n))
        else:
            weight = np.asarray(weight, dtype=float)
            if weight.shape != (n,) or (weight < 0).any() or weight.sum() <= 0:
                raise ValueError("sample_weight must be nonnegative with positive sum")
            wts.append(weight / weight.sum())
        if init is not None:
            if init.weights.shape != (d,):
                raise ValueError("warm-start hypothesis has the wrong dimension")
            W[k] = init.weights
            b[k] = init.bias

    l2, tol = settings.l2, settings.grad_tol
    design = _BlockDesign.stack(blocks, wts, l2)
    # (w, c) is x_k and (w_prev, c_prev) is x_{k-1}; W and b keep each
    # converged block's point from its stop step
    w, c = W.flatten(), b.copy()
    w_prev, c_prev = w.copy(), c.copy()
    done = np.zeros(K, dtype=bool)
    for k in range(settings.max_iter):
        # the extrapolated point y = x + beta * (x - x_prev), built in
        # x_prev's buffer, which then takes x_{k+1}
        beta = k / (k + 3)
        yw = np.subtract(w, w_prev, out=w_prev)
        yw *= beta
        yw += w
        yc = np.subtract(c, c_prev, out=c_prev)
        yc *= beta
        yc += c
        scores = design.X @ yw
        design.add_block_values(scores, yc)
        scores *= design.signs
        coef = expit(np.negative(scores, out=scores), out=scores)
        coef *= design.signed_wts
        grad_w = design.XT @ coef
        np.negative(grad_w, out=grad_w)
        grad_b = np.negative(design.block_sums(coef))
        # with l2 = 0 the penalty terms could only flip the sign of a zero
        # gradient, which leaves every weight update unchanged
        if l2:
            grad_w += l2 * yw
            grad_b += l2 * yc
        G = grad_w.reshape(-1, d)
        near = np.sqrt(np.einsum("ij,ij->i", G, G) + grad_b * grad_b) < 2.0 * tol
        if near.any():
            for i in np.flatnonzero(near & ~done):
                if np.sqrt(np.dot(G[i], G[i]) + grad_b[i] * grad_b[i]) < tol:
                    done[i] = True
                    W[i] = yw[i * d : (i + 1) * d]
                    b[i] = yc[i]
            if done.all():
                break
        grad_w *= design.step_cols
        yw -= grad_w
        grad_b *= design.step
        yc -= grad_b
        w_prev, w = w, yw
        c_prev, c = c, yc
    W[~done] = w.reshape(-1, d)[~done]
    b[~done] = c[~done]
    return [LinearHypothesis(W[k], float(b[k])) for k in range(K)]


def empirical_error(h, data: Dataset) -> float:
    """Fraction of labeled examples the hypothesis gets wrong."""
    if len(data) == 0:
        raise ValueError("empirical error of an empty dataset is undefined")
    if not data.labeled:
        raise ValueError("empirical error needs labels")
    return float(np.mean(h.predict(data.X) != data.y))


def split_disjoint(
    data: Dataset, K: int, rng: np.random.Generator
) -> list[Dataset]:
    """Random partition into K parts with sizes differing by at most one."""
    n = len(data)
    if K < 1 or K != int(K):
        raise ValueError("K must be a positive integer")
    if K > n:
        raise ValueError(f"cannot split {n} examples into {K} parts")
    perm = rng.permutation(n)
    base, rem = divmod(n, K)
    parts = []
    start = 0
    for k in range(K):
        size = base + (1 if k < rem else 0)
        parts.append(data.subset(perm[start : start + size]))
        start += size
    return parts


@dataclass
class Ensemble:
    """A committee of linear hypotheses combined by majority vote."""

    members: list[LinearHypothesis]

    def __post_init__(self) -> None:
        if len(self.members) < 1:
            raise ValueError("an ensemble needs at least one member")

    @property
    def size(self) -> int:
        return len(self.members)

    def vote_ones(self, X) -> np.ndarray:
        """Number of members voting 1 at each row of X."""
        W = np.stack([m.weights for m in self.members], axis=1)
        b = np.array([m.bias for m in self.members])
        scores = np.asarray(_as_csr(X) @ W) + b
        return (scores >= 0.0).sum(axis=1).astype(np.int64)


def train_committee(
    data: Dataset,
    K: int,
    rng: np.random.Generator,
    settings: TrainerSettings = COMMITTEE_SETTINGS,
) -> Ensemble:
    """K linear fits on disjoint random splits, combined by majority.

    All K fits run in one accelerated-descent loop over the block-diagonal
    stack of the splits; each member equals `train_erm` on its split bit
    for bit.
    """
    return Ensemble(train_erm_batch(split_disjoint(data, K, rng), settings))


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

    @property
    def domain_size(self) -> int:
        return self.labels.shape[1]

    def mistake_counts(self, xs, ys) -> np.ndarray:
        """Per-member number of errors on a sample of (domain index, label)."""
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        return (self.by_point[xs].T != ys).sum(axis=1)

    def erm(self, xs, ys, rng: np.random.Generator) -> int:
        """Index of an empirical-risk minimizer, uniform over the argmin set."""
        counts = self.mistake_counts(xs, ys)
        priority = rng.random(self.n_members)
        best = counts == counts.min()
        cand = np.flatnonzero(best)
        return int(cand[np.argmin(priority[cand])])


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


# ---------------------------------------------------------------------------
# Vote-margin reports
#
# A "distribution" here is any object with
#   sample_xy(n, rng) -> (xs, ys)          a fresh labeled sample
#   fit(xs, ys, rng)  -> callable          a teacher trained on that sample
#   probe_points(count, rng) -> xs          fresh probe inputs
#   optimal_labels(xs) -> np.ndarray        reference-classifier labels
# Probes use the distribution's native batch form (index arrays for finite
# domains, row matrices for feature vectors).


def _probe_means(dist, n: int, probes, reps: int, rng) -> np.ndarray:
    """Mean prediction at each probe over `reps` freshly trained teachers."""
    if reps < 1:
        raise ValueError("reps must be positive")
    total = None
    for _ in range(reps):
        xs, ys = dist.sample_xy(n, rng)
        teacher = dist.fit(xs, ys, rng)
        preds = np.asarray(teacher(probes), dtype=float)
        total = preds if total is None else total + preds
    return total / reps


def margin_distribution_report(
    source,
    K: int,
    probe_count: int,
    reps: int,
    rng: np.random.Generator,
    n_per_teacher: int = 100,
) -> list[dict]:
    """Per-probe margin estimates for histogramming.

    For each probe x, two independent teacher pools of size K*reps estimate
    delta_hat = |P(teacher(x)=1) - 1/2| and delta_hstar = |P(teacher(x) !=
    reference(x)) - 1/2|, where the reference is the source's optimal
    classifier (its labels, for dataset-backed sources). Returns rows of
    {probe_id, delta_hat, delta_hstar}.
    """
    if isinstance(source, Dataset):
        return _dataset_margin_report(source, K, probe_count, reps, rng)
    probes = source.probe_points(probe_count, rng)
    ref = np.asarray(source.optimal_labels(probes), dtype=float)
    means_a = _probe_means(source, n_per_teacher, probes, K * reps, rng)
    means_b = _probe_means(source, n_per_teacher, probes, K * reps, rng)
    disagree = np.abs(means_b - ref)  # mean of 1(pred != ref) per probe
    return [
        {
            "probe_id": int(i),
            "delta_hat": float(abs(means_a[i] - 0.5)),
            "delta_hstar": float(abs(disagree[i] - 0.5)),
        }
        for i in range(len(means_a))
    ]


def _dataset_margin_report(
    data: Dataset, K: int, probe_count: int, reps: int, rng
) -> list[dict]:
    if not data.labeled:
        raise ValueError("dataset-backed margin reports need labels")
    if probe_count >= len(data):
        raise ValueError("probe pool must be smaller than the dataset")
    perm = rng.permutation(len(data))
    probe_idx, train_idx = perm[:probe_count], perm[probe_count:]
    probes = data.subset(probe_idx)
    train = data.subset(train_idx)
    votes_a = np.zeros(probe_count)
    votes_b = np.zeros(probe_count)
    total = 0
    for _ in range(reps):
        for goal in (votes_a, votes_b):
            ens = train_committee(train, K, rng)
            goal += ens.vote_ones(probes.X)
        total += K
    mean_a = votes_a / total
    mean_b = votes_b / total
    # P(member != y): members vote 1 a fraction mean_b of the time
    disagree = np.where(probes.y == 1, 1.0 - mean_b, mean_b)
    return [
        {
            "probe_id": int(i),
            "delta_hat": float(abs(mean_a[i] - 0.5)),
            "delta_hstar": float(abs(disagree[i] - 0.5)),
        }
        for i in range(probe_count)
    ]
