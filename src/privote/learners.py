"""Hypotheses, ERM training, ensembles, and vote-margin reports.

Linear models with sparse features carry the real-data experiments; an
explicit finite hypothesis class backs the counterexample fixtures and the
exact version-space machinery.

All linear training goes through one accelerated-descent loop (Nesterov
momentum). A committee's K disjoint shards are one row permutation of
the teacher pool, laid out as one block-diagonal sparse matrix with a
bias column per block, so each step scores and differentiates every
teacher with one pass over all rows; a lone fit (`train_erm`) is the
one-block case. The design is built once per fit as raw CSR arrays, and
each step runs scipy's `csr_matvec` and `csc_matvec` kernels on them
into buffers allocated once per fit; a teacher that converges early
keeps the point of its stop step while the others go on. Each member
comes out bit-for-bit equal to a separate fit of its shard, so batching
changes no seeded output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

# private to scipy, whose `X @ v` is np.zeros then one of these calls; used to
# skip ~7 us of dispatch per product (test_matvec_equals_scipy_products pins them)
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

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
        # scipy leaves column indices unchecked; the kernels would run past arrays
        cols, d = self.X.indices, self.X.shape[1]
        if self.X.nnz and not 0 <= cols.min() <= cols.max() < d:
            raise ValueError(f"column indices must lie in [0, {d})")
        # the step bound squares stored entries one by one, which is right
        # only without duplicates, and skips zeros as X.multiply(X) did
        if not (self.X.has_canonical_format and self.X.data.all()):
            self.X = self.X.copy()
            self.X.sum_duplicates()
            self.X.eliminate_zeros()
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


def _matvec(shape, csr, v, out, transpose=False):
    """scipy's `X @ v` (`X.T @ v` if transpose) into out, bit for bit, where
    X is the CSR of this shape whose (indptr, indices, data) are csr."""
    out.fill(0.0)
    if transpose:
        csc_matvec(shape[1], shape[0], *csr, v, out)
    else:
        csr_matvec(shape[0], shape[1], *csr, v, out)


@dataclass
class _BlockDesign:
    """Labeled blocks of rows as one block-diagonal design.

    Block i owns the d + 1 columns from i*(d+1): its features, then a
    bias column of ones that ends each of its rows. The design is its
    shape and raw CSR arrays of one index dtype; no scipy matrix. Rows
    keep their entries' order, so `_matvec` of x adds the same terms in
    the same order as a lone fit's `X @ w + b`, the bias last, and the
    transposed `_matvec` of coef gives each block's weight gradient; its
    bias entries are sums in row order, which `descend` replaces with
    pairwise ones. The labels' signs enter negated, so that product is
    the gradient itself: negation commutes with IEEE rounding.
    """

    shape: tuple[int, int]
    csr: tuple[np.ndarray, np.ndarray, np.ndarray]  # indptr, indices, data
    neg_signs: np.ndarray
    neg_wts: np.ndarray
    # (first block, first row, blocks, rows per block) of each equal-size run
    runs: list[tuple[int, int, int, int]]
    step_cols: np.ndarray

    @classmethod
    def build(cls, mats, sizes: np.ndarray, y, wts, l2: float):
        """The design of equally wide canonical CSRs whose rows, one after
        another, are block 0's sizes[0] rows, then block 1's, and so on;
        y and wts follow the rows."""
        ptr, cols, vals = _row_arrays(mats)
        n, d, nnz, K = len(ptr) - 1, mats[0].shape[1], len(vals), len(sizes)
        counts = np.diff(ptr)
        starts = np.cumsum(sizes) - sizes
        # smoothness bound per block, rows augmented with the bias coordinate;
        # squares summed by reduceat, as X.multiply(X).sum(axis=1) sums them
        row_sq = np.ones(n)
        filled = np.flatnonzero(counts)
        row_sq[filled] += np.add.reduceat(vals * vals, ptr[filled])
        step = 1.0 / (0.25 * np.maximum.reduceat(row_sq, starts) + l2)
        # row r's entries move r places on, and its bias entry follows them
        first_col = np.arange(K).repeat(sizes) * (d + 1)
        row_of = np.arange(n).repeat(counts)
        at = row_of + np.arange(nnz)
        # 32-bit where they fit, as scipy would cast them anyway
        index_type = np.int32 if max(nnz + n, K * (d + 1)) < 2**31 else np.int64
        indptr = (ptr + np.arange(n + 1)).astype(index_type)
        indices = np.empty(nnz + n, dtype=index_type)
        indices[at] = cols + first_col[row_of]
        indices[indptr[1:] - 1] = first_col + d
        data = np.ones(nnz + n)
        data[at] = vals
        firsts = np.flatnonzero(np.diff(sizes, prepend=0))
        runs = zip(firsts, starts[firsts], np.diff(firsts, append=K), sizes[firsts])
        neg_signs = 1.0 - 2.0 * y
        return cls(
            shape=(n, K * (d + 1)),
            csr=(indptr, indices, data),
            neg_signs=neg_signs,
            neg_wts=wts * neg_signs,
            runs=[tuple(map(int, run)) for run in runs],
            step_cols=step.repeat(d + 1),
        )

    def descend(self, W: np.ndarray, settings: TrainerSettings):
        """The fits from the rows of W, each a block's weights, then its
        bias; W ends up holding the final points."""
        K, width = W.shape
        d = width - 1
        l2, tol = settings.l2, settings.grad_tol
        # x is x_k and x_prev is x_{k-1}; W keeps each converged block's
        # point from its stop step
        x = W.flatten()
        x_prev = x.copy()
        scores = np.empty(self.shape[0])
        grad = np.empty(self.shape[1])
        G = grad.reshape(K, width)
        # a run of equal-size blocks sums its coefficients as the rows of a
        # 2-D view into its bias gradients: numpy sums each contiguous row
        # pairwise, exactly as it sums the 1-D slice coef[lo:hi]
        bias_sums = [
            (scores[lo : lo + count * size].reshape(count, size), G[i : i + count, d])
            for i, lo, count, size in self.runs
        ]
        done = np.zeros(K, dtype=bool)
        for k in range(settings.max_iter):
            # the extrapolated point y = x + beta * (x - x_prev), built in
            # x_prev's buffer, which then takes x_{k+1}
            beta = k / (k + 3)
            y = np.subtract(x, x_prev, out=x_prev)
            y *= beta
            y += x
            _matvec(self.shape, self.csr, y, scores)
            scores *= self.neg_signs
            coef = expit(scores, out=scores)
            coef *= self.neg_wts
            _matvec(self.shape, self.csr, coef, grad, transpose=True)
            for rows, sums in bias_sums:
                np.add.reduce(rows, axis=1, out=sums)
            # with l2 = 0 the penalty term could only flip the sign of a
            # zero gradient, which leaves every update unchanged
            if l2:
                grad += l2 * y
            near = np.sqrt(np.einsum("ij,ij->i", G, G)) < 2.0 * tol
            if near.any():
                for i in np.flatnonzero(near & ~done):
                    g = G[i, :d]
                    if np.sqrt(np.dot(g, g) + G[i, d] * G[i, d]) < tol:
                        done[i] = True
                        W[i] = y[i * width : (i + 1) * width]
                if done.all():
                    break
            grad *= self.step_cols
            y -= grad
            x_prev, x = x, y
        W[~done] = x.reshape(K, width)[~done]
        return [LinearHypothesis(W[k, :d], float(W[k, d])) for k in range(K)]


def _row_arrays(mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """indptr, indices and data of the rows of CSRs, one after another."""
    if len(mats) == 1:
        return mats[0].indptr, mats[0].indices, mats[0].data
    starts = np.cumsum([0] + [m.nnz for m in mats])
    ends = [m.indptr[1:] + lo for m, lo in zip(mats, starts)]
    indptr = np.concatenate([np.zeros(1, dtype=starts.dtype), *ends])
    indices = np.concatenate([m.indices for m in mats])
    return indptr, indices, np.concatenate([m.data for m in mats])


def _stack_rows(mats) -> sp.csr_matrix:
    """The rows of equally wide matrices, one after another, as one CSR."""
    mats = [_as_csr(m) for m in mats]
    if len(mats) == 1:
        return mats[0]
    indptr, indices, data = _row_arrays(mats)
    shape = (len(indptr) - 1, mats[0].shape[1])
    return sp.csr_matrix((data, indices, indptr), shape=shape)


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
    iterate is one vector of each block's weights and then its bias, the
    columns of the `_BlockDesign` built once per call straight from the
    blocks' CSR arrays. Every step runs scipy's `csr_matvec` kernel for
    the product with the design and `csc_matvec` for the one with its
    transpose, each into a buffer allocated once per call and zeroed
    before the kernel adds into it. A block whose gradient norm at y
    falls below `grad_tol` has y recorded as its weights and bias. It
    stays in the design, where no other block sees it, and the loop ends
    once every block has stopped, or after `max_iter` steps with
    x_{max_iter}.

    The result equals a separate fit of each block bit for bit: every
    floating-point operation that reaches the weights is the one a lone
    fit would make, in the same order. Three places need care. A block's
    bias gradient is numpy's pairwise sum over its contiguous slice,
    taken through 2-D views built once per call (np.add.reduceat rounds
    differently; see `_BlockDesign.descend`), while L_k sums each row's
    squares with reduceat. And the stop test confirms with np.dot every
    norm that an einsum pre-filter puts within 2x of `grad_tol`, because
    einsum rounds differently too.
    """
    if settings is None:
        settings = TrainerSettings()
    K = len(blocks)
    sample_weights = sample_weights or [None] * K
    inits = inits or [None] * K
    d = blocks[0].n_features
    W = np.zeros((K, d + 1))
    wts = []
    for k, (data, weight, init) in enumerate(zip(blocks, sample_weights, inits)):
        if len(data) == 0:
            raise ValueError("cannot train on an empty dataset")
        if not data.labeled:
            raise ValueError("training data must be labeled")
        if data.n_features != d:
            raise ValueError(f"block {k} has {data.n_features} features, block 0 {d}")
        n = len(data)
        if weight is None:
            wts.append(np.full(n, 1.0 / n))
        else:
            weight = np.asarray(weight, dtype=float)
            total = weight.sum()
            # a NaN or inf weight makes the sum NaN or inf
            if weight.shape != (n,) or (weight < 0).any() or not 0 < total < np.inf:
                raise ValueError("sample_weight must be nonnegative with positive sum")
            wts.append(weight / total)
        if init is not None:
            if init.weights.shape != (d,):
                raise ValueError("warm-start hypothesis has the wrong dimension")
            W[k, :d] = init.weights
            W[k, d] = init.bias
    mats = [data.X for data in blocks]
    sizes = np.array([len(data) for data in blocks])
    y = np.concatenate([data.y for data in blocks])
    design = _BlockDesign.build(mats, sizes, y, np.concatenate(wts), settings.l2)
    return design.descend(W, settings)


def empirical_error(h, data: Dataset) -> float:
    """Fraction of labeled examples the hypothesis gets wrong."""
    if len(data) == 0:
        raise ValueError("empirical error of an empty dataset is undefined")
    if not data.labeled:
        raise ValueError("empirical error needs labels")
    return float(np.mean(h.predict(data.X) != data.y))


def _part_sizes(n: int, K: int) -> np.ndarray:
    """The sizes of K parts of n examples, larger first, at most one apart."""
    if K < 1 or K != int(K):
        raise ValueError("K must be a positive integer")
    if K > n:
        raise ValueError(f"cannot split {n} examples into {K} parts")
    sizes = np.full(int(K), n // K)
    sizes[: n % K] += 1
    return sizes


def split_disjoint(data: Dataset, K: int, rng: np.random.Generator) -> list[Dataset]:
    """Random partition into K parts with sizes differing by at most one."""
    sizes = _part_sizes(len(data), K)
    perm = rng.permutation(len(data))
    return [data.subset(part) for part in np.split(perm, np.cumsum(sizes)[:-1])]


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

    The splits are `split_disjoint`'s with the same rng, cut from one
    permutation of the rows; all K fits run in one accelerated-descent
    loop. Each member equals `train_erm` on its split bit for bit.
    """
    sizes = _part_sizes(len(data), K)
    if not data.labeled:
        raise ValueError("training data must be labeled")
    rows = data.subset(rng.permutation(len(data)))
    wts = (1.0 / sizes).repeat(sizes)
    design = _BlockDesign.build([rows.X], sizes, rows.y, wts, settings.l2)
    return Ensemble(design.descend(np.zeros((K, data.n_features + 1)), settings))


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
