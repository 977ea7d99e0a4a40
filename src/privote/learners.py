"""Hypotheses, ERM training, ensembles, and vote-margin reports.

Every hypothesis is a linear model over sparse features.

All linear training is one accelerated-descent loop (Nesterov momentum),
`_train_columns`, on a `_Rows` layout: rows gathered from a canonical
CSR into blocks, each block in its own columns with a bias column. A
committee's K disjoint shards, cut from one row permutation of the
teacher pool, are the K blocks of one layout, so each step scores and
differentiates every teacher with one pass over all rows; a lone fit
(`train_erm`) is the one-block case. A committee whose layout holds at
least `_SPLIT_ENTRIES` entries, on a host with two usable CPUs, is cut
into two halves of contiguous blocks; a worker thread lays out and
fits the second while the calling thread does the first. Fits that
share their rows and differ in labels, weights or start (the active
learner's probes) are B columns of the iterate over one copy of the
rows. Every fit runs exactly its step count: 70 for a committee
(`COMMITTEE_STEPS`), 35 by default otherwise. Each member or column
comes out bit-for-bit equal to a separate fit of its own rows and
labels, so batching, and the two-part split, change no seeded output.

A probe fits about 50 rows for 10 steps: its cost is calls, not
arithmetic (2-vCPU x86-64, numpy 2.4, scipy 1.17: a sparse kernel call
~2 us, a ufunc ~0.5 us, scipy's `X @ v` ~5 us). So a fit binds scipy's
`csr_matvec` and `csc_matvec` (`csr_matvecs`, `csc_matvecs` for B > 1)
to its raw CSR arrays once (`_kernels`), making a step's two products
one `fill` and two calls, fills labels, weights and starts in place and
checks its result once. The step bound keeps one-vector calls, one per
weight column: multi-vector ones gained nothing on mushrooms-sized
probes and made 20,959-wide ones 12% slower.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

# private to scipy, whose `X @ v` is np.zeros then one of these calls; used to
# skip ~7 us of dispatch per product (test_matvec_equals_scipy_products pins them)
from scipy.sparse._sparsetools import csc_matvec, csc_matvecs, csr_matvec, csr_matvecs

__all__ = [
    "Dataset",
    "LinearHypothesis",
    "Ensemble",
    "train_erm",
    "empirical_error",
    "train_committee",
    "margin_distribution_report",
]


def _as_csr(X) -> sp.csr_matrix:
    if not sp.issparse(X):
        return sp.csr_matrix(np.atleast_2d(np.asarray(X, dtype=float)))
    X = X.tocsr()
    # scipy leaves column indices unchecked; products would run past arrays
    cols, d = X.indices, X.shape[1]
    if X.nnz and not 0 <= cols.min() <= cols.max() < d:
        raise ValueError(f"column indices must lie in [0, {d})")
    return X


def _is_binary(a: np.ndarray) -> bool:
    """Whether every entry equals 0 or 1.

    Accepts exactly what `np.isin(a, (0, 1)).all()` accepts, without the
    index arrays np.isin builds for integer input.
    """
    return bool(np.logical_and.reduce((a == 0) | (a == 1), axis=None))


@dataclass
class Dataset:
    """Sparse matrix of finite feature values plus optional binary labels.

    Unlabeled datasets (y is None) represent student pools; labels live in
    {0, 1}.
    """

    X: sp.csr_matrix
    y: np.ndarray | None = None

    def __post_init__(self) -> None:
        # X with checked columns, sorted within each row, with no duplicate
        # and no stored zero, or X itself when it is one: the step bound
        # squares stored entries, and takes their absolute values, one by
        # one, which is right only without duplicates, and skips zeros as
        # X.multiply(X) did
        self.X = _as_csr(self.X)
        if not (self.X.has_canonical_format and self.X.data.all()):
            self.X = self.X.copy()
            self.X.sum_duplicates()
            self.X.eliminate_zeros()
        if not np.isfinite(self.X.data).all():
            raise ValueError("feature values must be finite")
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


# the steps `train_committee` gives each teacher unless told otherwise
COMMITTEE_STEPS = 70


def train_erm(
    data: Dataset,
    steps: int = 35,
    sample_weight: np.ndarray | None = None,
    init: LinearHypothesis | None = None,
) -> LinearHypothesis:
    """Logistic-loss approximation of the 0-1 empirical risk minimizer.

    `steps` steps of full-batch accelerated descent from zero
    initialization (or from `init`), weighting the rows by
    `sample_weight` normalized to sum 1 (uniform if None). The fit draws
    no randomness. It is one column of `_train_columns`, which describes
    the descent and its step size, on the rows' one-block layout
    (`_Rows.of`); a committee member (`train_committee`) or another
    column of a `_train_columns` fit on the same rows equals it bit for
    bit.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if not data.labeled:
        raise ValueError("training data must be labeled")
    Y, rows = data.y[:, None], _Rows.of(data.X)
    return _train_columns(rows, Y, steps, [sample_weight], [init])[0]


def _kernels(shape, csr, B: int = 1):
    """scipy's `X @ V` and `X.T @ U` as functions of (V, out) and (U, out),
    X the CSR of this shape whose (indptr, indices, data) are csr: each
    adds into out, which the caller zeroes first, bit for bit as scipy's
    product. V, U and out are vectors or C-ordered matrices of B columns;
    one runs the one-vector kernels, more the multi-vector ones, which
    add each column's terms in the same order."""
    rows, cols = shape
    if B == 1:
        return partial(csr_matvec, rows, cols, *csr), partial(csc_matvec, cols, rows, *csr)
    return partial(csr_matvecs, rows, cols, B, *csr), partial(csc_matvecs, cols, rows, B, *csr)


# Collatz-Wielandt steps behind each block's smoothness bound
_BOUND_ITERS = 4


def _smoothness_bound(shape, csr, wts, K: int) -> np.ndarray:
    """Per block of the design (shape, csr), K blocks wide, and per column
    of wts (rows by B), the least of `_BOUND_ITERS` upper bounds on
    lambda_max(X^T diag(w) X), X the block's rows and w the column's
    weights on them; a K by B array.

    A = |X|^T diag(w) |X| is nonnegative and lambda_max(X^T diag(w) X)
    <= lambda_max(A) <= max_i (Av)_i / v_i for every v > 0 on A's support
    (Collatz-Wielandt). From v = 1, each of `_BOUND_ITERS` steps takes
    u = Av and that ratio over the v_i > 0, then v = u / max(u): a power
    step, so the ratio tends to lambda_max(A). The bias column keeps each
    block's max(u) positive. Products, max and division stay inside a
    block's rows and columns and a column of wts, so a bound is the same
    alone or batched, bit for bit.
    """
    if np.minimum.reduce(csr[2], initial=0.0) < 0:  # else data is |data|: no -0.0
        csr = (csr[0], csr[1], np.abs(csr[2]))
    B = wts.shape[1]
    # one column at a time through the one-vector kernels, on buffers
    # ordered by column, block and coordinate: down the rows of a
    # rows-by-B array numpy reduces and broadcasts with an inner loop of
    # length B, up to 40 times slower on wide designs
    col_wts = np.ascontiguousarray(wts.T)
    # Xv, u and ratios, zeroed by one fill per power step: each is then
    # written only by its own kernels or division
    zeroed = np.empty(B * (shape[0] + 2 * shape[1]))
    cut, end = B * shape[0], B * (shape[0] + shape[1])
    Xv, u = zeroed[:cut].reshape(B, shape[0]), zeroed[cut:end].reshape(B, shape[1])
    ratios = zeroed[end:]
    v = np.ones((B, shape[1]))
    U, V = u.reshape(B, K, -1), v.reshape(B, K, -1)
    ratios = ratios.reshape(U.shape)
    product, transposed = _kernels(shape, csr)
    bound = np.inf
    for _ in range(_BOUND_ITERS):
        zeroed.fill(0.0)
        for v_b, Xv_b in zip(v, Xv):
            product(v_b, Xv_b)
        Xv *= col_wts
        for Xv_b, u_b in zip(Xv, u):
            transposed(Xv_b, u_b)
        np.divide(U, V, out=ratios, where=V > 0)
        bound = np.minimum(bound, np.maximum.reduce(ratios, axis=2))
        np.divide(U, np.maximum.reduce(U, axis=2, keepdims=True), out=V)
    return bound.T


def _index_type(entries: int, width: int):
    """32-bit indices where they fit, as scipy would cast them anyway."""
    return np.int32 if max(entries, width) < 2**31 else np.int64


def _bias_layout(csr, order, sizes: np.ndarray, d: int):
    """The rows `order` of a canonical CSR of d columns (raw arrays csr),
    gathered in that order into blocks of these sizes, block k's rows in
    columns k*(d+1) on, each ended by a bias entry of 1 in column
    k*(d+1) + d: the raw CSR arrays, and each row's squared norm."""
    ptr, cols, vals = csr
    n, starts, ends = len(order), ptr[order], ptr[order + 1]
    nnz = int((ends - starts).sum())
    index_type = _index_type(nnz + n, len(sizes) * (d + 1))
    indptr = np.zeros(n + 1, dtype=index_type)
    np.cumsum(ends - starts + 1, out=indptr[1:])
    bias = indptr[1:] - 1  # each row's last entry
    # each entry's source position, of the index width: one on from the
    # one before, except where a row starts; a bias entry reads its row's end
    at = np.ones(nnz + n, dtype=np.result_type(ptr, index_type))
    at[indptr[:-1]] = starts
    at[indptr[1:-1]] -= ends[:-1]
    np.cumsum(at, out=at)
    indices, data = np.empty(nnz + n, dtype=index_type), np.empty(nnz + n)
    if nnz:  # else every entry is a bias entry
        cols.take(at, out=indices, mode="clip")
        vals.take(at, out=data, mode="clip")
    del at
    indices[bias], data[bias] = d, 1.0
    block_end = indptr[np.cumsum(sizes)]
    for k in range(1, len(sizes)):
        indices[block_end[k - 1] : block_end[k]] += k * (d + 1)
    # 1 plus a reduceat of the row's own squares, as X.multiply(X).sum(axis=1);
    # a reduceat over the bias entry too would sum in another order
    row_sq = np.ones(n)
    filled = np.flatnonzero(ends > starts)
    segments = np.stack([indptr[filled], bias[filled]], axis=1).ravel()
    row_sq[filled] += np.add.reduceat(data * data, segments)[::2]
    return (indptr, indices, data), row_sq


@dataclass(frozen=True)
class _Rows:
    """Canonical rows of d features in blocks of `sizes` rows, as raw CSR
    arrays: block k's rows in columns k*(d+1) on, each ended by a bias
    entry of 1 in column k*(d+1) + d (`_bias_layout`). `row_sq` holds
    each row's squared norm, bias included."""

    shape: tuple[int, int]
    csr: tuple[np.ndarray, np.ndarray, np.ndarray]  # indptr, indices, data
    row_sq: np.ndarray
    sizes: np.ndarray
    # set by `empty`: the buffers csr and row_sq view, which `grow` writes into
    room: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, X: sp.csr_matrix, order=None, sizes=None) -> "_Rows":
        """The rows `order` of a canonical CSR, such as a `Dataset`'s, in
        blocks of these sizes; by default all rows in order, in one block."""
        (n, d), csr = X.shape, (X.indptr, X.indices, X.data)
        order = np.arange(n) if order is None else order
        sizes = np.array([len(order)]) if sizes is None else sizes
        csr, row_sq = _bias_layout(csr, order, sizes, d)
        return cls((len(order), len(sizes) * (d + 1)), csr, row_sq, sizes)

    @classmethod
    def empty(cls, width: int, rows: int, entries: int) -> "_Rows":
        """No rows, over buffers with room for `rows` rows of `entries` entries."""
        cols = np.empty(entries, _index_type(entries, width))
        room = (np.zeros(rows + 1, cols.dtype), cols, np.empty(entries), np.empty(rows))
        return cls((rows, width), room[:3], room[3], None, room).head(0)

    def head(self, n: int) -> "_Rows":
        """The first n of these one-block rows, as views."""
        ptr, cols, vals = self.csr
        csr = (ptr[: n + 1], cols[: ptr[n]], vals[: ptr[n]])
        return _Rows((n, self.shape[1]), csr, self.row_sq[:n], np.array([n]), self.room)

    def grow(self, other: "_Rows", i: int) -> "_Rows":
        """These one-block rows, then row i of other, of the same width: the
        arrays that `of` builds from both stacked, without rebuilding these.
        The row is written in place, after these rows in the buffers under
        them, which must have room for it; longer rows over the same
        buffers lose what follows these."""
        n, width = self.shape
        a, b = other.csr[0][i : i + 2]
        start = self.csr[0][n]
        end = start + (b - a)
        ptr, cols, vals, row_sq = self.room
        ptr[n + 1], row_sq[n] = end, other.row_sq[i]
        cols[start:end], vals[start:end] = other.csr[1][a:b], other.csr[2][a:b]
        csr = (ptr[: n + 2], cols[:end], vals[:end])
        return _Rows((n + 1, width), csr, row_sq[: n + 1], np.array([n + 1]), self.room)

    def scores(self, h: "LinearHypothesis") -> np.ndarray:
        """h's decision on every row: `X @ h.weights + h.bias` bit for bit,
        the bias entry adding b last."""
        out, coef = np.zeros(self.shape[0]), np.empty(self.shape[1])
        coef[:-1], coef[-1] = h.weights, h.bias
        csr_matvec(*self.shape, *self.csr, coef, out)
        return out


def _fit_weights(out: np.ndarray, weight) -> None:
    """Sample weights on a fit's rows, normalized to sum 1, written into
    out, a vector of one per row."""
    weight = np.asarray(weight, dtype=float)
    total = weight.sum()
    # a NaN or inf weight makes the sum NaN or inf
    if weight.shape != out.shape or (weight < 0).any() or not 0 < total < np.inf:
        raise ValueError("sample_weight must be nonnegative with positive sum")
    np.divide(weight, total, out=out)


def _train_columns(
    rows: _Rows, Y: np.ndarray, steps: int, sample_weights: list, inits: list
) -> list[LinearHypothesis]:
    """A fit per block of rows and column of the label matrix Y, rows by
    B, all in one accelerated-descent loop: fit b takes Y[:, b],
    sample_weights[b] and inits[b] (None for uniform weights and a zero
    start; a given one needs one-block rows). The fits come out
    block-major, every column of block 0 first.

    Each fit minimizes the weighted logistic loss over its block's rows,
    its weights normalized to sum 1 within the block. Step k (from 0)
    takes the gradient at the extrapolated point y = x_k + beta_k (x_k -
    x_{k-1}), with beta_k = k/(k+3) and x_{-1} = x_0, and moves to x_{k+1}
    = y - g(y)/L (Nesterov 1983; Beck & Teboulle 2009). The loss need not
    fall at every step, but after k steps it is within 2L||x_0 -
    x*||^2/(k+1)^2 of its minimum. L is a quarter of an upper bound on
    lambda_max(X^T diag(w) X), X the block's rows and w the fit's
    weights: the least of the largest squared row norm and
    `_smoothness_bound`. On one-hot rows it comes within 0.1% of the
    eigenvalue, where the row norms alone give about twice it; on rows of
    mixed signs it can be looser. Every fit runs exactly `steps` steps;
    none stops early.

    The iterate holds, per block, each fit's weights then its bias, by B
    columns. Every step runs scipy's `csr_matvec` and `csc_matvec`
    (`csr_matvecs`, `csc_matvecs` for B > 1, which add each column's
    terms in the same order) on the layout's arrays, each into its own
    view of one buffer allocated once per fit; one fill per step zeroes
    both views before either kernel adds into its own.
    Rows keep their entries' order, so the product adds the terms of a
    lone fit's `X @ w + b`, the bias last, and the transposed one sums
    each block's gradient in row order, the bias's like every weight's.
    The labels' signs enter negated, so that product is the gradient
    itself: negation commutes with IEEE rounding. The fits without sample
    weights share one weight column, 1/size on each block's rows, and so
    one step bound. Blocks share no rows, columns or sums, so each fit
    equals a lone `train_erm` of its block and column bit for bit.
    """
    (n, width), B, sizes = rows.shape, Y.shape[1], rows.sizes
    K = len(sizes)
    if not _is_binary(Y):
        raise ValueError("labels must be 0 or 1")
    # each distinct weight column's slot: one for None, one per given array
    slots: dict = {}
    weight_of = [
        slots.setdefault(None if w is None else b, len(slots))
        for b, w in enumerate(sample_weights)
    ]
    # by column, so that the step bound reads each column contiguously
    col_wts = np.empty((len(slots), n))
    for b, slot in slots.items():
        if b is None:
            col_wts[slot] = (1.0 / sizes).repeat(sizes)
        else:
            _fit_weights(col_wts[slot], sample_weights[b])
    # each fit's starting weights then bias (zero where init is None)
    x = np.zeros((width, B))
    for b, init in enumerate(inits):
        if init is not None:
            if init.weights.shape != (width - 1,):
                raise ValueError("warm-start hypothesis has the wrong dimension")
            x[:-1, b] = init.weights
            x[-1, b] = init.bias
    row_max = np.maximum.reduceat(rows.row_sq, sizes.cumsum() - sizes)
    bound = _smoothness_bound(rows.shape, rows.csr, col_wts.T, K)
    bound = np.minimum(row_max[:, None], bound)
    step_cols = (1.0 / (0.25 * bound[:, weight_of])).repeat(width // K, axis=0)
    if steps < 1 or steps != int(steps):
        raise ValueError("steps must be a positive integer")
    neg_signs = 1.0 - 2.0 * Y
    neg_wts = col_wts.T[:, weight_of] * neg_signs
    # x is x_k and x_prev is x_{k-1}
    x_prev = x.copy()
    # the scores and the gradient, zeroed by one fill per step
    zeroed = np.empty((n + width) * B)
    scores, grad = zeroed[: n * B].reshape(n, B), zeroed[n * B :].reshape(width, B)
    product, transposed = _kernels(rows.shape, rows.csr, B)
    for k in range(int(steps)):
        # the extrapolated point y = x + beta * (x - x_prev), built in
        # x_prev's buffer, which then takes x_{k+1}
        beta = k / (k + 3)
        y = np.subtract(x, x_prev, out=x_prev)
        y *= beta
        y += x
        zeroed.fill(0.0)
        product(y, scores)
        scores *= neg_signs
        coef = expit(scores, out=scores)
        coef *= neg_wts
        transposed(coef, grad)
        grad *= step_cols
        y -= grad
        x_prev, x = x, y
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise ValueError("weights and bias must be finite")
    d = width // K - 1
    final, fits = x.reshape(K, d + 1, B), []
    for k in range(K):
        for b in range(B):
            h = object.__new__(LinearHypothesis)  # checked above, once
            h.weights, h.bias = final[k, :d, b], float(final[k, d, b])
            fits.append(h)
    return fits


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


# a committee whose layout holds at least this many entries, bias entries
# included, trains as two concurrent halves; on smaller ones the threads
# spend most of a step waiting for each other's GIL around numpy's small
# calls: two parts measured slower than one at 19,200 entries
_SPLIT_ENTRIES = 100_000


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def train_committee(
    data: Dataset,
    K: int,
    rng: np.random.Generator,
    steps: int = COMMITTEE_STEPS,
    rows=None,
) -> Ensemble:
    """K linear fits on disjoint random shards of data's rows `rows` (all
    of them if None), combined by majority.

    One permutation of `rows`, drawn from rng, is cut into K shards of
    `_part_sizes`, larger first, and each member equals `train_erm` on its
    shard bit for bit; the committee equals that of `data.subset(rows)`
    with the same rng, and leaves rng in the same state. The K fits are
    the blocks of one layout (`_Rows`), cut into parts of contiguous
    blocks, each part one `_train_columns` fit whose rows are gathered
    from `data`'s CSR arrays in permuted order; no copy of the rows is
    made. There is one part, run in the calling thread, unless K > 1,
    the layout holds at least `_SPLIT_ENTRIES` entries and two CPUs are
    usable; then there are two, and a worker thread lays out and fits the
    second while the calling thread does the first. Blocks share no rows,
    columns or sums, so the cut changes no member. The worker runs
    `_Rows.of` and `_train_columns` only, is joined before this returns or
    raises, and its error, if any, is raised here.
    """
    rows = np.arange(len(data)) if rows is None else np.asarray(rows)
    if rows.ndim != 1 or rows.size and not (
        rows.dtype.kind in "iu" and 0 <= rows.min() and rows.max() < len(data)
    ):
        raise ValueError(f"rows must be indices of the {len(data)} rows of data")
    sizes = _part_sizes(len(rows), K)
    if not data.labeled:
        raise ValueError("training data must be labeled")
    order = rows[rng.permutation(len(rows))]
    ptr = data.X.indptr
    entries = int((ptr[rows + 1] - ptr[rows]).sum()) + len(rows)
    parts = 2 if K > 1 and entries >= _SPLIT_ENTRIES and _usable_cpus() > 1 else 1

    def fit(idx, part):
        Y = data.y[idx][:, None]
        return _train_columns(_Rows.of(data.X, idx, part), Y, steps, [None], [None])

    part_sizes = np.array_split(sizes, parts)
    cuts = np.cumsum([part.sum() for part in part_sizes])[:-1]
    first, *rest = zip(np.split(order, cuts), part_sizes)
    # starts a thread only at submit, and joins it on leaving the block
    with ThreadPoolExecutor(max_workers=1) as worker:
        later = [worker.submit(fit, *args) for args in rest]
        members = fit(*first)
        for future in later:
            members += future.result()
    return Ensemble(members)


# ---------------------------------------------------------------------------
# Vote-margin reports


def margin_distribution_report(
    data: Dataset, K: int, probe_count: int, reps: int, rng: np.random.Generator
) -> list[dict]:
    """Per-probe margin estimates for histogramming.

    `probe_count` labeled rows of `data` are held out as probes, and
    `reps` pairs of K-teacher committees are trained on the rest. For each
    probe x, the first committee of each pair estimates delta_hat =
    |P(teacher(x)=1) - 1/2| and the second delta_hstar = |P(teacher(x) !=
    y(x)) - 1/2|, where y is the probe's label. Returns rows of
    {probe_id, delta_hat, delta_hstar}.
    """
    if not data.labeled:
        raise ValueError("margin reports need labels")
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    if probe_count < 1:
        raise ValueError(f"probe_count must be positive, got {probe_count}")
    if probe_count >= len(data):
        raise ValueError("probe pool must be smaller than the dataset")
    perm = rng.permutation(len(data))
    probe_idx, train_idx = perm[:probe_count], perm[probe_count:]
    probes = data.subset(probe_idx)
    votes_a = np.zeros(probe_count)
    votes_b = np.zeros(probe_count)
    for _ in range(reps):
        for goal in (votes_a, votes_b):
            goal += train_committee(data, K, rng, rows=train_idx).vote_ones(probes.X)
    mean_a = votes_a / (K * reps)
    mean_b = votes_b / (K * reps)
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
