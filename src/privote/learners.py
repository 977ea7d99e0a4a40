"""Hypotheses, ERM training, ensembles, and vote-margin reports.

Linear models with sparse features carry the real-data experiments; an
explicit finite hypothesis class backs the counterexample fixtures and the
exact version-space machinery.

All linear training goes through one accelerated-descent loop (Nesterov
momentum). A committee's K disjoint shards, cut from one row permutation
of the teacher pool, are gathered from its CSR arrays into one
block-diagonal layout with a bias column per block, so each step scores
and differentiates every teacher with one pass over all rows; a lone fit
(`train_erm`) is the one-block case. A committee whose design holds at
least `_SPLIT_ENTRIES` entries, on a host with two usable CPUs, is cut
into two halves of contiguous blocks; a worker thread lays out and
descends the second while the calling thread does the first. Fits that
share their rows and differ in labels, weights or start (the active
learner's probes) are instead B columns of the iterate over one copy of
the rows (`_train_columns`). The design is built once per fit as raw
CSR arrays, and each step runs scipy's `csr_matvec` and `csc_matvec`
kernels on them, or `csr_matvecs` and `csc_matvecs` for B > 1, into
buffers allocated once per fit. Every fit runs exactly its step count:
70 for a committee (`COMMITTEE_STEPS`), 35 by default otherwise. Each
member or column comes out bit-for-bit equal to a separate fit of its
own rows and labels, so batching, and the two-part split, change no
seeded output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
    "FiniteHypothesisClass",
    "threshold_class",
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
    `sample_weight` normalized to sum 1 (uniform if None). Step k (from
    0) takes the gradient at the extrapolated point y = x_k + beta_k
    (x_k - x_{k-1}), with beta_k = k/(k+3) and x_{-1} = x_0, and moves to
    x_{k+1} = y - g(y)/L (Nesterov 1983; Beck & Teboulle 2009). The loss
    need not fall at every step, but after k steps it is within
    2L||x_0 - x*||^2/(k+1)^2 of its minimum. The fit draws no randomness.

    L is a quarter of an upper bound on the largest eigenvalue of
    X^T diag(w) X, X the rows with a bias column of ones and w the
    normalized weights: the least of the largest squared row norm and the
    ratios max_i (Av)_i / v_i of four power steps v <- Av / max(Av) from
    v = 1, A = |X|^T diag(w) |X| (Collatz-Wielandt). On one-hot rows it
    comes within 0.1% of the eigenvalue, where the row norms alone give
    about twice it; on rows of mixed signs |X| can make it looser.

    The fit is one column of `_train_columns` on the rows' layout
    (`_Rows.of`); the iterate is the weights, then the bias. Every step
    runs scipy's `csr_matvec` kernel for the product with the design and
    `csc_matvec` for the one with its transpose, each into a buffer
    allocated once per fit and zeroed before the kernel adds into it.

    A committee member (`train_committee`) or another column of a
    `_train_columns` fit on the same rows equals this fit bit for
    bit: every floating-point operation that reaches its weights is the
    one this fit makes, in the same order. The bias is one more column,
    so the transpose kernel sums its gradient in row order like every
    weight's; L sums each row's squares with reduceat, and its power
    steps sum in row order through the same kernels and take maxima and
    quotients within the block.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if not data.labeled:
        raise ValueError("training data must be labeled")
    return _train_columns(_Rows.of(data.X), [data.y], steps, [sample_weight], [init])[0]


def _matvec(shape, csr, v, out, transpose=False):
    """scipy's `X @ v` (`X.T @ v` if transpose) into out, bit for bit, where
    X is the CSR of this shape whose (indptr, indices, data) are csr.

    v and out are vectors or C-ordered matrices of B columns. One column
    runs the single-vector kernel, more run the multi-vector one, which
    adds each column's terms in the same order."""
    out.fill(0.0)
    rows, cols = shape[::-1] if transpose else shape
    if v.ndim == 1 or v.shape[1] == 1:
        (csc_matvec if transpose else csr_matvec)(rows, cols, *csr, v, out)
    else:
        kernel = csc_matvecs if transpose else csr_matvecs
        kernel(rows, cols, v.shape[1], *csr, v, out)


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
    if csr[2].min(initial=0.0) < 0:  # else data is |data|: it stores no -0.0
        csr = (csr[0], csr[1], np.abs(csr[2]))
    B = wts.shape[1]
    # one column at a time through the one-vector kernels, on buffers
    # ordered by column, block and coordinate: down the rows of a
    # rows-by-B array numpy reduces and broadcasts with an inner loop of
    # length B, up to 40 times slower on wide designs
    col_wts = np.ascontiguousarray(wts.T)
    Xv = np.empty((B, shape[0]))
    u = np.empty((B, shape[1]))
    v = np.ones((B, shape[1]))
    U, V = u.reshape(B, K, -1), v.reshape(B, K, -1)
    ratios = np.empty_like(U)
    bound = np.inf
    for _ in range(_BOUND_ITERS):
        for b in range(B):
            _matvec(shape, csr, v[b], Xv[b])
        Xv *= col_wts
        for b in range(B):
            _matvec(shape, csr, Xv[b], u[b], transpose=True)
        ratios.fill(0.0)
        np.divide(U, V, out=ratios, where=V > 0)
        bound = np.minimum(bound, ratios.max(axis=2))
        np.divide(U, U.max(axis=2, keepdims=True), out=V)
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
    """Canonical rows of d features, each ended by a bias entry of 1 in
    column d, as raw CSR arrays: the one-block layout of `_BlockDesign`.
    `row_sq` holds each row's squared norm, bias included."""

    shape: tuple[int, int]
    csr: tuple[np.ndarray, np.ndarray, np.ndarray]  # indptr, indices, data
    row_sq: np.ndarray

    @classmethod
    def of(cls, X: sp.csr_matrix) -> "_Rows":
        """The rows of a canonical CSR, such as a `Dataset`'s."""
        (n, d), csr = X.shape, (X.indptr, X.indices, X.data)
        csr, row_sq = _bias_layout(csr, np.arange(n), np.array([n]), d)
        return cls((n, d + 1), csr, row_sq)

    @property
    def row_max(self) -> float:
        """The largest squared row norm, bias included."""
        return float(self.row_sq.max(initial=0.0))

    def head(self, n: int) -> "_Rows":
        """The first n of these rows, as views."""
        ptr, cols, vals = self.csr
        csr = (ptr[: n + 1], cols[: ptr[n]], vals[: ptr[n]])
        return _Rows((n, self.shape[1]), csr, self.row_sq[:n])

    def grow(self, other: "_Rows", i: int) -> "_Rows":
        """These rows, then row i of other, of the same width: the arrays
        that `of` builds from both stacked, without rebuilding these."""
        (ptr, cols, vals), (n, width) = self.csr, self.shape
        other_ptr, other_cols, other_vals = other.csr
        a, b = other_ptr[i], other_ptr[i + 1]
        index_type = _index_type(len(vals) + b - a, width)
        # slices of one entry: np.append of a scalar costs twice as much
        end = other_ptr[i + 1 : i + 2] + (ptr[-1] - a)
        return _Rows(
            (n + 1, width),
            (
                np.concatenate([ptr, end]).astype(index_type, copy=False),
                np.concatenate([cols, other_cols[a:b]]).astype(index_type, copy=False),
                np.concatenate([vals, other_vals[a:b]]),
            ),
            np.concatenate([self.row_sq, other.row_sq[i : i + 1]]),
        )

    def scores(self, h: "LinearHypothesis") -> np.ndarray:
        """h's decision on every row: `X @ h.weights + h.bias` bit for bit,
        the bias entry adding b last."""
        out = np.empty(self.shape[0])
        _matvec(self.shape, self.csr, np.append(h.weights, h.bias), out)
        return out


@dataclass
class _BlockDesign:
    """Labeled blocks of rows as one block-diagonal design, with B label
    and weight columns fit side by side.

    Block i owns the d + 1 columns from i*(d+1): its features, then a
    bias column of ones that ends each of its rows. The design is its
    shape and raw CSR arrays of one index dtype; no scipy matrix. Rows
    keep their entries' order, so `_matvec` of x adds the same terms in
    the same order as a lone fit's `X @ w + b`, the bias last, and the
    transposed `_matvec` of coef gives each block's gradient, the bias's
    a sum in row order like every weight's. The labels' signs enter
    negated, so that product is the gradient itself: negation commutes
    with IEEE rounding. Every per-row array is rows by B, every
    per-column one columns by B.

    `of` sets each block's and column's step to 1/L, L a quarter of the
    least of the block's largest squared row norm and `_smoothness_bound`,
    which runs `_matvec` on the same arrays, data taken by absolute value.
    `descend` runs a given number of steps on every fit; none stops early.
    """

    shape: tuple[int, int]
    csr: tuple[np.ndarray, np.ndarray, np.ndarray]  # indptr, indices, data
    neg_signs: np.ndarray
    neg_wts: np.ndarray
    blocks: int
    step_cols: np.ndarray

    @classmethod
    def build(cls, csr, order, d: int, sizes: np.ndarray, y, wts):
        """The one-column design of `_bias_layout`'s blocks of these sizes
        from the rows `order` of a canonical CSR of d features (raw arrays
        csr); y and wts follow order."""
        csr, row_sq = _bias_layout(csr, order, sizes, d)
        row_max = np.maximum.reduceat(row_sq, np.cumsum(sizes) - sizes)
        shape = (len(order), len(sizes) * (d + 1))
        return cls.of(shape, csr, row_max, sizes, y[:, None], wts[:, None])

    @classmethod
    def of(cls, shape, csr, row_max, sizes: np.ndarray, Y, wts, weight_of=None):
        """The design on a block layout (shape, csr) with blocks of these
        sizes and largest squared row norms row_max, fit to the label
        columns Y, rows by B. Column b is weighted by column weight_of[b]
        of wts, rows by at most B (by column b if weight_of is None), and
        each block's step bound is computed once per column of wts."""
        K = len(sizes)
        neg_signs = 1.0 - 2.0 * Y
        bound = np.minimum(
            np.reshape(row_max, (K, 1)), _smoothness_bound(shape, csr, wts, K)
        )
        if weight_of is not None:
            wts, bound = wts[:, weight_of], bound[:, weight_of]
        return cls(
            shape=shape,
            csr=csr,
            neg_signs=neg_signs,
            neg_wts=wts * neg_signs,
            blocks=K,
            step_cols=(1.0 / (0.25 * bound)).repeat(shape[1] // K, axis=0),
        )

    def descend(self, W: np.ndarray, steps: int):
        """The fits after `steps` steps from the columns of W, each the
        weights, then the bias, of every block in turn; block-major."""
        if steps < 1 or steps != int(steps):
            raise ValueError("steps must be a positive integer")
        (n, width), B, K = self.shape, W.shape[1], self.blocks
        d = width // K - 1
        # x is x_k and x_prev is x_{k-1}
        x = W.astype(float)
        x_prev = x.copy()
        scores = np.empty((n, B))
        grad = np.empty((width, B))
        for k in range(int(steps)):
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
            grad *= self.step_cols
            y -= grad
            x_prev, x = x, y
        final = x.reshape(K, d + 1, B)
        return [
            LinearHypothesis(final[k, :d, b], float(final[k, d, b]))
            for k in range(K)
            for b in range(B)
        ]


def _fit_weights(n: int, weight) -> np.ndarray:
    """A fit's weights on its n rows, normalized (uniform if weight is
    None)."""
    if weight is None:
        return np.full(n, 1.0 / n)
    weight = np.asarray(weight, dtype=float)
    total = weight.sum()
    # a NaN or inf weight makes the sum NaN or inf
    if weight.shape != (n,) or (weight < 0).any() or not 0 < total < np.inf:
        raise ValueError("sample_weight must be nonnegative with positive sum")
    return weight / total


def _fit_start(d: int, init) -> np.ndarray:
    """A fit's starting weights then bias (zero if init is None)."""
    start = np.zeros(d + 1)
    if init is not None:
        if init.weights.shape != (d,):
            raise ValueError("warm-start hypothesis has the wrong dimension")
        start[:d] = init.weights
        start[d] = init.bias
    return start


def _train_columns(
    rows: _Rows, labels: list, steps: int, sample_weights: list, inits: list
) -> list[LinearHypothesis]:
    """`train_erm` on the same rows once per label array, all in one
    accelerated-descent loop: fit b takes labels[b], sample_weights[b]
    and inits[b] (either entry may be None).

    The fits are the columns of the iterate of one `_BlockDesign` over a
    single copy of the rows, and each equals a lone `train_erm` of its
    column bit for bit. With more than one column, every step runs
    scipy's multi-vector kernels `csr_matvecs` and `csc_matvecs`, which
    add each column's terms in the order of the single-vector ones. The
    fits without sample weights share one uniform weight column, and so
    one step bound.
    """
    n, d = rows.shape[0], rows.shape[1] - 1
    Y = np.stack(labels, axis=1)
    if not _is_binary(Y):
        raise ValueError("labels must be 0 or 1")
    # each distinct weight column's slot: one for None, one per given array
    slots: dict = {}
    weight_of = [
        slots.setdefault(None if w is None else b, len(slots))
        for b, w in enumerate(sample_weights)
    ]
    wts = [_fit_weights(n, None if b is None else sample_weights[b]) for b in slots]
    design = _BlockDesign.of(
        rows.shape,
        rows.csr,
        rows.row_max,
        np.array([n]),
        Y,
        np.stack(wts, axis=1),
        weight_of,
    )
    starts = [_fit_start(d, init) for init in inits]
    return design.descend(np.stack(starts, axis=1), steps)


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


# a committee whose design holds at least this many entries, bias entries
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
) -> Ensemble:
    """K linear fits on disjoint random splits, combined by majority.

    The splits are `split_disjoint`'s with the same rng, cut from one
    permutation of the rows, and each member equals `train_erm` on its
    split bit for bit. The K fits are the blocks of a block-diagonal
    design (see `_BlockDesign`), cut into parts of contiguous blocks,
    each part one accelerated-descent loop whose rows are gathered from
    `data`'s CSR arrays in permuted order (`_bias_layout`); no permuted
    copy of the rows is made. There is one part, run in the calling
    thread, unless K > 1, the design holds at least `_SPLIT_ENTRIES`
    entries and two CPUs are usable; then there are two, and a worker
    thread lays out, bounds and descends the second while the calling
    thread does the first. Blocks share no rows, columns or sums, so the
    cut changes no member. The worker runs `_BlockDesign.build` and
    `descend` only, is joined before this returns or raises, and its
    error, if any, is raised here.
    """
    sizes = _part_sizes(len(data), K)
    if not data.labeled:
        raise ValueError("training data must be labeled")
    order, X = rng.permutation(len(data)), data.X
    entries = X.nnz + len(data)
    parts = 2 if K > 1 and entries >= _SPLIT_ENTRIES and _usable_cpus() > 1 else 1
    csr, d = (X.indptr, X.indices, X.data), data.n_features

    def fit(rows, part):
        wts = (1.0 / part).repeat(part)
        design = _BlockDesign.build(csr, rows, d, part, data.y[rows], wts)
        return design.descend(np.zeros((design.shape[1], 1)), steps)

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
        """Per-member number of errors on a sample of (domain index, label);
        zeros on an empty sample."""
        xs = np.asarray(xs)
        if not xs.size:
            xs = xs.astype(np.intp)  # `[]` reads as floats
        return (self.by_point[xs].T != np.asarray(ys)).sum(axis=1)

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
