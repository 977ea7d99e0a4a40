"""Seeded LIBSVM-shaped data sets and the workloads that run on them.

Each generator returns a CSR feature matrix and 0/1 labels. Labels come
from a hidden sparse halfspace plus independent label noise, so teachers
beat chance and the active learner's disagreement region shrinks as it
queries. The same seed always gives the same data.

Seeds: the benchmark seed picks the data (through a SeedSequence keyed by
the workload) and the experiment master seeds. privote's derive_seed mixes
``master ^ trial``, so nearby master seeds would share trial seeds. Here a
master seed is ``((seed << REP_BITS) | rep) << TRIAL_BITS``: its low
TRIAL_BITS bits are zero, so ``master ^ trial == master | trial`` for every
trial index below 2**TRIAL_BITS, and (seed, rep, trial) -> master | trial
is injective. derive_seed then applies a bijective 64-bit finalizer, so two
benchmark seeds (or two repeats) never produce the same trial seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

TRIAL_BITS = 16
REP_BITS = 8
SEED_BITS = 64 - TRIAL_BITS - REP_BITS
FRACTIONS = (0.8, 0.02, 0.18)
QUERY_FRACTION = 0.3


def master_seed(seed: int, rep: int) -> int:
    """Experiment master seed for repeat `rep` of benchmark seed `seed`."""
    if not 0 <= seed < 2**SEED_BITS:
        raise ValueError(f"seed must lie in [0, 2**{SEED_BITS})")
    if not 0 <= rep < 2**REP_BITS:
        raise ValueError(f"rep must lie in [0, 2**{REP_BITS})")
    return ((seed << REP_BITS) | rep) << TRIAL_BITS


def data_rng(seed: int, workload: str) -> np.random.Generator:
    key = [seed] + [ord(c) for c in workload]
    return np.random.default_rng(np.random.SeedSequence(key))


def _halfspace_labels(X, w, threshold, noise, rng):
    """y = 1(w.x >= threshold), each label then flipped with prob. noise."""
    y = (np.asarray(X @ w).ravel() >= threshold).astype(np.int64)
    flips = rng.random(len(y)) < noise
    return np.where(flips, 1 - y, y)


def _sparse_halfspace_labels(X, rng, informative, positive_rate, noise):
    """Gaussian weights on the `informative` features only; the threshold
    puts `positive_rate` of the rows on the positive side before noise."""
    w = np.zeros(X.shape[1])
    w[informative] = rng.normal(size=len(informative))
    # jitter breaks ties between identical rows at the threshold
    scores = np.asarray(X @ w).ravel() + 1e-9 * rng.standard_normal(X.shape[0])
    return _halfspace_labels(
        X, w, np.quantile(scores, 1.0 - positive_rate), noise, rng
    )


def _one_hot(codes: np.ndarray, cards) -> sp.csr_matrix:
    """Rows of categorical codes (-1 = missing) as a binary CSR matrix."""
    n = codes.shape[0]
    offsets = np.concatenate([[0], np.cumsum(cards)[:-1]])
    cols = codes + offsets
    present = codes >= 0
    rows = np.broadcast_to(np.arange(n)[:, None], codes.shape)[present]
    X = sp.csr_matrix(
        (np.ones(rows.size), (rows, cols[present])), shape=(n, int(sum(cards)))
    )
    X.sort_indices()
    return X


def _categorical_codes(n, cards, rng, concentration=0.6):
    probs = [rng.dirichlet(np.full(c, concentration)) for c in cards]
    return np.stack(
        [rng.choice(c, size=n, p=p) for c, p in zip(cards, probs)], axis=1
    ), probs


# a9a: 14 categorical census fields one-hot encoded into 123 features
A9A_CARDS = (5, 8, 5, 16, 5, 7, 14, 6, 5, 2, 2, 2, 5, 41)
A9A_MISSING = {1: 0.06, 6: 0.06, 13: 0.02}


def gen_a9a_like(rng: np.random.Generator, n: int = 12000):
    codes, _ = _categorical_codes(n, A9A_CARDS, rng)
    for field, rate in A9A_MISSING.items():
        codes[rng.random(n) < rate, field] = -1
    X = _one_hot(codes, A9A_CARDS)
    informative = rng.choice(X.shape[1], size=50, replace=False)
    y = _sparse_halfspace_labels(X, rng, informative, positive_rate=0.24, noise=0.05)
    return X, y


# mushrooms: 22 categorical fields one-hot encoded into 112 features
MUSHROOM_CARDS = (6, 4, 10, 2, 9, 2, 2, 2, 12, 2, 4, 4, 4, 9, 9, 1, 4, 3, 5, 9, 6, 3)


def gen_mushrooms_like(rng: np.random.Generator, n: int = 8124, prototypes: int = 2000):
    """Rows are mutated copies of a few prototypes: many (near-)duplicates."""
    base, probs = _categorical_codes(prototypes, MUSHROOM_CARDS, rng)
    codes = base[rng.integers(0, prototypes, size=n)]
    mutate = rng.random(codes.shape) < 0.02
    for field, (card, p) in enumerate(zip(MUSHROOM_CARDS, probs)):
        hit = np.flatnonzero(mutate[:, field])
        codes[hit, field] = rng.choice(card, size=hit.size, p=p)
    X = _one_hot(codes, MUSHROOM_CARDS)
    informative = rng.choice(X.shape[1], size=30, replace=False)
    y = _sparse_halfspace_labels(X, rng, informative, positive_rate=0.48, noise=0.02)
    return X, y


def gen_realsim_like(rng: np.random.Generator, n: int = 3500, d: int = 20958):
    """Zipf-distributed terms with tf-idf weights, rows scaled to unit norm.

    A document belongs to one of two topics and draws a quarter of its
    tokens from that topic's words. The hidden halfspace weighs topic-1
    words +1 and topic-0 words -1, so labels are learnable from the words.
    """
    lengths = np.clip(np.round(rng.lognormal(math.log(50.0), 0.5, size=n)), 5, 400)
    lengths = lengths.astype(np.int64)
    ranks = np.arange(1, d + 1, dtype=float)
    term_p = ranks**-1.05
    term_p /= term_p.sum()
    vocab = rng.permutation(d)  # frequency rank -> feature index
    topics = vocab[100 + rng.choice(min(3000, d - 100), size=(2, 150), replace=False)]
    positive = rng.random(n) < 0.31
    rows = np.repeat(np.arange(n), lengths)
    cols = vocab[rng.choice(d, size=rows.size, p=term_p)]
    on_topic = rng.random(rows.size) < 0.25
    picks = rng.integers(0, topics.shape[1], size=rows.size)
    cols = np.where(on_topic, topics[positive[rows].astype(int), picks], cols)
    keys, tf = np.unique(rows * d + cols, return_counts=True)
    rows, cols = keys // d, keys % d
    df = np.bincount(cols, minlength=d)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    vals = (1.0 + np.log(tf)) * idf[cols]
    norms = np.sqrt(np.bincount(rows, weights=vals**2, minlength=n))
    X = sp.csr_matrix((vals / norms[rows], (rows, cols)), shape=(n, d))
    X.sort_indices()
    w = np.zeros(d)
    w[topics[1]] = 1.0
    w[topics[0]] = -1.0
    return X, _halfspace_labels(X, w, 0.0, noise=0.03, rng=rng)


TRIALS = 1  # trials per run_experiment call, the unit experiment_s times


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json says why each was chosen."""

    name: str
    method: str
    epsilon: float
    generate: Callable[[np.random.Generator], tuple]

    def sizes(self, n: int) -> dict:
        """Protocol sizes for a data set of n rows."""
        n_teacher = math.floor(FRACTIONS[0] * n)
        pool = math.ceil(FRACTIONS[1] * n)
        budget = pool if self.method.startswith("Psq") else max(
            1, round(QUERY_FRACTION * pool)
        )
        return {
            "K": math.ceil(n_teacher / 100),
            "pool": pool,
            "query_budget": budget,
        }


# methods and epsilons as in scripts/run_benchmarks.py
WORKLOADS = {
    w.name: w
    for w in (
        Workload("psq-a9a", "PsqGaussian", 2.0, gen_a9a_like),
        Workload("asq-mushrooms", "Asq", 1.0, gen_mushrooms_like),
        Workload("asq-realsim", "Asq", 1.0, gen_realsim_like),
    )
}


def properties(X: sp.csr_matrix) -> dict:
    """Measured shape of a data set: n, d, nonzeros per row, duplicate share."""
    n, d = X.shape
    X = X.tocsr()
    rows = [
        (X.indices[X.indptr[i] : X.indptr[i + 1]].tobytes(),
         X.data[X.indptr[i] : X.indptr[i + 1]].tobytes())
        for i in range(n)
    ]
    return {
        "n": n,
        "d": d,
        "nnz_per_row": X.nnz / n,
        "duplicate_share": 1.0 - len(set(rows)) / n,
    }
