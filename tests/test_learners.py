"""Datasets, ERM training, committees, and finite-class machinery."""

import functools
import os
import threading
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

import oracles
from finite import FiniteHypothesisClass, threshold_class
from privote import (
    Dataset,
    Ensemble,
    ExperimentConfig,
    LinearHypothesis,
    VoteCount,
    empirical_error,
    gen_massart,
    gen_realizable,
    make_rng,
    margin_distribution_report,
    run_experiment,
    train_committee,
    train_erm,
    write_libsvm,
)
from privote import learners
from privote.aggregation import vote_majority
from privote.learners import (
    _kernels,
    _Rows,
    _smoothness_bound,
    _train_columns,
    split_disjoint,
)


def _random_data(n, d, seed, labeled=True):
    rng = make_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, n) if labeled else None
    return Dataset(X, y)


def test_dataset_basics():
    data = _random_data(10, 3, 0)
    assert len(data) == 10
    assert data.n_features == 3
    assert data.labeled
    sub = data.subset([1, 4, 7])
    assert len(sub) == 3
    assert np.array_equal(sub.y, data.y[[1, 4, 7]])
    assert not data.without_labels().labeled
    relabeled = data.with_labels(np.ones(10, dtype=int))
    assert relabeled.y.sum() == 10


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 0]))
    # scipy takes a hand-built CSR's column indices unchecked
    for col in (3, -1):
        X = sp.csr_matrix(([1.0, 2.0], [col, 1], [0, 1, 2]), shape=(2, 3))
        with pytest.raises(ValueError, match=r"column indices must lie in \[0, 3\)"):
            Dataset(X, np.array([0, 1]))


LABEL_CASES = [
    np.array([0, 1, 1]),
    np.array([0, 1], dtype=np.int8),
    np.array([0, 1], dtype=np.uint8),
    np.array([0.0, 1.0, -0.0]),
    np.array([0, 1], dtype=np.float16),
    np.array([True, False]),
    np.array([Fraction(1, 1), 0], dtype=object),
    np.array([], dtype=float),
    np.array([0, 2]),
    np.array([-1, 0]),
    np.array([0.5, 1.0]),
    np.array([1.0000000001, 0.0]),
    np.array([np.nan, 1.0]),
    np.array([np.inf, 0.0]),
    np.array([1 + 1j, 0j]),
    np.array(["0", "1"]),
    np.array([b"1"]),
    np.array([None, 1], dtype=object),
    np.array(["1", 1], dtype=object),
]


@pytest.mark.parametrize("labels", LABEL_CASES, ids=lambda a: f"{a.dtype}:{a.tolist()}")
def test_label_checks_accept_what_isin_accepts(labels):
    accepted = bool(np.isin(labels, (0, 1)).all())
    X = np.zeros((len(labels), 1))
    if accepted:
        assert np.array_equal(Dataset(X, labels).y, labels.astype(np.int64))
    else:
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            Dataset(X, labels)
    table = np.stack([labels, labels[::-1]]) if len(labels) else labels.reshape(1, 0)
    if accepted and len(labels):
        hclass = FiniteHypothesisClass(table)
        assert hclass.labels.dtype == np.int8
        assert np.array_equal(hclass.labels, table.astype(np.int8))
    elif len(labels):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            FiniteHypothesisClass(table)


def test_finite_class_keeps_int8_labels_without_a_copy():
    labels = np.eye(3, dtype=np.int8)
    assert FiniteHypothesisClass(labels).labels is labels


def test_hypothesis_tie_goes_to_one():
    h = LinearHypothesis(np.zeros(3))
    assert h.predict(np.zeros((1, 3)))[0] == 1
    assert h.predict(np.zeros((5, 3))).tolist() == [1] * 5


def test_prediction_rejects_columns_past_the_weights():
    # the product would read past the weights rather than fail
    X = sp.csr_matrix(([1.0], [50_000], [0, 1]), shape=(1, 3))
    h = LinearHypothesis(np.ones(3))
    for call in (h.decision, h.predict, Ensemble([h]).vote_ones):
        with pytest.raises(ValueError, match=r"column indices must lie in \[0, 3\)"):
            call(X)


def test_prediction_scale_invariance():
    data = _random_data(50, 4, 3, labeled=False)
    h = LinearHypothesis(np.array([1.0, -2.0, 0.5, 3.0]), bias=0.25)
    scaled = LinearHypothesis(h.weights * 7.0, bias=h.bias * 7.0)
    assert np.array_equal(h.predict(data.X), scaled.predict(data.X))


@given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 10_000))
def test_split_disjoint_is_a_partition(n, K, seed):
    if K > n:
        with pytest.raises(ValueError):
            split_disjoint(_random_data(n, 1, seed), K, make_rng(seed))
        return
    # identify rows by a unique feature value
    data = Dataset(np.arange(n, dtype=float).reshape(-1, 1), np.zeros(n, dtype=int))
    parts = split_disjoint(data, K, make_rng(seed))
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    ids = [list(np.asarray(p.X.todense()).ravel().astype(int)) for p in parts]
    assert oracles.is_partition(ids, list(range(n)))


def test_split_disjoint_singletons():
    data = _random_data(5, 2, 1)
    parts = split_disjoint(data, 5, make_rng(0))
    assert all(len(p) == 1 for p in parts)


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_train_erm_meets_the_accelerated_rate(seed):
    # F(x_k) - F* <= 2 L ||x_0 - x*||^2 / (k+1)^2 (Beck & Teboulle 2009;
    # Su, Boyd & Candes 2016); the loss itself need not fall at every step.
    # L is the smoothness lambda_max(A^T A/n)/4 itself, not the trainer's
    # bound on it, which on these mixed-sign rows is about 4 times larger
    data = _random_data(200, 6, seed)
    A = np.hstack([data.X.toarray(), np.ones((len(data), 1))])
    signs = 2.0 * data.y - 1.0

    def loss(x):
        return np.mean(np.logaddexp(0.0, -signs * (A @ x)))

    def grad(x):
        return A.T @ (-signs * expit(-signs * (A @ x))) / len(data)

    opt = minimize(loss, np.zeros(A.shape[1]), jac=grad, method="BFGS",
                   options={"gtol": 1e-12})
    assert np.linalg.norm(grad(opt.x)) < 1e-7
    L = 0.25 * float(np.linalg.eigvalsh(A.T @ A / len(data)).max())
    radius = float(opt.x @ opt.x)  # x_0 = 0
    for k in range(1, 121):
        h = train_erm(data, k)
        gap = loss(np.append(h.weights, h.bias)) - opt.fun
        assert gap <= 2.0 * L * radius / (k + 1) ** 2, k


def test_train_erm_learns_separable_data():
    rng = make_rng(7)
    data, truth = gen_realizable(5, 2_000, rng)
    h = train_erm(data)
    test, _ = gen_realizable(5, 2_000, make_rng(8))
    # same hidden halfspace on a fresh draw
    fresh = Dataset(test.X, truth.predict(test.X))
    assert empirical_error(h, fresh) <= 0.03
    assert empirical_error(h, data) <= 0.01


def test_train_erm_deterministic():
    data = _random_data(80, 3, 5)
    a = train_erm(data)
    b = train_erm(data)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


@pytest.mark.filterwarnings("error")
def test_train_erm_validation():
    with pytest.raises(ValueError):
        train_erm(_random_data(10, 2, 0, labeled=False))
    with pytest.raises(ValueError):
        train_erm(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))
    # non-finite weights fail before the descent, without a RuntimeWarning
    for bad in (np.nan, np.inf):
        weight = np.ones(10)
        weight[3] = bad
        with pytest.raises(ValueError, match="sample_weight must be nonnegative"):
            train_erm(_random_data(10, 2, 0), sample_weight=weight)
    for steps in (0, -1, 2.5):
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            train_erm(_random_data(10, 2, 0), steps)
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            train_committee(_random_data(10, 2, 0), 2, make_rng(0), steps)


def _product(shape, csr, V, out, transpose=False):
    """out zeroed, then the product `_kernels` binds for V's columns added
    into it, as the descent, the step bound and the scores run them."""
    B = 1 if V.ndim == 1 else V.shape[1]
    out.fill(0.0)
    _kernels(shape, csr, B)[transpose](V, out)


@given(st.integers(0, 10_000), st.sampled_from([np.int32, np.int64]))
def test_matvec_equals_scipy_products(seed, index_type):
    # the descent calls scipy's private csr_matvec and csc_matvec kernels,
    # and csr_matvecs and csc_matvecs for several columns at once; a scipy
    # that changes them must fail here rather than move the fits
    rng = make_rng(seed)
    n, d = (int(v) for v in rng.integers(1, 30, 2))
    A = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.4)
    A[rng.random(n) < 0.3] = 0.0  # empty rows
    X = sp.csr_matrix(A)
    X.data[rng.random(X.nnz) < 0.1] = -0.0  # stored signed zeros
    assert X.has_canonical_format
    csr = tuple(a.astype(index_type) for a in (X.indptr, X.indices)) + (X.data,)
    for transpose, M in ((False, X), (True, X.T)):
        v = rng.normal(size=M.shape[1])
        v[rng.random(len(v)) < 0.3] = -0.0
        # the buffer holds the previous step's values, signed zeros among them
        out = np.where(rng.random(M.shape[0]) < 0.5, -0.0, rng.normal(size=M.shape[0]))
        _product((n, d), csr, v, out, transpose)
        want = M @ v
        assert np.array_equal(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))
        # each of B columns, B = 1 to 4, adds its terms as the one-vector
        # product does; one column runs the one-vector kernel on a matrix
        B = int(rng.integers(1, 5))
        V = rng.normal(size=(M.shape[1], B))
        V[rng.random(V.shape) < 0.3] = -0.0
        out = np.where(rng.random((M.shape[0], B)) < 0.5, -0.0, 1.0)
        _product((n, d), csr, V, out, transpose)
        assert np.array_equal(out, M @ V)
        for b in range(B):
            want = M @ V[:, b]
            assert np.array_equal(out[:, b], want)
            assert np.array_equal(np.signbit(out[:, b]), np.signbit(want))


@st.composite
def _bound_cases(draw):
    """K blocks of rows with negative values, empty rows and columns,
    duplicate rows, and zero and heavy sample weights."""
    K, d = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    sizes = np.array(draw(st.lists(st.integers(1, 15), min_size=K, max_size=K)))
    rng = make_rng(draw(st.integers(0, 10_000)))
    n = int(sizes.sum())
    A = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.5)
    A[rng.random(n) < 0.2] = 0.0
    A[:, rng.random(d) < 0.2] = 0.0
    copies = np.flatnonzero(rng.random(n) < 0.3)
    A[copies] = A[rng.integers(0, n, len(copies))]
    wts = rng.random(n) * (rng.random(n) < 0.7)
    wts[np.cumsum(sizes) - 1] += rng.choice([1.0, 100.0 * n], K)
    return sp.csr_matrix(A), sizes, wts


def _one_hot_shard(n, fields, seed):
    """n rows that each set one column per field, as a9a's one-hot census
    fields do, with skewed frequencies within each field."""
    rng = make_rng(seed)
    cols = np.stack([
        start + rng.choice(card, n, p=rng.dirichlet(np.full(card, 0.6)))
        for start, card in zip(np.cumsum(fields) - fields, fields)
    ], axis=1)
    rows = np.arange(n).repeat(len(fields))
    X = sp.csr_matrix((np.ones(cols.size), (rows, cols.ravel())), (n, sum(fields)))
    return X, np.array([n]), np.ones(n)


# a9a's 14 one-hot fields, 123 columns
_A9A_FIELDS = (5, 8, 5, 16, 5, 7, 14, 6, 5, 2, 2, 2, 5, 41)


@given(_bound_cases(), st.just(None))
# a9a-like teacher shard: the bound lies within 1% of the smoothness, where
# the row norms alone give more than twice it
@example(_one_hot_shard(100, _A9A_FIELDS, 1), 0.01)
# a negative entry, where |X| and X differ (d = 1, K = 1)
@example((sp.csr_matrix([[-2.0]]), np.array([1]), np.ones(1)), None)
def test_step_bound_lies_between_the_smoothness_and_the_row_norms(case, within):
    # per block, 0.25 lambda_max(X^T diag(w) X) <= L <= 0.25 max row
    # norm^2, X with its bias column; the eigenvalue is dense, hence the
    # relative slack of 1e-12 on both sides
    X, sizes, wts = case
    starts = np.cumsum(sizes) - sizes
    wts = wts / np.add.reduceat(wts, starts).repeat(sizes)
    X = Dataset(X).X
    # what `_train_columns` takes the least of, per block, on this layout
    layout = _Rows.of(X, sizes=sizes)
    row_max = np.maximum.reduceat(layout.row_sq, starts)
    bound = _smoothness_bound(layout.shape, layout.csr, wts[:, None], len(sizes))
    A = np.hstack([X.toarray(), np.ones((X.shape[0], 1))])
    for k, (lo, size) in enumerate(zip(starts, sizes)):
        B, w = A[lo : lo + size], wts[lo : lo + size]
        smooth = 0.25 * np.linalg.eigvalsh(B.T @ (w[:, None] * B)).max()
        rows = 0.25 * (B * B).sum(axis=1).max()
        L = 0.25 * min(row_max[k], bound[k, 0])
        assert smooth <= L * (1 + 1e-12)
        assert L <= rows * (1 + 1e-12)
        if within is not None:
            assert L <= (1 + within) * smooth


def test_warm_start_and_weights():
    data = _random_data(60, 4, 9)
    base = train_erm(data, 30)
    warm = train_erm(data, 30, init=base)
    assert not np.array_equal(base.weights, np.zeros(4))
    assert warm.weights.shape == (4,)
    w = np.ones(len(data))
    w[0] = 50.0
    weighted = train_erm(data, sample_weight=w)
    assert weighted.predict(data.X[0])[0] == data.y[0]


def _disagreement(h1, h2, data):
    # disagreement is h2's error on h1's labels
    return empirical_error(h2, data.with_labels(h1.predict(data.X)))


def test_empirical_error_and_disagreement():
    data = _random_data(100, 4, 13)
    h = train_erm(data)
    assert empirical_error(h, data.with_labels(h.predict(data.X))) == 0.0
    h2 = LinearHypothesis(-h.weights, -h.bias - 1.0)
    d = _disagreement(h, h2, data)
    assert 0.0 <= d <= 1.0


@given(st.integers(0, 500))
def test_disagreement_triangle_inequality(seed):
    rng = make_rng(seed)
    data = Dataset(rng.normal(size=(60, 3)))
    hs = [LinearHypothesis(rng.normal(size=3), rng.normal()) for _ in range(3)]
    a, b, c = hs
    dab = _disagreement(a, b, data)
    dbc = _disagreement(b, c, data)
    dac = _disagreement(a, c, data)
    assert dac <= dab + dbc + 1e-12


def test_committee_votes_match_member_loop():
    data = _random_data(300, 5, 17)
    ensemble = train_committee(data, 7, make_rng(3))
    assert ensemble.size == 7
    probe = _random_data(40, 5, 18, labeled=False)
    ones = ensemble.vote_ones(probe.X)
    manual = np.zeros(40, dtype=np.int64)
    for member in ensemble.members:
        manual += member.predict(probe.X)
    assert np.array_equal(ones, manual)
    vc = VoteCount(int(ensemble.vote_ones(probe.X[0])[0]), ensemble.size)
    assert vc.total == 7 and vc.ones == ones[0]
    assert vote_majority(vc) == int(2 * ones[0] >= 7)


def _sparse_data(n, d, seed):
    """Sparse rows, one-hot-like (0/1) for even seeds, real-valued for odd."""
    rng = make_rng(seed)
    X = sp.random(n, d, density=0.3, format="csr", random_state=seed)
    if seed % 2 == 0:
        X.data[:] = 1.0
    return Dataset(X, rng.integers(0, 2, n))


def _assert_matches_oracle(h, data, steps, sample_weight=None, init=None):
    w, b = oracles.reference_train_erm(data, steps, sample_weight, init)
    assert np.array_equal(h.weights, w)
    assert h.bias == b


@given(
    st.integers(1, 400),
    st.integers(1, 40),
    st.integers(1, 25),
    st.integers(0, 10_000),
    st.integers(1, 30),
)
@example(7, 7, 5, 4, 30)  # shards of 1 row
@example(21, 7, 6, 5, 30)  # shards of 3 rows
@example(60, 12, 8, 1, 30)  # shards of 5 rows
@example(300, 3, 20, 6, 100)  # 100 steps, more than the committee's 70
@example(401, 2, 10, 2, 20)  # shards of 200 and 201 rows
@example(300, 7, 12, 3, 25)  # shards of 43 and 42 rows
@example(40, 4, 1, 8, 30)  # d = 1: most rows have no features
@example(50, 1, 6, 3, 30)  # K = 1
@example(60, 3, 40, 1, 30)  # a row's squares sum differently in order
@example(200, 20, 4, 4, 60)  # 20 one-hot-like shards of 10 rows
def test_committee_members_equal_lone_fits(n, K, d, seed, steps):
    # every member equals a lone reference fit of its split_disjoint shard
    K = min(K, n)
    data = _sparse_data(n, d, seed)
    ensemble = train_committee(data, K, make_rng(seed), steps)
    shards = split_disjoint(data, K, make_rng(seed))
    assert ensemble.size == len(shards) == K
    for member, shard in zip(ensemble.members, shards):
        _assert_matches_oracle(member, shard, steps)


def _split_at(mp, entries, cpus):
    """Make train_committee split designs of at least `entries` entries
    on a host whose affinity set holds `cpus` CPUs."""
    mp.setattr(learners, "_SPLIT_ENTRIES", entries)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _threads_started(mp, *args, **kwargs):
    """train_committee(*args, **kwargs) and the number of threads it
    started, having checked that it leaves none running."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    mp.setattr(threading.Thread, "start", counted)
    before = threading.active_count()
    ensemble = train_committee(*args, **kwargs)
    assert threading.active_count() == before
    return ensemble, len(started)


def _same_bits(h, g):
    """Equal weights and bias, bit for bit: signs of zero included."""
    return np.array_equal(h.weights.view(np.int64), g.weights.view(np.int64)) and (
        np.float64(h.bias).view(np.int64) == np.float64(g.bias).view(np.int64)
    )


@given(
    st.integers(2, 200),
    st.integers(2, 12),
    st.booleans(),
    st.integers(0, 10_000),
    st.integers(1, 30),
)
@example(41, 2, False, 3, 20)  # K = 2: halves of one block, 21 and 20 rows
@example(23, 5, True, 5, 20)  # odd K: halves of three and two blocks
@example(22, 5, False, 7, 20)  # blocks of 5, 5, 4 | 4, 4 rows: a mixed half
@example(2, 2, True, 1, 5)  # one row per member
def test_two_part_committee_equals_one_part_and_lone_fits(n, K, one_hot, seed, steps):
    # the split committee runs its second half of the blocks in a worker
    # thread; every member must be what the one-part committee and a lone
    # fit of its shard give, bit for bit
    K = min(K, n)
    rng = make_rng(seed)
    if one_hot:
        X = _one_hot_shard(n, _A9A_FIELDS[:4], seed)[0]
    else:
        X = rng.normal(size=(n, 6)) * (rng.random((n, 6)) < 0.4)
        X[rng.random(n) < 0.2] = 0.0
    data = Dataset(X, rng.integers(0, 2, n))
    with pytest.MonkeyPatch.context() as mp:
        _split_at(mp, 0, 1)
        one, one_threads = _threads_started(mp, data, K, make_rng(seed), steps)
        _split_at(mp, 0, 2)
        two, two_threads = _threads_started(mp, data, K, make_rng(seed), steps)
    assert (one_threads, two_threads) == (0, 1)
    shards = split_disjoint(data, K, make_rng(seed))
    assert one.size == two.size == len(shards) == K
    for a, b, shard in zip(one.members, two.members, shards):
        lone = train_erm(shard, steps)
        assert _same_bits(a, lone) and _same_bits(b, lone)


@given(
    st.integers(2, 150),
    st.integers(1, 10),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(0, 10_000),
)
@example(60, 4, 0.5, True, False, False, 1)  # half the rows, sorted, one part
@example(60, 4, 0.5, False, True, True, 2)  # half the rows, unsorted, two parts
@example(41, 2, 1.0, False, True, False, 3)  # every row, permuted, two parts
@example(30, 5, 0.0, False, False, True, 4)  # K rows, one per member
def test_committee_on_rows_equals_the_committee_on_their_subset(
    n, K, share, sort, two, one_hot, seed
):
    # train_committee(data, K, rng, rows=idx) gathers its shards from data
    # through idx; its members, bit for bit, and the rng it leaves must be
    # those of the committee on the copied rows data.subset(idx)
    K = min(K, n)
    rng = make_rng(seed)
    if one_hot:
        X = _one_hot_shard(n, _A9A_FIELDS[:4], seed)[0]
    else:
        X = rng.normal(size=(n, 6)) * (rng.random((n, 6)) < 0.4)
        X[rng.random(n) < 0.2] = 0.0
    data = Dataset(X, rng.integers(0, 2, n))
    idx = rng.permutation(n)[: max(K, round(share * n))]
    if sort:
        idx.sort()
    got_rng, want_rng = make_rng(seed + 1), make_rng(seed + 1)
    with pytest.MonkeyPatch.context() as mp:
        _split_at(mp, 0, 2 if two else 1)
        got, threads = _threads_started(mp, data, K, got_rng, 7, rows=idx)
        want, _ = _threads_started(mp, data.subset(idx), K, want_rng, 7)
    assert threads == int(two and K > 1)
    assert got.size == want.size == K
    assert all(_same_bits(a, b) for a, b in zip(got.members, want.members))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize(
    "rows", [[-1, 2, 3], [0, 1, 60], [0.0, 1.0, 2.0], [True] * 60, [[0, 1], [2, 3]]]
)
def test_committee_rows_must_index_the_data(rows):
    with pytest.raises(ValueError, match="rows must be indices of the 60 rows"):
        train_committee(_sparse_data(60, 4, 2), 2, make_rng(0), rows=rows)


def _bits(a):
    """An array's dtype and bytes: equal only bit for bit."""
    return a.dtype, a.tobytes()


@given(
    st.integers(1, 60),
    st.integers(1, 8),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.15, 0.5]),
    st.booleans(),
    st.integers(0, 10_000),
)
@example(5, 1, 3, 0.0, False, 1)  # K = 1, no stored entry at all
@example(9, 3, 4, 0.0, True, 2)  # two parts, no stored entry at all
@example(40, 1, 5, 0.5, False, 3)  # K = 1, mixed signs
@example(41, 6, 5, 0.15, True, 4)  # two parts of three blocks, empty rows
def test_gathered_layout_equals_the_layout_of_a_subset(n, K, d, density, two, seed):
    # a committee part lays out its rows straight from the teacher CSR, in
    # permuted order: its arrays, row norms, step bounds and fits must be
    # those of the same rows copied out by Dataset.subset first, bit for bit
    K = min(K, n)
    rng = make_rng(seed)
    A = rng.normal(size=(n, d)) * (rng.random((n, d)) < density)
    data = Dataset(A, rng.integers(0, 2, n))
    csr = (data.X.indptr, data.X.indices, data.X.data)
    if seed % 2:  # a source of int64 indices, laid out with int32 ones
        csr = (csr[0].astype(np.int64), csr[1].astype(np.int64), csr[2])
    parts = np.array_split(learners._part_sizes(n, K), 2 if two and K > 1 else 1)
    cuts = np.cumsum([part.sum() for part in parts])[:-1]
    for rows, part in zip(np.split(rng.permutation(n), cuts), parts):
        copy = data.subset(rows)
        copy_csr = (copy.X.indptr, copy.X.indices, copy.X.data)
        in_order = np.arange(len(rows))
        got, got_sq = learners._bias_layout(csr, rows, part, d)
        want, want_sq = learners._bias_layout(copy_csr, in_order, part, d)
        assert [_bits(a) for a in (*got, got_sq)] == [_bits(a) for a in (*want, want_sq)]
        # and the layout is block k's rows, then a bias column of ones,
        # at columns k(d+1) on
        starts = np.cumsum(part) - part
        blocks = [copy.X[lo : lo + size] for lo, size in zip(starts, part)]
        ones = [sp.hstack([b, np.ones((b.shape[0], 1))]) for b in blocks]
        reference = sp.block_diag(ones, format="csr")
        assert np.array_equal(got[0], reference.indptr)
        assert np.array_equal(got[1], reference.indices)
        assert np.array_equal(got[2], reference.data)
        assert np.allclose(got_sq, 1.0 + (copy.X.toarray() ** 2).sum(axis=1))
        # the part's `_Rows` and the copy's hold these arrays; so their
        # bounds, row maxima and fits are the same too
        layout = [_bits(a) for a in (*got, got_sq, part)]
        gathered, copied = _Rows.of(data.X, rows, part), _Rows.of(copy.X, sizes=part)
        for r in (gathered, copied):
            assert r.shape == (len(rows), len(part) * (d + 1))
            assert [_bits(a) for a in (*r.csr, r.row_sq, r.sizes)] == layout
        wts, k = (1.0 / part).repeat(part)[:, None], len(part)
        bounds = [_smoothness_bound(r.shape, r.csr, wts, k) for r in (gathered, copied)]
        assert _bits(bounds[0]) == _bits(bounds[1])
        maxima = [np.maximum.reduceat(r.row_sq, starts) for r in (gathered, copied)]
        assert _bits(maxima[0]) == _bits(maxima[1])
        fits = _train_columns(gathered, data.y[rows][:, None], 5, [None], [None])
        want = _train_columns(copied, copy.y[:, None], 5, [None], [None])
        assert len(fits) == len(want) == len(part)
        assert all(_same_bits(h, g) for h, g in zip(fits, want))


def test_committee_builds_no_dataset_from_the_teacher_rows(monkeypatch):
    # each part gathers its rows from the teacher CSR; none is copied out
    built = []
    post_init = Dataset.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    data = _sparse_data(60, 4, 2)
    monkeypatch.setattr(Dataset, "__post_init__", counting)
    for cpus in (1, 2):
        _split_at(monkeypatch, 0, cpus)
        assert train_committee(data, 3, make_rng(0)).size == 3
        rows = make_rng(1).permutation(60)[:40]
        assert train_committee(data, 3, make_rng(0), rows=rows).size == 3
    assert built == []


@pytest.mark.parametrize(
    "K, gate, affinity, count, threads",
    [
        (1, 0, 2, 2, 0),  # K = 1
        (3, 0, 1, 2, 0),  # a one-CPU host
        (3, 0, None, 1, 0),  # no sched_getaffinity: os.cpu_count() decides
        (3, 0, None, None, 0),  # ... and may not know
        (3, 1, 2, 2, 0),  # a design one entry under the gate
        (3, 0, 2, 2, 1),  # a design at the gate
        (3, 0, None, 2, 1),  # ... and splits on two
    ],
)
def test_committee_starts_a_thread_only_when_it_splits(
    monkeypatch, K, gate, affinity, count, threads
):
    data = _sparse_data(60, 4, 2)
    _split_at(monkeypatch, data.X.nnz + len(data) + gate, affinity or 0)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    ensemble, started = _threads_started(monkeypatch, data, K, make_rng(4))
    assert started == threads
    assert ensemble.size == K


def test_split_committee_raises_what_either_half_raises(monkeypatch):
    _split_at(monkeypatch, 0, 2)
    data = _sparse_data(60, 4, 2)
    before = threading.active_count()
    with pytest.raises(ValueError, match="steps must be a positive integer"):
        train_committee(data, 3, make_rng(0), 0)
    assert threading.active_count() == before
    # an error in the worker's half alone reaches the caller
    caller = threading.current_thread()

    def failing(*args):
        if threading.current_thread() is not caller:
            raise RuntimeError("the worker's half failed")
        return _train_columns(*args)

    monkeypatch.setattr(learners, "_train_columns", failing)
    with pytest.raises(RuntimeError, match="the worker's half failed"):
        train_committee(data, 3, make_rng(0))
    assert threading.active_count() == before


def test_split_committee_runs_no_traced_name_off_the_calling_thread(
    monkeypatch, tmp_path
):
    # the benchmark's Tracer keeps one span stack for one thread, so the
    # worker may run only what it does not trace: `_Rows.of`, which lays
    # out the worker's part from the parsed rows through the teacher
    # indices, and `_train_columns`, which fits it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    threads = defaultdict(set)
    committee_rows = []

    def spy(name, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            threads[name].add(threading.get_ident())
            if name == "learners.train_committee":
                committee_rows.append(kwargs["rows"])
            return fn(*args, **kwargs)

        return call

    for owner, attr, name, _ in tracing._targets():
        monkeypatch.setattr(owner, attr, spy(name, owner.__dict__[attr]))
    monkeypatch.setattr(learners, "_train_columns", spy("fit", _train_columns))
    monkeypatch.setattr(_Rows, "of", classmethod(spy("of", _Rows.of.__func__)))
    _split_at(monkeypatch, 0, 2)
    path = tmp_path / "massart.libsvm"
    write_libsvm(gen_massart(6, 1200, 0.1, make_rng(3))[0], path)
    for method in ("PsqGaussian", "Asq"):
        run_experiment(ExperimentConfig(str(path), method, trials=1, seed=5))
    caller = threading.get_ident()
    # each trial's committee read the parsed rows through its teacher indices
    assert len(committee_rows) == 2
    assert all(len(rows) == 960 for rows in committee_rows)  # 80% of 1200
    assert threads.pop("fit") - {caller}, "no committee was split"
    assert threads.pop("of") - {caller}, "the worker laid out no part"
    traced = {"learners.train_committee", "pipelines.LinearClassDescriptor.refit"}
    assert traced <= set(threads)
    assert {name for name, ids in threads.items() if ids != {caller}} == set()


@given(st.integers(2, 300), st.integers(1, 20), st.integers(0, 10_000))
@example(40, 1, 8)  # d = 1: most rows have no features
@example(30, 40, 7)  # a row's squares sum differently in order
def test_train_erm_weights_and_init_equal_lone_fit(n, d, seed):
    data = _sparse_data(n, d, seed)
    rng = make_rng(seed + 1)
    weight = rng.random(n) * (rng.random(n) < 0.8)
    weight[0] += n  # one heavy row, as in the active probe fits
    init = LinearHypothesis(rng.normal(size=d), float(rng.normal()))
    h = train_erm(data, 25, sample_weight=weight, init=init)
    _assert_matches_oracle(h, data, 25, weight, init)


@st.composite
def _column_cases(draw):
    """Rows of mixed signs with empty and duplicate rows, and B label and
    weight columns: a heavy last weight, zero weights, distinct inits."""
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 12))
    B = draw(st.integers(1, 3))
    rng = make_rng(draw(st.integers(0, 10_000)))
    A = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.5)
    A[rng.random(n) < 0.2] = 0.0
    copies = np.flatnonzero(rng.random(n) < 0.3)
    A[copies] = A[rng.integers(0, n, len(copies))]
    labels = [rng.integers(0, 2, n) for _ in range(B)]
    weights = []
    for _ in range(B):
        if rng.random() < 0.3:
            weights.append(None)
        else:
            w = rng.random(n) * (rng.random(n) < 0.8)
            w[-1] += rng.choice([1.0, n + 1.0, 100.0 * n])
            weights.append(w)
    inits = [
        None if rng.random() < 0.3
        else LinearHypothesis(rng.normal(size=d), float(rng.normal()))
        for _ in range(B)
    ]
    return Dataset(A).X, labels, weights, inits


@given(_column_cases(), st.integers(1, 30))
def test_column_fits_equal_lone_fits(case, steps):
    # the active probe fits three label and weight columns over one copy
    # of the rows; each must be the lone fit of its column, bit for bit
    X, labels, weights, inits = case
    fits = _train_columns(_Rows.of(X), np.stack(labels, axis=1), steps, weights, inits)
    assert len(fits) == len(labels)
    for h, y, w, init in zip(fits, labels, weights, inits):
        lone = train_erm(Dataset(X, y), steps, sample_weight=w, init=init)
        assert np.array_equal(h.weights, lone.weights)
        assert np.array_equal(np.signbit(h.weights), np.signbit(lone.weights))
        assert h.bias == lone.bias


@given(_column_cases(), st.booleans())
def test_column_step_bounds_equal_lone_bounds(case, as_probe):
    # columns without sample weights share one bound; each column's
    # weights and bound must still be its lone fit's, bit for bit
    X, labels, weights, inits = case
    if as_probe:  # the probe's weights, then its two unweighted references
        weights = weights[:1] + [None] * (len(weights) - 1)
    rows, calls = _Rows.of(X), []

    def spy(shape, csr, wts, K):
        calls.append((wts.copy(), _smoothness_bound(shape, csr, wts, K)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learners, "_smoothness_bound", spy)
        _train_columns(rows, np.stack(labels, axis=1), 1, weights, inits)
        for y, w in zip(labels, weights):
            _train_columns(rows, y[:, None], 1, [w], [None])
    distinct = any(w is None for w in weights) + sum(w is not None for w in weights)
    (batched_wts, batched), *lone = calls
    assert batched.shape == (1, distinct) and len(lone) == len(labels)
    for lone_wts, bound in lone:
        # the column of the batched weights that is this fit's
        slots = [s for s, w in enumerate(batched_wts.T) if _bits(w) == _bits(lone_wts)]
        assert slots and bound.shape == (1, 1)
        assert _bits(batched[:, slots[0]]) == _bits(bound[:, 0])


@pytest.mark.parametrize("steps", [1, 10, 35])
def test_a_fit_makes_two_kernel_calls_a_step_and_eight_a_weight_column(
    kernel_calls, steps
):
    # at probe size a fit costs its dispatches, not its arithmetic: each
    # step is one product and one transposed product, and each distinct
    # weight column's step bound four of each; a change that adds a
    # dispatch anywhere in a fit fails here
    data = _random_data(40, 5, 2)
    weight = make_rng(2).random(40)
    rows, Y = _Rows.of(data.X), np.stack([data.y, 1 - data.y, data.y], axis=1)
    cases = [
        (lambda: train_erm(data, steps), 1),
        (lambda: train_erm(data, steps, sample_weight=weight), 1),
        (lambda: train_committee(data, 4, make_rng(0), steps), 1),  # one part
        (lambda: _train_columns(rows, Y, steps, [None] * 3, [None] * 3), 1),
        (lambda: _train_columns(rows, Y, steps, [weight, None, None], [None] * 3), 2),
        (lambda: _train_columns(rows, Y, steps, [weight, weight, None], [None] * 3), 3),
    ]
    for fit, columns in cases:
        kernel_calls.clear()
        fit()
        assert sum(kernel_calls.values()) == 2 * steps + 8 * columns


def test_fits_on_an_infinite_feature_fail_naming_finiteness():
    # the dataset rejects it, before any fit can step in it and raise a
    # RuntimeWarning; a sum of duplicates that overflows counts too
    X = _random_data(30, 3, 4).X.toarray()
    for bad in (np.inf, -np.inf, np.nan):
        X[5, 1] = bad
        for features in (X, sp.csr_matrix(X)):
            with pytest.raises(ValueError, match="feature values must be finite"):
                Dataset(features, make_rng(4).integers(0, 2, 30))
    duplicates = sp.csr_matrix(([1e308, 1e308], [0, 0], [0, 2]), shape=(1, 1))
    with pytest.raises(ValueError, match="feature values must be finite"):
        Dataset(duplicates)


def test_fits_on_a_huge_feature_fail_naming_finiteness():
    # a finite 1e200 overflows the iterate; the finiteness check runs once
    # on the final iterate of each descent
    X = _random_data(30, 3, 4).X.toarray()
    X[5, 1] = 1e200
    data = Dataset(X, make_rng(4).integers(0, 2, 30))
    Y = np.stack([data.y, 1 - data.y, data.y], axis=1)
    fits = [
        lambda: train_erm(data, 10),
        lambda: _train_columns(_Rows.of(data.X), Y, 10, [None] * 3, [None] * 3),
        lambda: train_committee(data, 3, make_rng(0), 10),
    ]
    for fit in fits:
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            fit()


def test_descend_leaves_the_start_unchanged():
    # the descent starts from copies of the inits' weights and biases
    data = _random_data(30, 3, 5)
    rng = make_rng(5)
    inits = [LinearHypothesis(rng.normal(size=3), float(rng.normal())) for _ in "ab"]
    starts = [(_bits(h.weights), h.bias) for h in inits]
    Y = np.stack([data.y, 1 - data.y], axis=1)
    fits = _train_columns(_Rows.of(data.X), Y, 5, [None, None], inits)
    assert [(_bits(h.weights), h.bias) for h in inits] == starts
    for h in fits:
        assert not any(np.shares_memory(h.weights, init.weights) for init in inits)


@given(st.integers(0, 10_000))
def test_row_scores_equal_the_decision(seed):
    # stored -0.0 entries, empty rows and signed-zero weights and bias
    rng = make_rng(seed)
    n, d = (int(v) for v in rng.integers(1, 20, 2))
    A = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.4)
    A[rng.random(n) < 0.3] = 0.0
    X = sp.csr_matrix(A)
    X.data[rng.random(X.nnz) < 0.2] = -0.0
    w = np.where(rng.random(d) < 0.3, -0.0, rng.normal(size=d))
    bias = float(rng.choice([0.0, -0.0, rng.normal()]))
    h = LinearHypothesis(w, bias)
    got, want = _Rows.of(X).scores(h), h.decision(X)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_duplicate_entries_fit_like_their_sums():
    # rows stored with repeated and unsorted columns and a stored zero, as
    # a hand-built CSR may hold them
    rng = make_rng(9)
    n, d = 30, 6
    indptr = np.arange(0, 4 * n + 1, 4)
    cols = rng.integers(0, d, 4 * n)
    vals = rng.normal(size=4 * n)
    vals[5] = 0.0
    X = sp.csr_matrix((vals, cols, indptr), shape=(n, d))
    assert not X.has_canonical_format
    stored = X.data.copy(), X.indices.copy()
    canonical = X.copy()
    canonical.sum_duplicates()
    canonical.eliminate_zeros()
    y = rng.integers(0, 2, n)
    data = Dataset(X, y)
    # the caller's matrix is left as it was
    assert np.array_equal(X.data, stored[0]) and np.array_equal(X.indices, stored[1])
    assert data.X.has_canonical_format and data.X.data.all()
    assert (data.X != canonical).nnz == 0
    h = train_erm(data, 30)
    _assert_matches_oracle(h, Dataset(canonical, y), 30)
    # a canonical matrix is taken as it is
    assert Dataset(canonical, y).X is canonical


def test_majority_tie_goes_to_one():
    up = LinearHypothesis(np.array([0.0]), 1.0)
    down = LinearHypothesis(np.array([0.0]), -1.0)
    ensemble = Ensemble([up, down])
    ones = int(ensemble.vote_ones(np.zeros((1, 1)))[0])
    assert vote_majority(VoteCount(ones, ensemble.size)) == 1


# ---------------------------------------------------------------------------
# Finite classes


def test_finite_class_mistake_counts_match_brute_force():
    rng = make_rng(23)
    labels = rng.integers(0, 2, size=(9, 15))
    hclass = FiniteHypothesisClass(labels)
    assert hclass.n_members == 9 and hclass.labels.shape[1] == 15
    xs = list(rng.integers(0, 15, size=10))
    ys = list(rng.integers(0, 2, size=10))
    counts = hclass.mistake_counts(xs, ys)
    brute = [
        sum(1 for x, y in zip(xs, ys) if labels[m, x] != y) for m in range(9)
    ]
    assert counts.tolist() == brute


def test_finite_class_counts_an_empty_sample_as_no_mistakes():
    hclass = FiniteHypothesisClass(np.array([[0, 1], [1, 1], [1, 0]]))
    dtype = hclass.mistake_counts([0], [1]).dtype
    for xs, ys in (([], []), (np.array([], dtype=int), np.array([]))):
        counts = hclass.mistake_counts(xs, ys)
        assert counts.tolist() == [0, 0, 0]
        assert counts.dtype == dtype


def test_threshold_class_structure():
    pts = np.array([0.1, 0.9, 0.4, 0.6])
    hclass = threshold_class(pts)
    assert hclass.n_members == 5
    assert hclass.labels.shape[1] == 4
    # member k labels 1 exactly the 4 - k largest points
    order = np.argsort(pts)
    for k in range(5):
        preds = np.asarray(hclass.labels[k])
        assert preds.sum() == 4 - k
        expected = np.zeros(4, dtype=preds.dtype)
        expected[order[k:]] = 1
        assert np.array_equal(preds, expected)


def test_threshold_class_is_realizable():
    rng = make_rng(41)
    pts = rng.random(30)
    hclass = threshold_class(pts)
    for cut in (0.0, 0.3, 0.75, 1.0):
        ys = (pts >= cut).astype(int)
        counts = hclass.mistake_counts(list(range(30)), list(ys))
        assert counts.min() == 0


# ---------------------------------------------------------------------------
# Vote-margin reports


def test_margin_distribution_report_schema():
    data, _ = gen_massart(3, 300, 0.2, make_rng(71))
    rows = margin_distribution_report(data, 9, 12, 4, make_rng(72))
    assert len(rows) == 12
    for i, row in enumerate(rows):
        assert row["probe_id"] == i
        assert 0.0 <= row["delta_hat"] <= 0.5
        assert 0.0 <= row["delta_hstar"] <= 0.5
    again = margin_distribution_report(data, 9, 12, 4, make_rng(72))
    assert rows == again


def test_margin_distribution_report_dataset_path():
    data, _ = gen_realizable(3, 400, make_rng(81))
    rows = margin_distribution_report(data, 5, 10, 8, make_rng(82))
    assert len(rows) == 10
    assert set(rows[0]) == {"probe_id", "delta_hat", "delta_hstar"}
    with pytest.raises(ValueError, match="need labels"):
        margin_distribution_report(data.without_labels(), 5, 10, 8, make_rng(82))
    with pytest.raises(ValueError, match="smaller than the dataset"):
        margin_distribution_report(data, 5, 400, 8, make_rng(82))
