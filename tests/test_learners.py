"""Datasets, ERM training, committees, and finite-class machinery."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

import oracles
from privote import (
    Dataset,
    Ensemble,
    FiniteHypothesisClass,
    LinearHypothesis,
    TrainerSettings,
    VoteCount,
    empirical_error,
    gen_realizable,
    gen_voting_wins,
    make_rng,
    margin_distribution_report,
    split_disjoint,
    threshold_class,
    train_committee,
    train_erm,
    train_erm_batch,
    vote_majority,
)
from privote.learners import _matvec


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
    # Su, Boyd & Candes 2016); the loss itself need not fall at every step
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
    L = 0.25 * float((A * A).sum(axis=1).max())
    radius = float(opt.x @ opt.x)  # x_0 = 0
    for k in range(1, 121):
        h = train_erm(data, TrainerSettings(max_iter=k))
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


@pytest.mark.parametrize("width", [5, 2])
def test_train_erm_batch_rejects_blocks_of_another_width(width):
    # a wider block's columns would land on the next block's or past the end
    y = np.array([0, 1, 1])
    blocks = [Dataset(np.eye(3), y), Dataset(np.eye(3, width, width - 3), y)]
    with pytest.raises(ValueError, match=f"block 1 has {width} features, block 0 3"):
        train_erm_batch(blocks)


@given(st.integers(0, 10_000), st.sampled_from([np.int32, np.int64]))
def test_matvec_equals_scipy_products(seed, index_type):
    # the descent calls scipy's private csr_matvec and csc_matvec kernels;
    # a scipy that changes them must fail here rather than move the fits
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
        _matvec((n, d), csr, v, out, transpose)
        want = M @ v
        assert np.array_equal(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))


def test_warm_start_and_weights():
    data = _random_data(60, 4, 9)
    base = train_erm(data, TrainerSettings(max_iter=30))
    warm = train_erm(data, TrainerSettings(max_iter=30), init=base)
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


def _assert_matches_oracle(h, data, settings, sample_weight=None, init=None):
    """h equals the reference fit; returns the reference's step count."""
    w, b, steps = oracles.reference_train_erm(data, settings, sample_weight, init)
    assert np.array_equal(h.weights, w)
    assert h.bias == b
    return steps


def _assert_committee_matches_oracle(data, K, seed, settings):
    """Every member equals a lone reference fit of its split_disjoint shard;
    returns each reference fit's step count."""
    ensemble = train_committee(data, K, make_rng(seed), settings)
    shards = split_disjoint(data, K, make_rng(seed))
    assert ensemble.size == len(shards) == K
    return [
        _assert_matches_oracle(member, shard, settings)
        for member, shard in zip(ensemble.members, shards)
    ]


@given(
    st.integers(1, 400),
    st.integers(1, 40),
    st.integers(1, 25),
    st.integers(0, 10_000),
    st.integers(1, 30),
    st.sampled_from([0.0, 0.05]),
    st.sampled_from([1e-10, 1e-3, 5e-2]),
)
@example(7, 7, 5, 4, 30, 0.0, 1e-10)  # shards of 1 row
@example(21, 7, 6, 5, 30, 0.05, 1e-10)  # shards of 3 rows, l2 > 0
@example(60, 12, 8, 1, 30, 0.0, 1e-10)  # shards of 5 rows
@example(300, 3, 20, 6, 100, 0.0, 1e-10)  # the committee's 100 steps
@example(401, 2, 10, 2, 20, 0.0, 1e-10)  # shards of 200 and 201 rows
@example(300, 7, 12, 3, 25, 0.05, 1e-10)  # l2 > 0
@example(40, 4, 1, 8, 30, 0.0, 1e-10)  # d = 1: most rows have no features
@example(50, 1, 6, 3, 30, 0.0, 1e-10)  # K = 1
@example(60, 3, 40, 1, 30, 0.0, 1e-10)  # a row's squares sum differently in order
@example(200, 20, 4, 4, 60, 0.05, 5e-2)  # l2 > 0 and members stopping at 2-6 steps
def test_committee_members_equal_lone_fits(n, K, d, seed, iters, l2, tol):
    K = min(K, n)
    settings = TrainerSettings(max_iter=iters, l2=l2, grad_tol=tol)
    _assert_committee_matches_oracle(_sparse_data(n, d, seed), K, seed, settings)


def test_committee_members_stop_at_their_own_step():
    settings = TrainerSettings(max_iter=60, grad_tol=5e-2)
    steps = _assert_committee_matches_oracle(_sparse_data(200, 4, 4), 20, 4, settings)
    # some teachers stopped while others kept going
    assert min(steps) < max(steps)


@given(
    st.integers(2, 300),
    st.integers(1, 20),
    st.integers(0, 10_000),
    st.sampled_from([0.0, 0.05]),
)
@example(40, 1, 8, 0.0)  # d = 1: most rows have no features
@example(30, 40, 7, 0.0)  # a row's squares sum differently in order
def test_train_erm_weights_and_init_equal_lone_fit(n, d, seed, l2):
    data = _sparse_data(n, d, seed)
    rng = make_rng(seed + 1)
    weight = rng.random(n) * (rng.random(n) < 0.8)
    weight[0] += n  # one heavy row, as in the active probe fits
    init = LinearHypothesis(rng.normal(size=d), float(rng.normal()))
    settings = TrainerSettings(max_iter=25, l2=l2)
    h = train_erm(data, settings, sample_weight=weight, init=init)
    _assert_matches_oracle(h, data, settings, weight, init)


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
    settings = TrainerSettings(max_iter=30)
    h = train_erm(data, settings)
    _assert_matches_oracle(h, Dataset(canonical, y), settings)
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


def test_finite_class_erm_matches_brute_force():
    rng = make_rng(23)
    labels = rng.integers(0, 2, size=(9, 15))
    hclass = FiniteHypothesisClass(labels)
    assert hclass.n_members == 9 and hclass.domain_size == 15
    xs = list(rng.integers(0, 15, size=10))
    ys = list(rng.integers(0, 2, size=10))
    counts = hclass.mistake_counts(xs, ys)
    brute = [
        sum(1 for x, y in zip(xs, ys) if labels[m, x] != y) for m in range(9)
    ]
    assert counts.tolist() == brute
    assert brute[hclass.erm(xs, ys, rng)] == min(brute)


def test_finite_class_tie_breaking():
    labels = np.array([[0, 1], [0, 1], [1, 0]])
    hclass = FiniteHypothesisClass(labels)
    xs, ys = [0, 1], [0, 1]
    # members 0 and 1 are both perfect; each wins about half the draws
    rng = make_rng(31)
    draws = [hclass.erm(xs, ys, rng) for _ in range(3_000)]
    freq = np.bincount(draws, minlength=3) / 3_000
    assert freq[2] == 0.0
    assert 0.4 < freq[0] < 0.6


def test_threshold_class_structure():
    pts = np.array([0.1, 0.9, 0.4, 0.6])
    hclass = threshold_class(pts)
    assert hclass.n_members == 5
    assert hclass.domain_size == 4
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
    gen = gen_voting_wins(0.2, 200, make_rng(71))
    rows = margin_distribution_report(gen, 9, 12, 40, make_rng(72))
    assert len(rows) == 12
    for i, row in enumerate(rows):
        assert row["probe_id"] == i
        assert 0.0 <= row["delta_hat"] <= 0.5
        assert 0.0 <= row["delta_hstar"] <= 0.5
    again = margin_distribution_report(gen, 9, 12, 40, make_rng(72))
    assert rows == again


def test_margin_distribution_report_dataset_path():
    data, _ = gen_realizable(3, 400, make_rng(81))
    rows = margin_distribution_report(data, 5, 10, 8, make_rng(82))
    assert len(rows) == 10
    assert set(rows[0]) == {"probe_id", "delta_hat", "delta_hstar"}
