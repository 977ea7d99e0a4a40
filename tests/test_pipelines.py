"""Passive and active labeling pipelines plus parameter sizing."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import oracles
import privote.pipelines
import privote.learners
from privote.learners import _Rows, threshold_class
from privote.pipelines import compute_k_for_gaussian
from privote import (
    Dataset,
    FiniteClassDescriptor,
    FiniteHypothesisClass,
    LinearClassDescriptor,
    LinearHypothesis,
    PrivacyBudget,
    RunReport,
    active_update_version_space,
    calibrate_gaussian_sigma,
    compute_svt_params,
    gen_massart,
    gen_realizable,
    make_rng,
    pate_asq,
    pate_psq,
    run_active_learning,
    train_erm,
)


def _split_three(data, n_teacher, n_pool, n_test):
    teacher = data.subset(np.arange(n_teacher))
    pool = data.subset(np.arange(n_teacher, n_teacher + n_pool)).without_labels()
    test = data.subset(np.arange(n_teacher + n_pool, n_teacher + n_pool + n_test))
    return teacher, pool, test


def _onehot_clusters(n, n_patterns, seed):
    """Duplicated one-hot rows: the pool where label reuse actually pays."""
    rng = make_rng(seed)
    ids = rng.integers(0, n_patterns, size=n)
    X = sp.csr_matrix(
        (np.ones(n), (np.arange(n), ids)), shape=(n, n_patterns)
    )
    y = (ids % 2).astype(np.int64)
    return Dataset(X, y)


# ---------------------------------------------------------------------------
# Parameter sizing


@pytest.mark.parametrize("m", (10, 163, 1000, 1, 49, 240, 10**5))
@pytest.mark.parametrize("eps", (0.5, 1.0, 2.0, 0.05, 8.0))
@pytest.mark.parametrize("n", (100, 6499, 1, 10**6))
def test_k_for_gaussian_identity(m, eps, n):
    budget = PrivacyBudget(eps, 1e-5)
    K = compute_k_for_gaussian(m, budget, n)
    sigma = calibrate_gaussian_sigma(m, budget)
    assert K == math.ceil(6.0 * sigma * math.sqrt(2.0 * math.log(2.0 * n)))
    # the same K as with the zCDP sigma written out in closed form
    a = m * math.log(1.0 / 1e-5)
    inner = math.sqrt(a) + math.sqrt(a + eps * m)
    assert K == math.ceil(6.0 * math.sqrt(math.log(2.0 * n)) * inner / eps)


def test_k_for_gaussian_epsilon_scaling():
    n = 1000
    ks = [
        compute_k_for_gaussian(100, PrivacyBudget(eps, 1e-5), n)
        for eps in (4.0, 2.0, 1.0, 0.5)
    ]
    assert ks == sorted(ks)
    # halving epsilon grows K by a factor strictly between sqrt(2) and 2
    for small, big in zip(ks, ks[1:]):
        assert math.sqrt(2.0) * small < big <= 2 * small + 1
    with pytest.raises(ValueError):
        compute_k_for_gaussian(0, PrivacyBudget(1.0, 1e-5), n)


def test_compute_svt_params():
    budget = PrivacyBudget(1.0, 1e-5)
    T, K = compute_svt_params(1000, budget)
    assert T == math.ceil(3.0 * math.sqrt(1000 * math.log(1000 / 0.05) / 2.0))
    assert K >= 1
    T_big, _ = compute_svt_params(4000, budget)
    assert T_big > T
    with pytest.raises(ValueError):
        compute_svt_params(0, budget)


# ---------------------------------------------------------------------------
# Passive pipeline


def test_pipelines_check_their_arguments_before_training(monkeypatch):
    """A bad K, cutoff or query budget fails naming it before any teacher
    trains, and the budget is never left out: the exact baseline is
    asked for with budget=None. The cutoff and rng are passed by name."""
    trained = []

    def spy(*args):
        trained.append(args)
        raise AssertionError("the committee trained")

    monkeypatch.setattr(privote.pipelines, "train_committee", spy)
    data, _ = gen_realizable(3, 140, make_rng(36))
    teacher, pool, test = _split_three(data, 100, 20, 20)
    budget = PrivacyBudget(1.0, 1e-5)
    cases = [
        (pate_psq, (0, budget), {}, "K must be positive"),
        (pate_asq, (0, 5, budget), {}, "K must be positive"),
        # stable release needs a positive cutoff and a budget
        (pate_psq, (5, budget), {"T": 0}, "stable release needs a positive cutoff T"),
        (pate_psq, (5, budget), {"T": -1}, "stable release needs a positive cutoff T"),
        (pate_psq, (5, None), {"T": 3}, "stable release needs .* a budget"),
        (pate_asq, (5, 0, budget), {}, "query_budget must be positive"),
        (pate_asq, (5, -2, None), {}, "query_budget must be positive"),
    ]
    for pipeline, args, kwargs, message in cases:
        with pytest.raises(ValueError, match=f"^{message}"):
            pipeline(teacher, pool, test, *args, **kwargs, rng=make_rng(0))
    for pipeline, args in ((pate_psq, (5,)), (pate_asq, (5, 3))):
        with pytest.raises(TypeError, match="budget"):
            pipeline(teacher, pool, test, *args)
    with pytest.raises(TypeError):  # the cutoff alone chooses stable release
        pate_psq(teacher, pool, test, 5, budget, mechanism="svt", T=3)
    # T and rng are keyword-only: a seed after the budget is not a cutoff
    for pipeline, args in (
        (pate_psq, (16, budget, 7)),
        (pate_psq, (16, budget, None, 7)),
        (pate_asq, (16, 5, budget, 7)),
    ):
        with pytest.raises(TypeError, match="positional"):
            pipeline(teacher, pool, test, *args)
    assert trained == []


@pytest.mark.parametrize("slack", (-0.1, -math.inf, math.nan))
def test_asq_rejects_negative_or_nan_slack(slack):
    desc = LinearClassDescriptor(np.zeros((0, 2)))
    with pytest.raises(ValueError, match="slack"):
        run_active_learning(desc, [], lambda x, i: 0, 3, slack=slack)


def test_asq_accepts_none_zero_and_infinite_slack():
    desc = LinearClassDescriptor(np.zeros((0, 2)))
    for slack in (None, 0.0, 0.25, math.inf):
        state = run_active_learning(desc, [], lambda x, i: 0, 3, slack=slack)
        assert len(state.xs) == 0


def test_psq_gaussian_end_to_end():
    data, _ = gen_realizable(8, 1200, make_rng(30))
    teacher, pool, test = _split_three(data, 1000, 60, 140)
    budget = PrivacyBudget(8.0, 1e-4)
    student, report = pate_psq(teacher, pool, test, 10, budget, rng=make_rng(31))
    assert report.queries == 60 and report.bots == 0
    assert not report.halted_early
    assert report.eps_ex_post == pytest.approx(8.0, rel=1e-9)
    assert 0.0 <= report.accuracy <= 1.0
    assert student.predict(test.X).shape == (140,)


def test_psq_matches_noiseless_when_budget_is_generous():
    data, _ = gen_realizable(10, 3000, make_rng(32))
    teacher, pool, test = _split_three(data, 2400, 60, 540)
    # committee margins (~K/2) must dominate the noise scale sigma(m, eps)
    budget = PrivacyBudget(8.0, 1e-4)
    _, noisy = pate_psq(teacher, pool, test, 30, budget, rng=make_rng(33))
    _, exact = pate_psq(teacher, pool, test, 30, None, rng=make_rng(33))
    assert math.isinf(exact.eps_ex_post)
    assert abs(noisy.accuracy - exact.accuracy) <= 0.05


def test_psq_svt_halts_and_fills_bots():
    # random labels give the committee no margin, so every query bottoms out
    rng = make_rng(34)
    X = rng.normal(size=(400, 4))
    y = rng.integers(0, 2, 400)
    data = Dataset(X, y)
    teacher, pool, test = _split_three(data, 320, 40, 40)
    budget = PrivacyBudget(1.0, 1e-4)
    student, report = pate_psq(teacher, pool, test, 12, budget, T=2, rng=make_rng(35))
    assert report.halted_early
    assert report.queries == 2
    assert report.bots == 40
    assert report.eps_ex_post == 1.0


def test_psq_svt_halts_on_the_last_point():
    # every query bottoms out, and the cutoff is the pool size: the session
    # halts on the last point, so no query is refused and none is released
    rng = make_rng(34)
    X = rng.normal(size=(400, 4))
    y = rng.integers(0, 2, 400)
    teacher, pool, test = _split_three(Dataset(X, y), 320, 40, 40)
    m = len(pool)
    budget = PrivacyBudget(1.0, 1e-4)
    _, report = pate_psq(teacher, pool, test, 12, budget, T=m, rng=make_rng(35))
    assert report.halted_early
    assert report.queries == m
    assert report.bots == m
    assert report.eps_ex_post == 1.0


def test_psq_boundary_one_point_per_teacher():
    data, _ = gen_realizable(3, 140, make_rng(36))
    teacher, pool, test = _split_three(data, 100, 20, 20)
    budget = PrivacyBudget(5.0, 1e-3)
    _, report = pate_psq(teacher, pool, test, 100, budget, rng=make_rng(37))
    assert report.queries == 20
    with pytest.raises(ValueError, match="at least K examples"):
        pate_psq(teacher, pool, test, 101, budget, rng=make_rng(0))


def test_run_report_is_frozen():
    report = RunReport(queries=1, bots=0, eps_ex_post=0.5, accuracy=0.9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.queries = 2


# ---------------------------------------------------------------------------
# Version-space mechanics


def test_finite_disagreement_region_is_exact():
    pts = np.array([0.2, 0.8, 0.5, 0.1])
    hclass = threshold_class(pts)
    desc = FiniteClassDescriptor(hclass)
    state = desc.init_state()
    state.xs, state.ys = [0, 1], [0, 1]
    # exact version space: members consistent with (0.2 -> 0, 0.8 -> 1)
    state.alive = hclass.mistake_counts(state.xs, state.ys) == 0
    assert state.descriptor.disagreement(state, 2, slack=0.0)  # 0.5 is contested
    assert not state.descriptor.disagreement(state, 3, slack=0.0)  # 0.1 is settled


@given(
    st.integers(1, 12),
    st.integers(1, 15),
    st.booleans(),
    st.integers(0, 10_000),
)
def test_finite_reads_match_plain_expressions(members, domain, transposed, seed):
    """The domain-major reads give the member-major expressions' answers,
    for classes built either way round (threshold_class builds them
    transposed)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=(members, domain))
    if transposed:
        labels = np.ascontiguousarray(labels.T).T
    hclass = FiniteHypothesisClass(labels)
    desc = FiniteClassDescriptor(hclass)
    state = desc.init_state()
    plain = labels.astype(np.int8)
    for _ in range(20):
        state.alive = rng.random(members) < rng.random()
        state.alive[rng.integers(members)] = True
        x = int(rng.integers(domain))
        col = plain[state.alive, x]
        assert desc.disagreement(state, x, 0.0) == bool(col.min() != col.max())
        xs = rng.integers(domain, size=rng.integers(1, 2 * domain + 1))
        ys = rng.integers(0, 3, size=len(xs))  # 2 is wrong for every member
        expected = (plain[:, xs] != ys).sum(axis=1)
        for args in ((xs, ys), (xs.tolist(), ys.tolist())):
            got = hclass.mistake_counts(*args)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


def test_update_keeps_low_mistake_members():
    labels = np.array(
        [
            [1, 1, 1, 1],
            [1, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
        ]
    )
    desc = FiniteClassDescriptor(hclass=FiniteHypothesisClass(labels), gamma=0.9)
    state = desc.init_state()
    state.xs, state.ys = [0, 1, 2, 3], [1, 1, 1, 1]
    # at j = 4, gamma_4 = 0.9 / 9 and the tolerance is ln 2 + ln(1/gamma_4)
    active_update_version_space(state, 4)
    tol = math.log(2.0) + math.log(9.0 / 0.9)
    assert 2.9 < tol < 3.0
    assert state.alive.tolist() == [True, True, False, False]
    assert state.hypothesis == 0


def test_update_second_order_term_widens_tolerance():
    # best alive member has 2 mistakes; the sqrt(best * ...) slack keeps the
    # 8-mistake member that a purely additive rule would drop
    n = 12
    labels = np.ones((3, n), dtype=np.int64)
    labels[0, :2] = 0
    labels[1, :8] = 0
    labels[2, :9] = 0
    desc = FiniteClassDescriptor(hclass=FiniteHypothesisClass(labels), gamma=0.8)
    state = desc.init_state()
    state.xs, state.ys = list(range(n)), [1] * n
    active_update_version_space(state, 8)
    base = math.log(2.0) + math.log(16.0 / 0.8)
    second = math.sqrt(2.0 * base)
    assert state.alive.tolist() == [
        True,
        8 - 2 <= base + second,
        9 - 2 <= base + second,
    ] == [True, True, False]


def test_update_rejects_off_schedule_positions():
    desc = FiniteClassDescriptor(hclass=threshold_class(np.array([0.1, 0.9])))
    state = desc.init_state()
    with pytest.raises(ValueError):
        active_update_version_space(state, 3)
    active_update_version_space(state, 1)
    active_update_version_space(state, 4)


@pytest.mark.parametrize("gamma", (0.0, 1.0, -0.5, math.nan))
def test_finite_descriptor_rejects_gamma_outside_unit_interval(gamma):
    hclass = threshold_class(np.array([0.1, 0.9]))
    with pytest.raises(ValueError, match="gamma"):
        FiniteClassDescriptor(hclass, gamma=gamma)


def test_version_space_never_grows():
    rng = make_rng(40)
    pts = rng.random(64)
    hclass = threshold_class(pts)
    desc = FiniteClassDescriptor(hclass, gamma=0.2)
    truth = (pts >= 0.4).astype(int)
    state = desc.init_state()
    alive_counts = []
    for i, x in enumerate(rng.permutation(64)):
        j = i + 1
        state.xs.append(int(x))
        state.ys.append(int(truth[x]))
        if j & (j - 1) == 0:
            active_update_version_space(state, j)
            alive_counts.append(int(state.alive.sum()))
    assert alive_counts == sorted(alive_counts, reverse=True)
    assert alive_counts[-1] >= 1


def test_truth_survives_elimination():
    for seed in range(20):
        rng = make_rng(100 + seed)
        pts = rng.random(256)
        cut = rng.uniform(0.2, 0.8)
        truth = (pts >= cut).astype(int)
        hclass = threshold_class(pts)
        k_star = int((pts < cut).sum())  # member with zero domain mistakes
        desc = FiniteClassDescriptor(hclass, gamma=0.25)
        state = run_active_learning(
            desc,
            list(range(256)),
            lambda x, i: int(truth[x]),
            query_budget=256,
        )
        assert state.alive[k_star]
        preds = hclass.labels[state.hypothesis, list(range(256))]
        assert np.mean(preds != truth) <= 0.02


def test_slack_infinity_queries_everything():
    data, _ = gen_realizable(4, 30, make_rng(41))
    desc = LinearClassDescriptor(data.X)
    state = run_active_learning(
        desc,
        range(30),
        lambda x, i: int(data.y[i]),
        query_budget=100,
        slack=float("inf"),
    )
    assert len(state.xs) == 30


def test_single_member_class_never_queries():
    labels = np.ones((1, 10), dtype=np.int64)
    desc = FiniteClassDescriptor(hclass=FiniteHypothesisClass(labels))
    state = run_active_learning(
        desc, list(range(10)), lambda x, i: 1, query_budget=5
    )
    assert len(state.xs) == 0


def test_linear_disagreement_respects_duplicates():
    # three copies of a settled point leave the region; an unseen one-hot
    # direction stays inside it
    X = sp.csr_matrix(np.eye(3)[[0, 0, 0, 1, 0, 2]])
    desc = LinearClassDescriptor(X)
    state = desc.init_state()
    state.xs = [0, 1, 2, 3]
    state.ys = [0, 0, 0, 1]
    probe_dup, probe_new = 4, 5
    slack = 1.0 / len(state.xs)
    assert not state.descriptor.disagreement(state, probe_dup, slack)
    assert state.descriptor.disagreement(state, probe_new, slack)


def test_finite_tally_recounts_queries_changed_between_updates():
    labels = np.array([[1, 1, 1, 1], [0, 0, 0, 0]])
    desc = FiniteClassDescriptor(hclass=FiniteHypothesisClass(labels), gamma=0.9)
    state = desc.init_state()
    state.xs, state.ys = [0, 1], [0, 0]
    active_update_version_space(state, 2)
    assert state.alive.all()
    # rewrite the queried set instead of extending it
    state.xs, state.ys = [2, 3, 2], [1, 1, 1]
    active_update_version_space(state, 4)
    fresh = desc.init_state()
    fresh.xs, fresh.ys = [2, 3, 2], [1, 1, 1]
    active_update_version_space(fresh, 4)
    assert state.alive.tolist() == fresh.alive.tolist() == [True, False]
    assert state.hypothesis == fresh.hypothesis == 0


# ---------------------------------------------------------------------------
# Linear active loop against the per-point reference


def _linear_stream(seed, n, d, n_protos, flip):
    """Rows copied from a few prototypes, labeled by a hidden halfspace
    with label noise, so the stream holds duplicates the loop can skip:
    the rows as one pool, and their labels."""
    rng = make_rng(seed)
    protos = rng.integers(-1, 2, size=(n_protos, d)).astype(float)
    truth = (protos @ rng.normal(size=d) >= 0).astype(np.int64)
    ids = rng.integers(0, n_protos, size=n)
    noisy = rng.random(n) < flip
    labels = np.where(noisy, 1 - truth[ids], truth[ids])
    return sp.csr_matrix(protos[ids]), labels


def _csr_rows(X):
    """X's rows as one-row CSRs, the per-point reference's stream."""
    return [X[i] for i in range(X.shape[0])]


def _run_recorded(descriptor, stream, labels, budget, slack):
    asked = []

    def oracle(x, i):
        asked.append(i)
        return int(labels[i])

    state = run_active_learning(descriptor, stream, oracle, budget, slack)
    return state, asked


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    d=st.integers(1, 4),
    n_protos=st.integers(1, 6),
    flip=st.sampled_from((0.0, 0.2)),
    budget=st.integers(1, 30),
    slack=st.sampled_from((None, 0.0, 0.1, 0.5, math.inf)),
)
def test_linear_active_loop_matches_per_point_reference(
    seed, n, d, n_protos, flip, budget, slack
):
    X, labels = _linear_stream(seed, n, d, n_protos, flip)
    got, got_asked = _run_recorded(
        LinearClassDescriptor(X, steps=40, probe_steps=30),
        range(n), labels, budget, slack,
    )
    want, want_asked = _run_recorded(
        oracles.ReferenceLinearDescriptor(d, steps=40, probe_steps=30),
        _csr_rows(X), labels, budget, slack,
    )
    assert got_asked == want_asked == got.xs
    assert got.ys == want.ys and len(got.xs) == len(want.xs) and got.j == want.j
    assert np.array_equal(got.hypothesis.weights, want.hypothesis.weights)
    assert got.hypothesis.bias == want.hypothesis.bias


def _stacked(pool, xs):
    """The pool's rows at xs, stacked and made a `Dataset`'s matrix."""
    return Dataset(sp.vstack([pool[i] for i in xs])).X


def _assert_kept_rows_fresh(state, probed=None):
    # the kept rows of Q and the point probed last, grown a row per query
    # from the pool's layout, are the arrays a fresh layout of the stacked
    # rows gives
    xs, rows = state.rows
    assert xs == state.xs + ([] if probed is None else [probed])
    fresh = _Rows.of(_stacked(state.descriptor.pool, xs))
    assert rows.shape == fresh.shape
    # one block, as grown or cut by `grow` and `head`
    assert rows.sizes.dtype == fresh.sizes.dtype
    assert np.array_equal(rows.sizes, fresh.sizes)
    for got, want in zip((*rows.csr, rows.row_sq), (*fresh.csr, fresh.row_sq)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class _CheckedDescriptor(LinearClassDescriptor):
    def disagreement(self, state, x, slack):
        answer = super().disagreement(state, x, slack)
        if not (math.isinf(slack) or not state.xs):
            _assert_kept_rows_fresh(state, probed=x)
        return answer

    def refit(self, state):
        super().refit(state)
        if state.xs:
            _assert_kept_rows_fresh(state)


@pytest.mark.parametrize("pool", ["linear", "one-hot"])
def test_linear_memo_grows_the_rows_it_would_build(pool):
    if pool == "linear":
        X, labels = _linear_stream(5, 60, 4, 6, 0.2)
    else:
        data = _onehot_clusters(80, 12, seed=3)
        X, labels = data.X, data.y
    state, asked = _run_recorded(
        _CheckedDescriptor(X), range(X.shape[0]), labels, 40, None
    )
    assert len(asked) > 5


@st.composite
def _kept_rows_cases(draw):
    """A pool of mixed signs with empty and duplicate rows, a queried set
    with repeated indices cut in two, and labels."""
    m, d = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(m, d)) * (rng.random((m, d)) < 0.5)
    A[rng.random(m) < 0.2] = 0.0
    copies = np.flatnonzero(rng.random(m) < 0.3)
    A[copies] = A[rng.integers(0, m, len(copies))]
    n = draw(st.integers(1, 40))
    xs = rng.integers(0, m, n).tolist()
    ys = rng.integers(0, 2, n).tolist()
    warm = draw(st.booleans())
    h0 = LinearHypothesis(rng.normal(size=d), float(rng.normal())) if warm else None
    return sp.csr_matrix(A), xs, ys, draw(st.integers(1, n)), h0


@given(_kept_rows_cases(), st.integers(1, 30), st.integers(1, 30))
def test_linear_fits_on_kept_rows_equal_train_erm(case, steps, probe_steps):
    # the reference fit on a first part of Q, and the refit once Q has
    # grown by the rest, are lone `train_erm` fits on the stacked rows
    pool, xs, ys, k, h0 = case
    desc = _CheckedDescriptor(pool, steps=steps, probe_steps=probe_steps)
    state = desc.init_state()
    if h0 is not None:
        state.hypothesis = h0
    state.xs, state.ys = xs[:k], ys[:k]
    desc.disagreement(state, xs[k] if k < len(xs) else 0, 0.1)
    first = Dataset(_stacked(pool, xs[:k]), ys[:k])
    base = state.memo[1][tuple(xs[:k]), tuple(ys[:k])]
    pairs = [(base, train_erm(first, probe_steps, init=state.hypothesis))]
    start = state.hypothesis
    state.xs, state.ys = xs, ys
    desc.refit(state)
    whole = Dataset(_stacked(pool, xs), ys)
    pairs.append((state.hypothesis, train_erm(whole, steps, init=start)))
    for got, want in pairs:
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(np.signbit(got.weights), np.signbit(want.weights))
        assert got.bias == want.bias
        assert np.signbit(got.bias) == np.signbit(want.bias)


def test_linear_memo_is_not_reused_after_outside_changes(monkeypatch):
    reference_fits = []
    real_columns = privote.pipelines._train_columns

    def counting_columns(rows, labels, steps, weights, inits):
        if weights[0] is None:  # a reference fit, made alone
            reference_fits.append(1)
        return real_columns(rows, labels, steps, weights, inits)

    monkeypatch.setattr(privote.pipelines, "_train_columns", counting_columns)
    X, labels = _linear_stream(7, 12, 3, 5, 0.2)
    stream = _csr_rows(X)
    desc = LinearClassDescriptor(X, probe_steps=30)
    ref = oracles.ReferenceLinearDescriptor(3, probe_steps=desc.probe_steps)
    state = desc.init_state()
    state.xs, state.ys = [0, 1, 2], [int(y) for y in labels[:3]]

    def probe(x, reused):
        before = len(reference_fits)
        got = desc.disagreement(state, x, 0.1)
        assert len(reference_fits) == before + (0 if reused else 1)
        _assert_kept_rows_fresh(state, probed=x)
        rows = dataclasses.replace(state, xs=[stream[i] for i in state.xs])
        assert got == ref.disagreement(rows, stream[x], 0.1)

    probe(3, reused=False)
    probe(4, reused=True)  # 3 was not queried: same Q
    # the loop's own change: the point just probed is queried, either label
    state.xs.append(4)
    state.ys.append(0)
    probe(5, reused=True)
    state.xs.append(5)
    state.ys.append(1)
    probe(6, reused=True)
    # a queried point other than the one just probed
    state.xs.append(7)
    state.ys.append(1)
    probe(8, reused=False)
    # an equal index, not the same object, names the same row
    state.xs[0] = np.int64(state.xs[0])
    probe(8, reused=True)
    outside_changes = [
        lambda: state.xs.__setitem__(0, 10),
        lambda: state.ys.__setitem__(1, 1 - state.ys[1]),
        lambda: setattr(state, "hypothesis", LinearHypothesis(np.ones(3), 0.5)),
        lambda: (state.xs.pop(), state.ys.pop()),
    ]
    for change in outside_changes:
        probe(8, reused=True)
        change()
        probe(9, reused=False)
    # the probed point queried with a label that is not 0 or 1: no
    # candidate matches, and the reference fit rejects the label
    probe(8, reused=True)
    state.xs.append(8)
    state.ys.append(2)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        desc.disagreement(state, 9, 0.1)


_EDITS = ("probed", "other", "pop", "replace", "int64", "flip", "copy", "none")


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_linear_memo_is_read_exactly_where_a_probe_stored_it(seed, data):
    # random edits between probes, also ones no loop makes: a probe fits
    # its reference afresh exactly when the probe before stored no fit
    # under Q and its labels, or started from another hypothesis object,
    # and answers as the per-point reference does either way
    fresh = []
    real_columns = privote.pipelines._train_columns

    def counting_columns(rows, labels, steps, weights, inits):
        if weights[0] is None:  # a reference fit, made alone
            fresh.append(1)
        return real_columns(rows, labels, steps, weights, inits)

    class Counting(_CheckedDescriptor):
        def disagreement(self, state, x, slack):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(privote.pipelines, "_train_columns", counting_columns)
                return super().disagreement(state, x, slack)

    m = 12
    X, labels = _linear_stream(seed, m, 3, 5, 0.2)
    stream = _csr_rows(X)
    desc = Counting(X)
    ref = oracles.ReferenceLinearDescriptor(3, probe_steps=desc.probe_steps)
    state = desc.init_state()
    state.xs, state.ys = [0, 1, 2], [int(y) for y in labels[:3]]
    index, label = st.integers(0, m - 1), st.integers(0, 1)
    stored, start, x = set(), None, None
    for _ in range(data.draw(st.integers(1, 8))):
        edit = data.draw(st.sampled_from(_EDITS))
        k = data.draw(st.integers(0, len(state.xs) - 1))
        if edit == "probed" and x is not None:
            state.xs.append(x)
            state.ys.append(data.draw(label))
        elif edit == "other":
            state.xs.append(data.draw(index))
            state.ys.append(data.draw(label))
        elif edit == "pop" and len(state.xs) > 1:
            state.xs.pop()
            state.ys.pop()
        elif edit == "replace":
            state.xs[k] = data.draw(index)
        elif edit == "int64":
            state.xs[k] = np.int64(state.xs[k])
        elif edit == "flip":
            state.ys[k] = 1 - state.ys[k]
        elif edit == "copy":
            h = state.hypothesis
            state.hypothesis = LinearHypothesis(h.weights.copy(), h.bias)
        x = data.draw(index)
        # a refit follows at j = 4, and a query now would spend the budget
        state.j = data.draw(st.sampled_from((3, 4)))
        last = data.draw(st.booleans())
        state.query_budget = len(state.xs) + 1 if last else None
        xs, ys = tuple(state.xs), tuple(state.ys)
        before = len(fresh)
        got = desc.disagreement(state, x, 0.1)
        missed = (xs, ys) not in stored or state.hypothesis is not start
        assert len(fresh) - before == missed
        rows = dataclasses.replace(state, xs=[stream[i] for i in state.xs])
        assert got == ref.disagreement(rows, stream[x], 0.1)
        start = state.hypothesis
        if state.j == 4:
            assert state.memo is None
            stored = set()
        else:
            # the reference read or fit is a lone fit on Q and its labels
            Q = Dataset(_stacked(X, state.xs), state.ys)
            want = train_erm(Q, desc.probe_steps, init=start)
            base = state.memo[1][xs, ys]
            assert np.array_equal(base.weights, want.weights)
            assert base.bias == want.bias
            stored = {(xs, ys)} | (
                set() if last else {(xs + (x,), ys + (y,)) for y in (0, 1)}
            )


def test_a_probe_that_reuses_the_memo_makes_38_kernel_calls(kernel_calls):
    # three columns of probe_steps = 10 steps with two distinct weight
    # columns, then the reference's and the probe's scores: 20 + 16 + 2
    X, labels = _linear_stream(7, 12, 3, 5, 0.2)
    desc = LinearClassDescriptor(X)
    state = desc.init_state()
    state.xs, state.ys, state.j = [0, 1, 2], [int(y) for y in labels[:3]], 3
    desc.disagreement(state, 3, 0.1)
    kernel_calls.clear()
    state.j = 5
    desc.disagreement(state, 4, 0.1)  # 3 was not queried: same Q
    assert sum(kernel_calls.values()) == 38
    assert kernel_calls["csr_matvec"] == 2 + 8  # scores; the bound's products


def test_linear_probe_trains_alone_before_a_refit(monkeypatch):
    # at a power-of-two position the refit replaces the hypothesis, and a
    # query that spends the budget ends the run, so at either point the two
    # next-reference fits would be thrown away
    calls = []
    probing = []  # the stream position of the probe in progress, if any
    fresh_bases = []  # positions whose probe fit its reference from scratch
    real_columns = privote.pipelines._train_columns

    def counting_columns(rows, labels, steps, weights, inits):
        if probing:  # refits run outside a probe
            if weights[0] is None:  # the reference, fit alone
                fresh_bases.extend(probing)
            else:
                calls[-1][1].append(labels.shape[1])
        return real_columns(rows, labels, steps, weights, inits)

    class Recording(LinearClassDescriptor):
        def disagreement(self, state, x, slack):
            calls.append((state.j, []))
            probing.append(state.j)
            try:
                return super().disagreement(state, x, slack)
            finally:
                probing.pop()

    monkeypatch.setattr(privote.pipelines, "_train_columns", counting_columns)
    X, labels = _linear_stream(3, 12, 3, 5, 0.2)
    _run_recorded(Recording(X), range(12), labels, 12, None)
    columns = dict(calls)
    assert sorted(columns) == list(range(1, 13))
    assert [columns[j] for j in (1, 2, 4, 8)] == [[], [1], [1], [1]]
    assert all(columns[j] == [3] for j in (3, 5, 6, 7, 9, 10, 11, 12))

    # five queries: the fifth label is asked at j = 8, and the points at
    # j = 6 and 7 would have spent the budget but were not queried
    calls.clear()
    fresh_bases.clear()
    X, labels = _linear_stream(6, 40, 3, 5, 0.2)
    state, asked = _run_recorded(Recording(X), range(40), labels, 5, None)
    assert len(state.xs) == 5 and asked[3:] == [4, 7]
    columns = dict(calls)
    assert sorted(columns) == list(range(1, 9))
    assert [columns[j] for j in (5, 6, 7, 8)] == [[3], [1], [1], [1]]
    # j = 6 and 7 each start from the reference kept by the probe before
    assert not {6, 7} & set(fresh_bases)


def _non_canonical(X, rng):
    """X stored with each entry split in two and two stored zeros added
    to each row, in a random order within the row."""
    (n, d), coo = X.shape, X.tocoo()
    parts = rng.random(coo.nnz)
    rows = np.concatenate([coo.row, coo.row, np.arange(n).repeat(2)])
    cols = np.concatenate([coo.col, coo.col, rng.integers(0, d, 2 * n)])
    data = np.concatenate([coo.data * parts, coo.data * (1 - parts), np.zeros(2 * n)])
    order = np.lexsort((rng.random(len(data)), rows))
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    return sp.csr_matrix((data[order], cols[order], indptr), shape=(n, d))


@given(seed=st.integers(0, 2**32 - 1), slack=st.sampled_from((None, 0.0, 0.1)))
def test_linear_stream_points_count_as_their_canonical_form(seed, slack):
    # the pool is summed, sorted and stripped of zeros where it enters, so
    # it gives the answers its canonical twin gives
    X, labels = _linear_stream(seed, 30, 3, 5, 0.2)
    raw = _non_canonical(X, make_rng(seed))
    twin = Dataset(raw).X
    assert not raw.has_canonical_format and raw.nnz > twin.nnz
    got, got_asked = _run_recorded(
        LinearClassDescriptor(raw), range(30), labels, 20, slack
    )
    want, want_asked = _run_recorded(
        LinearClassDescriptor(twin), range(30), labels, 20, slack
    )
    assert got_asked == want_asked
    assert np.array_equal(got.hypothesis.weights, want.hypothesis.weights)
    assert got.hypothesis.bias == want.hypothesis.bias


def test_linear_stream_point_past_the_features_fails():
    X, labels = _linear_stream(2, 5, 3, 4, 0.0)
    desc = LinearClassDescriptor(X)
    state = desc.init_state()
    state.xs, state.ys = [0, 1], [int(y) for y in labels[:2]]
    # a stream element is a row index of the pool; a negative one does not
    # wrap around
    for x in (-1, 5, 1.5, "0", None):
        with pytest.raises(ValueError, match=f"stream index {x!r} is not a row"):
            desc.disagreement(state, x, 0.1)
    # an index queried without a probe fails where Q's rows are grown
    with pytest.raises(ValueError, match="stream index -1 is not a row"):
        run_active_learning(desc, [0, -1], lambda x, i: 0, 5, slack=math.inf)
    # scipy leaves a hand-built CSR's column indices unchecked; the pool's
    # are checked where it enters
    past = sp.csr_matrix((np.ones(1), np.array([7]), [0, 1]), shape=(1, 3))
    with pytest.raises(ValueError, match="column indices"):
        LinearClassDescriptor(past)


# ---------------------------------------------------------------------------
# Active pipeline


def test_asq_skips_duplicate_heavy_pools():
    data = _onehot_clusters(600, 12, seed=42)
    teacher, pool, test = _split_three(data, 400, 40, 160)
    budget = PrivacyBudget(1.0, 1e-4)
    student, report = pate_asq(teacher, pool, test, 20, 30, budget, rng=make_rng(43))
    assert report.queries <= 30
    assert report.queries < 40
    assert report.eps_ex_post <= 1.0 + 1e-9
    assert report.bots == 0
    # at this scale the noisy labels are low-signal; utility is asserted on
    # the exact-majority variant, which shares the query-selection logic
    _, exact = pate_asq(teacher, pool, test, 20, 30, None, rng=make_rng(43))
    assert exact.accuracy >= 0.9
    assert exact.queries < 40


def test_asq_lays_out_the_pool_once(monkeypatch):
    # the committee's part and the student pool are laid out once each; no
    # refit or reference fit lays out the queried set again
    laid_out = []
    real_layout = privote.learners._bias_layout

    def counting_layout(csr, order, *args):
        laid_out.append(len(order))
        return real_layout(csr, order, *args)

    monkeypatch.setattr(privote.learners, "_bias_layout", counting_layout)
    data = _onehot_clusters(600, 12, seed=42)
    teacher, pool, test = _split_three(data, 400, 40, 160)
    _, report = pate_asq(teacher, pool, test, 20, 30, None, rng=make_rng(43))
    assert report.queries >= 4  # so there were refits and reference fits
    assert laid_out == [len(teacher), len(pool)]


def test_asq_single_query_budget():
    data, _ = gen_realizable(4, 300, make_rng(44))
    teacher, pool, test = _split_three(data, 200, 40, 60)
    budget = PrivacyBudget(2.0, 1e-4)
    _, report = pate_asq(teacher, pool, test, 8, 1, budget, rng=make_rng(45))
    assert report.queries == 1
    assert report.eps_ex_post == pytest.approx(2.0, rel=1e-9)


def test_asq_noiseless_reports_infinite_loss():
    data, _ = gen_realizable(4, 300, make_rng(46))
    teacher, pool, test = _split_three(data, 200, 40, 60)
    _, report = pate_asq(teacher, pool, test, 8, 20, None, rng=make_rng(47))
    assert math.isinf(report.eps_ex_post)
    assert report.queries <= 20


# ---------------------------------------------------------------------------
# No budget: exact-majority sessions


def _assert_same_run(got, want):
    (h, report), (h_ref, report_ref) = got, want
    assert report == report_ref
    assert np.array_equal(h.weights, h_ref.weights)
    assert h.bias == h_ref.bias


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_psq_without_budget_matches_reference(seed):
    # label noise and even committees make exact vote ties likely
    data, _ = gen_massart(6, 900, 0.2, make_rng(100 + seed))
    teacher, pool, test = _split_three(data, 600, 60, 240)
    K = 10 + 2 * seed
    _assert_same_run(
        pate_psq(teacher, pool, test, K, None, rng=make_rng(seed)),
        oracles.reference_psq_noiseless(teacher, pool, test, K, make_rng(seed)),
    )


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_asq_without_budget_matches_reference(seed):
    data, _ = gen_massart(4, 500, 0.2, make_rng(200 + seed))
    teacher, pool, test = _split_three(data, 300, 50, 150)
    _assert_same_run(
        pate_asq(teacher, pool, test, 10, 25, None, rng=make_rng(seed)),
        oracles.reference_asq_noiseless(teacher, pool, test, 10, 25, make_rng(seed)),
    )
