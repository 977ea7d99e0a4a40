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
from privote import (
    AsqConfig,
    Dataset,
    FiniteClassDescriptor,
    FiniteHypothesisClass,
    LinearClassDescriptor,
    LinearHypothesis,
    PrivacyBudget,
    PsqConfig,
    RunReport,
    active_update_version_space,
    calibrate_gaussian_sigma,
    compute_k_for_gaussian,
    compute_svt_params,
    gen_massart,
    gen_realizable,
    make_rng,
    pate_asq,
    pate_psq,
    run_active_learning,
    threshold_class,
    TrainerSettings,
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


@pytest.mark.parametrize("m", (10, 163, 1000))
@pytest.mark.parametrize("eps", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("n", (100, 6499))
def test_k_for_gaussian_identity(m, eps, n):
    budget = PrivacyBudget(eps, 1e-5)
    K = compute_k_for_gaussian(m, budget, n)
    sigma = calibrate_gaussian_sigma(m, budget)
    alt = 6.0 * sigma * math.sqrt(2.0 * math.log(2.0 * n))
    assert K == math.ceil(alt - 1e-9) or K == math.ceil(alt)
    assert abs(K - alt) <= 1.0


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
    T, K = compute_svt_params(1000, 0.0, 0.05, budget)
    assert T == math.ceil(3.0 * math.sqrt(1000 * math.log(1000 / 0.05) / 2.0))
    assert K >= 1
    T_err, _ = compute_svt_params(1000, 0.1, 0.05, budget)
    assert T_err > T
    T_big, _ = compute_svt_params(4000, 0.1, 0.05, budget)
    assert T_big > T_err
    with pytest.raises(ValueError):
        compute_svt_params(0, 0.0, 0.05, budget)
    with pytest.raises(ValueError):
        compute_svt_params(10, 1.5, 0.05, budget)
    with pytest.raises(ValueError):
        compute_svt_params(10, 0.0, 1.0, budget)


# ---------------------------------------------------------------------------
# Passive pipeline


def test_psq_configs_validate():
    budget = PrivacyBudget(1.0, 1e-5)
    with pytest.raises(ValueError):
        PsqConfig(K=0, budget=budget)
    with pytest.raises(ValueError):
        PsqConfig(K=5, budget=budget, mechanism="exact")
    with pytest.raises(ValueError):
        PsqConfig(K=5, budget=budget, mechanism="svt")  # missing T
    with pytest.raises(ValueError):
        PsqConfig(K=5, budget=None, mechanism="svt", T=3)  # svt needs a budget
    with pytest.raises(ValueError):
        AsqConfig(K=5, query_budget=0, budget=budget)


@pytest.mark.parametrize("slack", (-0.1, -math.inf, math.nan))
def test_asq_rejects_negative_or_nan_slack(slack):
    desc = LinearClassDescriptor(n_features=2)
    with pytest.raises(ValueError, match="slack"):
        run_active_learning(desc, [], lambda x, i: 0, 3, 0.1, slack=slack)


def test_asq_accepts_none_zero_and_infinite_slack():
    desc = LinearClassDescriptor(n_features=2)
    for slack in (None, 0.0, 0.25, math.inf):
        state = run_active_learning(desc, [], lambda x, i: 0, 3, 0.1, slack=slack)
        assert state.c == 0


def test_psq_gaussian_end_to_end():
    data, _ = gen_realizable(8, 1200, make_rng(30))
    teacher, pool, test = _split_three(data, 1000, 60, 140)
    config = PsqConfig(K=10, budget=PrivacyBudget(8.0, 1e-4))
    student, report = pate_psq(teacher, pool, test, config, make_rng(31))
    assert report.queries == 60 and report.bots == 0
    assert not report.halted_early
    assert report.eps_ex_post == pytest.approx(8.0, rel=1e-9)
    assert 0.0 <= report.accuracy <= 1.0
    assert student.predict(test.X).shape == (140,)


def test_psq_matches_noiseless_when_budget_is_generous():
    data, _ = gen_realizable(10, 3000, make_rng(32))
    teacher, pool, test = _split_three(data, 2400, 60, 540)
    # committee margins (~K/2) must dominate the noise scale sigma(m, eps)
    config = PsqConfig(K=30, budget=PrivacyBudget(8.0, 1e-4))
    _, noisy = pate_psq(teacher, pool, test, config, make_rng(33))
    exact_config = PsqConfig(K=30, budget=None)
    _, exact = pate_psq(teacher, pool, test, exact_config, make_rng(33))
    assert math.isinf(exact.eps_ex_post)
    assert abs(noisy.accuracy - exact.accuracy) <= 0.05


def test_psq_svt_halts_and_fills_bots():
    # random labels give the committee no margin, so every query bottoms out
    rng = make_rng(34)
    X = rng.normal(size=(400, 4))
    y = rng.integers(0, 2, 400)
    data = Dataset(X, y)
    teacher, pool, test = _split_three(data, 320, 40, 40)
    config = PsqConfig(
        K=12,
        budget=PrivacyBudget(1.0, 1e-4),
        mechanism="svt",
        T=2,
    )
    student, report = pate_psq(teacher, pool, test, config, make_rng(35))
    assert report.halted_early
    assert report.queries == 2
    assert report.bots == 40
    assert report.eps_ex_post == 1.0


def test_psq_boundary_one_point_per_teacher():
    data, _ = gen_realizable(3, 140, make_rng(36))
    teacher, pool, test = _split_three(data, 100, 20, 20)
    config = PsqConfig(K=100, budget=PrivacyBudget(5.0, 1e-3))
    _, report = pate_psq(teacher, pool, test, config, make_rng(37))
    assert report.queries == 20
    with pytest.raises(ValueError):
        pate_psq(teacher, pool, test, dataclasses.replace(config, K=101), make_rng(0))


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
    desc = FiniteClassDescriptor(hclass=FiniteHypothesisClass(labels))
    state = desc.init_state()
    state.xs, state.ys = [0, 1, 2, 3], [1, 1, 1, 1]
    # at j = 4, gamma_4 = 0.9 / 9 and the tolerance is ln 2 + ln(1/gamma_4)
    active_update_version_space(state, 4, gamma=0.9)
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
    desc = FiniteClassDescriptor(hclass=FiniteHypothesisClass(labels))
    state = desc.init_state()
    state.xs, state.ys = list(range(n)), [1] * n
    active_update_version_space(state, 8, gamma=0.8)
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
        active_update_version_space(state, 3, gamma=0.1)
    active_update_version_space(state, 1, gamma=0.1)
    active_update_version_space(state, 4, gamma=0.1)


def test_version_space_never_grows():
    rng = make_rng(40)
    pts = rng.random(64)
    hclass = threshold_class(pts)
    desc = FiniteClassDescriptor(hclass)
    truth = (pts >= 0.4).astype(int)
    state = desc.init_state()
    alive_counts = []
    for i, x in enumerate(rng.permutation(64)):
        j = i + 1
        state.xs.append(int(x))
        state.ys.append(int(truth[x]))
        if j & (j - 1) == 0:
            active_update_version_space(state, j, gamma=0.2)
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
        desc = FiniteClassDescriptor(hclass)
        state = run_active_learning(
            desc,
            list(range(256)),
            lambda x, i: int(truth[x]),
            query_budget=256,
            gamma=0.25,
        )
        assert state.alive[k_star]
        preds = hclass.labels[state.hypothesis, list(range(256))]
        assert np.mean(preds != truth) <= 0.02


def test_slack_infinity_queries_everything():
    data, _ = gen_realizable(4, 30, make_rng(41))
    desc = LinearClassDescriptor(n_features=4)
    stream = [data.X[i] for i in range(30)]
    state = run_active_learning(
        desc,
        stream,
        lambda x, i: int(data.y[i]),
        query_budget=100,
        gamma=0.1,
        slack=float("inf"),
    )
    assert state.c == 30


def test_single_member_class_never_queries():
    labels = np.ones((1, 10), dtype=np.int64)
    desc = FiniteClassDescriptor(hclass=FiniteHypothesisClass(labels))
    state = run_active_learning(
        desc, list(range(10)), lambda x, i: 1, query_budget=5, gamma=0.1
    )
    assert state.c == 0


def test_linear_disagreement_respects_duplicates():
    # three copies of a settled point leave the region; an unseen one-hot
    # direction stays inside it
    X = sp.csr_matrix(np.eye(3)[[0, 0, 0, 1]])
    y = np.array([0, 0, 0, 1])
    desc = LinearClassDescriptor(n_features=3)
    state = desc.init_state()
    state.xs = [X[i] for i in range(4)]
    state.ys = list(y)
    probe_dup = sp.csr_matrix(np.eye(3)[0])
    probe_new = sp.csr_matrix(np.eye(3)[2])
    slack = 1.0 / len(state.xs)
    assert not state.descriptor.disagreement(state, probe_dup, slack)
    assert state.descriptor.disagreement(state, probe_new, slack)


def test_finite_tally_recounts_queries_changed_between_updates():
    labels = np.array([[1, 1, 1, 1], [0, 0, 0, 0]])
    desc = FiniteClassDescriptor(hclass=FiniteHypothesisClass(labels))
    state = desc.init_state()
    state.xs, state.ys = [0, 1], [0, 0]
    active_update_version_space(state, 2, gamma=0.9)
    assert state.alive.all()
    # rewrite the queried set instead of extending it
    state.xs, state.ys = [2, 3, 2], [1, 1, 1]
    active_update_version_space(state, 4, gamma=0.9)
    fresh = desc.init_state()
    fresh.xs, fresh.ys = [2, 3, 2], [1, 1, 1]
    active_update_version_space(fresh, 4, gamma=0.9)
    assert state.alive.tolist() == fresh.alive.tolist() == [True, False]
    assert state.hypothesis == fresh.hypothesis == 0


# ---------------------------------------------------------------------------
# Linear active loop against the per-point reference


def _linear_stream(seed, n, d, n_protos, flip):
    """Rows copied from a few prototypes, labeled by a hidden halfspace
    with label noise, so the stream holds duplicates the loop can skip."""
    rng = make_rng(seed)
    protos = rng.integers(-1, 2, size=(n_protos, d)).astype(float)
    truth = (protos @ rng.normal(size=d) >= 0).astype(np.int64)
    ids = rng.integers(0, n_protos, size=n)
    noisy = rng.random(n) < flip
    labels = np.where(noisy, 1 - truth[ids], truth[ids])
    X = sp.csr_matrix(protos[ids])
    return [X[i] for i in range(n)], labels


def _run_recorded(descriptor, stream, labels, budget, slack):
    asked = []

    def oracle(x, i):
        asked.append(i)
        return int(labels[i])

    state = run_active_learning(descriptor, stream, oracle, budget, 0.1, slack)
    return state, asked


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    d=st.integers(1, 4),
    n_protos=st.integers(1, 6),
    flip=st.sampled_from((0.0, 0.2)),
    budget=st.integers(1, 30),
    slack=st.sampled_from((None, 0.0, 0.1, 0.5, math.inf)),
    tol=st.sampled_from((1e-10, 1e-3, 5e-2)),
)
def test_linear_active_loop_matches_per_point_reference(
    seed, n, d, n_protos, flip, budget, slack, tol
):
    stream, labels = _linear_stream(seed, n, d, n_protos, flip)
    fit = TrainerSettings(max_iter=40, grad_tol=tol)
    probe = TrainerSettings(max_iter=30, grad_tol=tol)
    got, got_asked = _run_recorded(
        LinearClassDescriptor(d, settings=fit, probe_settings=probe),
        stream, labels, budget, slack,
    )
    want, want_asked = _run_recorded(
        oracles.ReferenceLinearDescriptor(d, settings=fit, probe_settings=probe),
        stream, labels, budget, slack,
    )
    assert got_asked == want_asked
    assert got.ys == want.ys and got.c == want.c and got.j == want.j
    assert np.array_equal(got.hypothesis.weights, want.hypothesis.weights)
    assert got.hypothesis.bias == want.hypothesis.bias


def test_linear_memo_is_not_reused_after_outside_changes(monkeypatch):
    lone_fits = []
    real_train_erm = privote.pipelines.train_erm

    def counting_train_erm(*args, **kwargs):
        lone_fits.append(1)
        return real_train_erm(*args, **kwargs)

    monkeypatch.setattr(privote.pipelines, "train_erm", counting_train_erm)
    stream, labels = _linear_stream(7, 12, 3, 5, 0.2)
    desc = LinearClassDescriptor(3, probe_settings=TrainerSettings(max_iter=30))
    ref = oracles.ReferenceLinearDescriptor(3, probe_settings=desc.probe_settings)
    state = desc.init_state()
    state.xs, state.ys = stream[:3], [int(y) for y in labels[:3]]

    def probe(x, reused):
        before = len(lone_fits)
        got = desc.disagreement(state, x, 0.1)
        assert len(lone_fits) == before + (0 if reused else 1)
        assert got == ref.disagreement(state, x, 0.1)

    probe(stream[3], reused=False)
    probe(stream[4], reused=True)  # stream[3] was not queried: same Q
    # the loop's own change: the point just probed is queried, either label
    state.xs.append(stream[4])
    state.ys.append(0)
    probe(stream[5], reused=True)
    state.xs.append(stream[5])
    state.ys.append(1)
    probe(stream[6], reused=True)
    # a queried point other than the one just probed
    state.xs.append(stream[7])
    state.ys.append(1)
    probe(stream[8], reused=False)
    outside_changes = [
        lambda: state.xs.__setitem__(0, stream[0].copy()),  # equal, not the same
        lambda: state.ys.__setitem__(1, 1 - state.ys[1]),
        lambda: setattr(state, "hypothesis", LinearHypothesis(np.ones(3), 0.5)),
        lambda: (state.xs.pop(), state.ys.pop()),
    ]
    for change in outside_changes:
        probe(stream[8], reused=True)
        change()
        probe(stream[9], reused=False)
    # the probed point queried with a label that is not 0 or 1: no
    # candidate matches, and the lone fit rejects the label
    probe(stream[8], reused=True)
    state.xs.append(stream[8])
    state.ys.append(2)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        desc.disagreement(state, stream[9], 0.1)


# ---------------------------------------------------------------------------
# Active pipeline


def test_asq_skips_duplicate_heavy_pools():
    data = _onehot_clusters(600, 12, seed=42)
    teacher, pool, test = _split_three(data, 400, 40, 160)
    config = AsqConfig(K=20, query_budget=30, budget=PrivacyBudget(1.0, 1e-4))
    student, report = pate_asq(teacher, pool, test, config, make_rng(43))
    assert report.queries <= 30
    assert report.queries < 40
    assert report.eps_ex_post <= 1.0 + 1e-9
    assert report.bots == 0
    # at this scale the noisy labels are low-signal; utility is asserted on
    # the exact-majority variant, which shares the query-selection logic
    exact_config = dataclasses.replace(config, budget=None)
    _, exact = pate_asq(teacher, pool, test, exact_config, make_rng(43))
    assert exact.accuracy >= 0.9
    assert exact.queries < 40


def test_asq_single_query_budget():
    data, _ = gen_realizable(4, 300, make_rng(44))
    teacher, pool, test = _split_three(data, 200, 40, 60)
    config = AsqConfig(K=8, query_budget=1, budget=PrivacyBudget(2.0, 1e-4))
    _, report = pate_asq(teacher, pool, test, config, make_rng(45))
    assert report.queries == 1
    assert report.eps_ex_post == pytest.approx(2.0, rel=1e-9)


def test_asq_noiseless_reports_infinite_loss():
    data, _ = gen_realizable(4, 300, make_rng(46))
    teacher, pool, test = _split_three(data, 200, 40, 60)
    config = AsqConfig(K=8, query_budget=20, budget=None)
    _, report = pate_asq(teacher, pool, test, config, make_rng(47))
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
    config = PsqConfig(K=K, budget=None)
    _assert_same_run(
        pate_psq(teacher, pool, test, config, make_rng(seed)),
        oracles.reference_psq_noiseless(teacher, pool, test, K, make_rng(seed)),
    )


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_asq_without_budget_matches_reference(seed):
    data, _ = gen_massart(4, 500, 0.2, make_rng(200 + seed))
    teacher, pool, test = _split_three(data, 300, 50, 150)
    config = AsqConfig(K=10, query_budget=25, budget=None)
    _assert_same_run(
        pate_asq(teacher, pool, test, config, make_rng(seed)),
        oracles.reference_asq_noiseless(teacher, pool, test, config, make_rng(seed)),
    )
