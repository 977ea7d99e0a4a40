"""Seeded data generators and their closed-form properties."""

import numpy as np
import pytest

import oracles
from privote import (
    TncGenerator,
    empirical_error,
    gen_massart,
    gen_realizable,
    gen_tnc,
    make_rng,
)
from voting import VotingFailsFixture, VotingWinsGenerator, gen_voting_wins


def test_generators_are_seed_deterministic():
    a, ha = gen_realizable(4, 100, make_rng(3))
    b, hb = gen_realizable(4, 100, make_rng(3))
    assert np.array_equal(a.X.toarray(), b.X.toarray())
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(ha.weights, hb.weights)
    c, _ = gen_realizable(4, 100, make_rng(4))
    assert not np.array_equal(a.y, c.y)


def test_realizable_truth_has_zero_error():
    data, h_star = gen_realizable(6, 500, make_rng(9))
    assert empirical_error(h_star, data) == 0.0
    assert abs(np.linalg.norm(h_star.weights) - 1.0) < 1e-12
    # the mirrored halfspace labels the complement (no point sits exactly
    # on the boundary for a continuous draw)
    flipped = type(h_star)(-h_star.weights, -h_star.bias)
    assert empirical_error(flipped, data) == 1.0


def test_massart_flip_rate():
    data, h_star = gen_massart(5, 20_000, 0.3, make_rng(10))
    rate = empirical_error(h_star, data)
    assert abs(rate - 0.3) < 3 * oracles.binomial_se(0.3, 20_000)
    clean, h0 = gen_massart(5, 200, 0.0, make_rng(11))
    ref, href = gen_realizable(5, 200, make_rng(11))
    assert np.array_equal(clean.y, ref.y)
    assert np.array_equal(h0.weights, href.weights)
    with pytest.raises(ValueError):
        gen_massart(5, 10, 0.5, make_rng(0))


# ---------------------------------------------------------------------------
# 1-D threshold family with polynomial low-margin mass


@pytest.mark.parametrize("tau", (1.0, 0.8, 0.5, 0.25))
def test_tnc_closed_forms_match_oracle(tau):
    gen = TncGenerator(tau)
    for x in (0.0, 0.1, 0.45, 0.5, 0.77, 1.0):
        assert gen.margin(x) == pytest.approx(oracles.tnc_margin(x, tau), abs=1e-12)
    for t in (0.4, 0.5, 0.55, 0.9, 0.99):
        assert gen.excess_error(t) == pytest.approx(
            oracles.tnc_excess(t, tau), abs=1e-12
        )


def test_tnc_empirical_margin_mass():
    gen = TncGenerator(0.5)
    rng = make_rng(12)
    xs = rng.random(100_000)
    margins = gen.margin(xs)
    for t in (0.05, 0.15, 0.3):
        emp = float(np.mean(margins <= t))
        exact = oracles.tnc_tail_mass(t, 0.5)
        assert abs(emp - exact) < 4 * oracles.binomial_se(exact, 100_000)


def test_tnc_eta_and_labels():
    gen = TncGenerator(0.5)
    assert gen.eta(0.9) == pytest.approx(0.5 + gen.margin(0.9))
    assert gen.eta(0.1) == pytest.approx(0.5 - gen.margin(0.1))
    # tau = 1 with c = 1/2 clamps eta to {0, 1}: labels are deterministic
    hard = TncGenerator(1.0)
    xs, ys = hard.sample_xy(5_000, make_rng(13))
    assert np.array_equal(ys, (xs >= 0.5).astype(int))


def _brute_threshold_errors(xs, ys):
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    best = len(xs) + 1
    for t in np.concatenate(([0.0], np.sort(xs) + 1e-9, [2.0])):
        best = min(best, int(((xs >= t).astype(int) != ys).sum()))
    return best


def test_fit_threshold_is_an_exact_erm():
    gen = TncGenerator(0.5)
    for seed in range(30):
        xs, ys = gen.sample_xy(40, make_rng(seed))
        t = gen.fit_threshold(xs, ys)
        achieved = int(((xs >= t).astype(int) != ys).sum())
        assert achieved == _brute_threshold_errors(xs, ys)


def test_fit_threshold_boundary_cuts():
    gen = TncGenerator(1.0)
    assert gen.fit_threshold([0.2, 0.7], [1, 1]) == 0.0
    assert gen.fit_threshold([0.2, 0.7], [0, 0]) == 2.0
    t = gen.fit_threshold([0.2, 0.7], [0, 1])
    assert 0.2 < t < 0.7


def test_tnc_validation_and_gen():
    with pytest.raises(ValueError):
        TncGenerator(0.0)
    with pytest.raises(ValueError):
        TncGenerator(1.5)
    with pytest.raises(ValueError):
        TncGenerator(0.5, c=0.0)
    data, gen = gen_tnc(0.5, 50, make_rng(15))
    assert len(data) == 50 and data.n_features == 1
    assert gen.tau == 0.5


# ---------------------------------------------------------------------------
# The two voting fixtures


def test_voting_fails_fixture_matches_oracle():
    fx = VotingFailsFixture()
    assert np.array_equal(fx.member_labels, np.array(oracles.VF_CLASS))
    assert np.array_equal(fx.true_labels, np.array(oracles.VF_LABELS))
    for k in range(3):
        assert fx.member_error(k) == oracles.vf_member_error(oracles.VF_CLASS[k])
        assert fx.member_error(k) == 0.5
    assert tuple(fx.exact_majority()) == oracles.vf_exact_majority()
    assert fx.majority_error() == oracles.vf_majority_error() == 0.75


def test_voting_fails_mc_aggregate():
    fx = VotingFailsFixture()
    err = fx.aggregate_error_mc(99, 60, 60, make_rng(16))
    # the sampled-committee majority concentrates on the bad label triple
    assert 0.68 <= err <= 0.82


def test_voting_wins_per_point_accuracy():
    gen = gen_voting_wins(0.2, 300, make_rng(17))
    rng = make_rng(18)
    correct = np.zeros(300)
    reps = 2_000
    for _ in range(reps):
        correct += gen.teacher_labels(rng) == gen.truth
    rate = correct.mean() / reps
    assert abs(rate - 0.7) < 3 * oracles.binomial_se(0.7, 300 * reps)


def test_voting_wins_majority_beats_hoeffding():
    gen = gen_voting_wins(0.15, 5_000, make_rng(19))
    for K in (31, 101):
        err = gen.aggregate_error(K, make_rng(20 + K))
        bound = oracles.hoeffding_vote_bound(K, 0.15)
        assert err <= bound + 3 * oracles.binomial_se(bound, 5_000)


def test_voting_wins_validation():
    with pytest.raises(ValueError):
        VotingWinsGenerator(0.0, np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        gen_voting_wins(0.5, 10, make_rng(0))


# ---------------------------------------------------------------------------
# Generator parameters


def test_data_generator_validation():
    with pytest.raises(ValueError):
        gen_massart(5, 10, 0.7, make_rng(0))
    with pytest.raises(ValueError):
        TncGenerator(2.0)
    with pytest.raises(ValueError):
        VotingWinsGenerator(0.9, np.zeros(3, dtype=int))
