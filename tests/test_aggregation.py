"""Vote margins, stability distances, and the three aggregation sessions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from privote import (
    ExactSession,
    GaussianSession,
    PrivacyBudget,
    SessionExhausted,
    SvtSession,
    VoteCount,
    make_rng,
    margin,
)
from privote.aggregation import distance_to_instability, vote_majority
from privote.dp_core import sample_gaussian, sample_laplace


def _vc(votes):
    return VoteCount(sum(votes), len(votes))


def test_vote_count_validation():
    VoteCount(0, 1)
    with pytest.raises(ValueError):
        VoteCount(-1, 5)
    with pytest.raises(ValueError):
        VoteCount(6, 5)
    with pytest.raises(ValueError):
        VoteCount(1, 0)


def test_margin_type_and_examples():
    m = margin(VoteCount(3, 5))
    assert type(m) is int
    assert m == 1
    assert margin(VoteCount(0, 10)) == 10
    assert margin(VoteCount(5, 10)) == 0


def test_distance_examples():
    # ties and margin-2 counts are one flip from flipping, so distance 0
    assert distance_to_instability(VoteCount(5, 10)) == 0
    assert distance_to_instability(VoteCount(6, 10)) == 0
    assert distance_to_instability(VoteCount(4, 5)) == 1
    assert distance_to_instability(VoteCount(10, 10)) == 4


@pytest.mark.parametrize("k", range(1, 10))
def test_margin_matches_brute_force(k):
    for votes in oracles.all_vote_vectors(k):
        vc = _vc(votes)
        assert margin(vc) == oracles.brute_margin(list(votes))
        assert vote_majority(vc) == oracles.brute_majority(list(votes))
        # parity is inherited from the ensemble size
        assert margin(vc) % 2 == k % 2


@pytest.mark.parametrize("k", range(1, 10))
def test_distance_is_conservative_and_stable(k):
    for votes in oracles.all_vote_vectors(k):
        votes = list(votes)
        d = distance_to_instability(_vc(votes))
        true_d = oracles.brute_distance(votes)
        assert 0 <= d <= true_d
        if d > 0:
            # any single flip leaves the majority label untouched
            for i in range(k):
                flipped = votes.copy()
                flipped[i] ^= 1
                assert vote_majority(_vc(flipped)) == vote_majority(_vc(votes))


@given(st.integers(1, 99), st.data())
def test_distance_sensitivity_one(k, data):
    ones = data.draw(st.integers(0, k))
    d = distance_to_instability(VoteCount(ones, k))
    for other in (ones - 1, ones + 1):
        if 0 <= other <= k:
            d2 = distance_to_instability(VoteCount(other, k))
            assert abs(d - d2) <= 1


def test_tie_breaks_to_one():
    assert vote_majority(VoteCount(3, 6)) == 1
    assert vote_majority(VoteCount(2, 6)) == 0
    assert vote_majority(VoteCount(4, 6)) == 1


# ---------------------------------------------------------------------------
# Exact-majority sessions


@pytest.mark.parametrize("k", range(1, 10))
def test_exact_session_is_vote_majority(k):
    session = ExactSession()
    for votes in oracles.all_vote_vectors(k):
        # no budget: every query in the enumeration is answered
        assert session.answer(_vc(votes)) == oracles.brute_majority(list(votes))
    assert session.privacy_report() == (math.inf, 0.0)


# ---------------------------------------------------------------------------
# Noisy-majority sessions


def test_gaussian_tie_frequency():
    rng = make_rng(5)
    session = GaussianSession(7.0, 10_000, 1e-5, rng)
    hits = sum(session.answer(VoteCount(5, 10)) for _ in range(10_000))
    # exact tie: the answer is 1 iff the noise is nonnegative
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_gaussian_tiny_noise_is_exact_majority():
    rng = make_rng(6)
    session = GaussianSession(0.05, 2_000, 1e-5, rng)
    for _ in range(1_000):
        assert session.answer(VoteCount(60, 100)) == 1
        assert session.answer(VoteCount(40, 100)) == 0


def test_gaussian_budget_exhaustion():
    session = GaussianSession(1.0, 3, 1e-5, make_rng(0))
    for _ in range(3):
        session.answer(VoteCount(1, 1))
    with pytest.raises(SessionExhausted):
        session.answer(VoteCount(1, 1))


def test_gaussian_session_replay():
    # the session draws exactly one gaussian per answer, in answer order
    stream = [VoteCount(k % 8, 7) for k in range(50)]
    session = GaussianSession(4.0, 50, 1e-5, make_rng(99))
    got = [session.answer(v) for v in stream]
    rng = make_rng(99)
    expected = [
        int(v.ones + sample_gaussian(4.0, rng) >= v.total / 2) for v in stream
    ]
    assert got == expected


def test_gaussian_privacy_report_tracks_answers():
    budget = PrivacyBudget(1.0, 1e-5)
    session = GaussianSession.for_budget(20, budget, make_rng(1))
    assert session.privacy_report()[0] == 0.0
    for q in range(1, 21):
        session.answer(VoteCount(1, 3))
        eps, delta = session.privacy_report()
        assert delta == 1e-5
        assert eps == pytest.approx(
            oracles.zcdp_epsilon(q / (2 * session.sigma**2), 1e-5)
        )
    # spending the full budget lands exactly on the budgeted epsilon
    assert session.privacy_report()[0] == pytest.approx(1.0, rel=1e-9)


def _answered(session, ell):
    for _ in range(ell):
        session.answer(VoteCount(0, 1))
    return session


def _worst_exact_delta(session, K):
    """The largest exact delta, at the epsilon the session reports, of its
    answers so far when each one asks the same count of K votes, over every
    neighbouring pair of counts (ones, ones + 1), both ways round.

    The answers are then Binomial(ell, P(1)) under each count, so delta(eps)
    is a finite sum. It models no adaptivity, so it bounds the true cost
    from below: it catches a report that claims too little.
    """
    eps, _ = session.privacy_report()
    ell, ones = session.answered, np.arange(K)
    p, q = (
        oracles.binomial_log_pmf(
            ell, *oracles.noisy_majority_log_probs(counts, K, session.sigma)
        )
        for counts in (ones, ones + 1)
    )
    return max(
        oracles.hockey_stick_delta(p, q, eps).max(),
        oracles.hockey_stick_delta(q, p, eps).max(),
    )


@pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0, 4.0])
# delta = 1/(teacher rows), with the default committee of one teacher per
# hundred rows: 1e5, 6,499 (mushrooms-shaped) and 9,600 (a9a-shaped) rows
@pytest.mark.parametrize("delta, K", [(1e-5, 1000), (1 / 6499, 65), (1 / 9600, 96)])
def test_gaussian_exact_delta_is_within_the_report(epsilon, delta, K):
    for ell in (1, 49, 163, 240):
        budget = PrivacyBudget(epsilon, delta)
        session = _answered(GaussianSession.for_budget(ell, budget, make_rng(0)), ell)
        assert session.privacy_report()[1] == delta
        assert _worst_exact_delta(session, K) <= delta, ell


def test_exact_delta_check_catches_half_the_noise():
    """A session that answers with sigma/2 but reports the (epsilon, delta)
    calibrated for sigma fails the check: the check has power."""
    budget = PrivacyBudget(1.0, 1 / 6499)
    honest = _answered(GaussianSession.for_budget(49, budget, make_rng(0)), 49)
    broken = _answered(GaussianSession(honest.sigma / 2, 49, budget.delta, make_rng(0)), 49)
    broken.privacy_report = honest.privacy_report
    assert honest.privacy_report() == (pytest.approx(1.0, rel=1e-9), budget.delta)
    assert _worst_exact_delta(honest, 65) == pytest.approx(2.65e-9, rel=0.01)
    assert _worst_exact_delta(broken, 65) == pytest.approx(6.8e-4, rel=0.01)
    assert _worst_exact_delta(broken, 65) > budget.delta


# ---------------------------------------------------------------------------
# Stable-release sessions


def _replay_svt(lam, w, cutoff, seed, stream):
    """Independent replay of the session's noise-draw order."""
    rng = make_rng(seed)
    noisy_w = w + sample_laplace(lam, rng)
    out = []
    consumed = 0
    for ones, total in stream:
        if consumed >= cutoff:
            break
        gap = abs(2 * ones - total)
        dist = max(0, (gap + 1) // 2 - 1)
        if dist + sample_laplace(2.0 * lam, rng) > noisy_w:
            out.append(1 if ones >= total / 2 else 0)
        else:
            out.append(None)
            consumed += 1
            if consumed < cutoff:
                noisy_w = w + sample_laplace(lam, rng)
    return out


def test_svt_draw_order_replay():
    budget = PrivacyBudget(1.0, 1e-4)
    lam, w, cutoff = 2.0, 4.0, 5
    stream = [(k % 30, 29) for k in range(200)]
    session = SvtSession(lam, w, cutoff, budget, make_rng(123))
    got = []
    for ones, total in stream:
        if session.halted:
            break
        got.append(session.answer(VoteCount(ones, total)))
    assert got == _replay_svt(lam, w, cutoff, 123, stream)
    assert sum(1 for g in got if g is None) == cutoff


def test_svt_cutoff_halts_session():
    budget = PrivacyBudget(1.0, 1e-4)
    session = SvtSession(5.0, 1e9, 3, budget, make_rng(0))
    for _ in range(3):
        assert session.answer(VoteCount(1, 2)) is None
    assert session.halted
    with pytest.raises(SessionExhausted):
        session.answer(VoteCount(1, 2))


def test_svt_false_release_is_rare():
    # tie queries have distance 0; with the calibrated threshold the session
    # should essentially never release them
    budget = PrivacyBudget(1.0, 0.01)
    session = SvtSession.for_budget(2_000, 2_001, budget, make_rng(17))
    released = 0
    for _ in range(2_000):
        if session.answer(VoteCount(50, 100)) is not None:
            released += 1
    assert released / 2_000 < budget.delta


def test_svt_releases_exact_majority_when_stable():
    budget = PrivacyBudget(1.0, 1e-5)
    trials_ok = 0
    for seed in range(100):
        session = SvtSession.for_budget(20, 5, budget, make_rng(seed))
        k = int(12 * session.w) * 2 + 1
        ok = True
        for i in range(20):
            ones = k if i % 2 == 0 else 0
            got = session.answer(VoteCount(ones, k))
            ok &= got == (1 if i % 2 == 0 else 0)
        trials_ok += ok
    assert trials_ok >= 95


def test_svt_report_ignores_stable_count():
    budget = PrivacyBudget(0.7, 1e-6)
    a = SvtSession.for_budget(100, 4, budget, make_rng(1))
    b = SvtSession.for_budget(100, 4, budget, make_rng(2))
    k = int(12 * a.w) * 2 + 1
    for _ in range(60):
        a.answer(VoteCount(k, k))
    b.answer(VoteCount(k, k))
    assert a.privacy_report() == b.privacy_report() == (0.7, 1e-6)


def test_svt_validation():
    budget = PrivacyBudget(1.0, 1e-5)
    with pytest.raises(ValueError):
        SvtSession(0.0, 1.0, 1, budget, make_rng(0))
    with pytest.raises(ValueError):
        SvtSession(1.0, -1.0, 1, budget, make_rng(0))
    with pytest.raises(ValueError):
        SvtSession(1.0, 1.0, 0, budget, make_rng(0))
