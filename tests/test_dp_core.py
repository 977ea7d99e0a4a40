"""Noise calibration, accounting, and sampler correctness."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import oracles
from privote import (
    GaussianSession,
    PrivacyBudget,
    VoteCount,
    calibrate_gaussian_sigma,
    derive_seed,
    make_rng,
)
from privote.dp_core import (
    calibrate_svt,
    gaussian_epsilon,
    sample_gaussian,
    sample_laplace,
)

ELLS = (1, 10, 100, 1000)
EPSILONS = (0.1, 0.5, 1.0, 2.0)
DELTAS = (1e-5, 1e-8)


@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("delta", DELTAS)
def test_gaussian_sigma_spends_budget_exactly(ell, eps, delta):
    sigma = calibrate_gaussian_sigma(ell, PrivacyBudget(eps, delta))
    achieved = oracles.gaussian_session_epsilon(sigma, ell, delta)
    assert abs(achieved - eps) <= 1e-9 * eps


@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("delta", DELTAS)
def test_gaussian_sigma_matches_bisection(ell, eps, delta):
    sigma = calibrate_gaussian_sigma(ell, PrivacyBudget(eps, delta))
    ref = oracles.solve_sigma_bisect(ell, eps, delta)
    assert sigma == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("ell", (10, 49, 100, 163, 240, 1000))
@pytest.mark.parametrize("eps", (0.5, 1.0, 2.0, 4.0))
def test_calibrated_session_never_reports_above_budget(ell, eps):
    """Rounding in the closed form must not put the report of ell answers
    even one ulp over epsilon."""
    session = GaussianSession.for_budget(ell, PrivacyBudget(eps, 1e-5), make_rng(0))
    for _ in range(ell):
        session.answer(VoteCount(1, 2))
    assert session.privacy_report()[0] <= eps


def test_sigma_monotone_in_ell_and_epsilon():
    budget = PrivacyBudget(1.0, 1e-6)
    sigmas = [calibrate_gaussian_sigma(ell, budget) for ell in (1, 5, 50, 500)]
    assert sigmas == sorted(sigmas)
    by_eps = [
        calibrate_gaussian_sigma(100, PrivacyBudget(eps, 1e-6))
        for eps in (0.1, 0.5, 1.0, 2.0)
    ]
    assert by_eps == sorted(by_eps, reverse=True)


@pytest.mark.parametrize("T", (1, 5, 20, 200))
@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("delta", DELTAS)
def test_svt_lambda_formula_and_budget(T, eps, delta):
    lam, _ = calibrate_svt(1000, T, PrivacyBudget(eps, delta))
    assert lam == pytest.approx(oracles.svt_lambda_formula(T, eps, delta), rel=1e-12)
    # the T threshold perturbations compose to 2T/lam^2 zCDP, which must
    # convert to exactly (eps, delta/2)
    achieved = oracles.zcdp_epsilon(2.0 * T / lam**2, delta / 2.0)
    assert achieved == pytest.approx(eps, rel=1e-9)


def test_svt_threshold_matches_formula():
    for ell, T, eps, delta in [(1000, 20, 1.0, 1e-5), (10, 2, 0.5, 1e-8)]:
        lam, w = calibrate_svt(ell, T, PrivacyBudget(eps, delta))
        assert w == pytest.approx(oracles.svt_threshold_formula(lam, ell, T, delta))


def test_zcdp_conversions():
    # 3 answers at sigma^2 = 5 cost 0.3 zCDP
    sigma = 5.0**0.5
    assert gaussian_epsilon(3, sigma, 1e-5) == pytest.approx(
        oracles.zcdp_epsilon(3 / (2 * sigma**2), 1e-5)
    )
    assert gaussian_epsilon(0, sigma, 1e-5) == 0.0


@given(
    eps=st.floats(0.01, 10.0),
    delta=st.floats(1e-10, 1e-2),
)
def test_zcdp_round_trip_never_understates(eps, delta):
    # eps-DP implies eps^2/2 zCDP, which implies an (eps', delta) guarantee
    # with eps' >= eps, so converting back can only grow the epsilon; one
    # answer at sigma = 1/eps costs eps^2/2 zCDP
    back = gaussian_epsilon(1, 1.0 / eps, delta)
    assert back >= eps - 1e-12


@given(
    ell=st.integers(1, 2000),
    eps=st.floats(0.05, 5.0),
    delta=st.floats(1e-9, 1e-3),
)
def test_calibration_residual_property(ell, eps, delta):
    sigma = calibrate_gaussian_sigma(ell, PrivacyBudget(eps, delta))
    assert sigma > 0
    achieved = oracles.gaussian_session_epsilon(sigma, ell, delta)
    assert abs(achieved - eps) <= 1e-9 * eps


def test_composition_and_ex_post():
    sigma = 28.0
    assert gaussian_epsilon(163, sigma, 1e-5) == pytest.approx(
        oracles.zcdp_epsilon(163 / (2 * sigma**2), 1e-5)
    )

    def ex_post(q):
        return gaussian_epsilon(q, sigma, 1e-5)

    assert ex_post(0) == 0.0
    vals = [ex_post(q) for q in range(0, 50, 7)]
    assert vals == sorted(vals)
    assert ex_post(10) == pytest.approx(
        oracles.zcdp_epsilon(10 / (2 * sigma**2), 1e-5)
    )


def test_ex_post_at_budget_recovers_calibrated_epsilon():
    budget = PrivacyBudget(2.0, 1e-4)
    session = GaussianSession.for_budget(163, budget, make_rng(0))
    for _ in range(163):
        session.answer(VoteCount(1, 3))
    eps, delta = session.privacy_report()
    assert eps == pytest.approx(2.0, rel=1e-9) and delta == budget.delta


def test_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(0.0, 1e-5)
    with pytest.raises(ValueError):
        PrivacyBudget(-1.0, 1e-5)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 1.0)
    with pytest.warns(UserWarning):
        PrivacyBudget(50.0, 1e-5)


def test_derive_seed_deterministic_and_spread():
    seeds = [derive_seed(1234, i) for i in range(1000)]
    assert seeds == [derive_seed(1234, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(1234, 0) != derive_seed(1235, 0)


def test_make_rng_passthrough_and_reproducibility():
    gen = np.random.default_rng(7)
    assert make_rng(gen) is gen
    a = make_rng(42).random(5)
    b = make_rng(42).random(5)
    assert np.array_equal(a, b)


def test_laplace_sampler_moments_and_shape():
    rng = make_rng(0)
    x = sample_laplace(2.5, rng, size=200_000)
    assert x.shape == (200_000,)
    assert abs(x.mean()) < 0.05
    # Var = 2 b^2 = 12.5
    assert x.var() == pytest.approx(12.5, rel=0.05)
    single = sample_laplace(1.0, make_rng(1))
    assert np.isscalar(single) or np.ndim(single) == 0


def test_laplace_sampler_distribution():
    rng = make_rng(11)
    x = sample_laplace(3.0, rng, size=20_000)
    stat = stats.kstest(x, lambda v: np.vectorize(oracles.laplace_cdf)(v, 3.0))
    assert stat.pvalue > 0.01


def test_gaussian_sampler_distribution():
    rng = make_rng(12)
    x = sample_gaussian(4.0, rng, size=20_000)
    assert stats.kstest(x, "norm", args=(0.0, 4.0)).pvalue > 0.01
    assert x.std() == pytest.approx(4.0, rel=0.05)


def test_sampler_scale_validation():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        sample_laplace(0.0, rng)
    with pytest.raises(ValueError):
        sample_gaussian(-1.0, rng)


def test_calibration_rejects_bad_inputs():
    budget = PrivacyBudget(1.0, 1e-5)
    with pytest.raises(ValueError):
        calibrate_gaussian_sigma(0, budget)
    with pytest.raises(ValueError):
        calibrate_svt(10, 0, budget)  # T = 0
    with pytest.raises(ValueError):
        calibrate_svt(0, 2, budget)  # ell = 0
    for answers, sigma, delta in [
        (-1, 1.0, 1e-5), (1.5, 1.0, 1e-5),  # answers
        (1, 0.0, 1e-5), (1, -1.0, 1e-5),  # sigma
        (1, 1.0, 0.0), (1, 1.0, 1.0),  # delta
    ]:
        with pytest.raises(ValueError):
            gaussian_epsilon(answers, sigma, delta)
