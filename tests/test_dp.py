import math

import numpy as np
import pytest

from mialab.dp import (
    DEFAULT_ORDERS,
    PrivacyParams,
    RdpProfile,
    account,
    calibrate_sigma,
    compose_and_convert,
    noisy_mean,
    rdp_profile,
    rdp_sgm,
)
from mialab.errors import AccountingError, CalibrationError

from reference_accountant import quadrature_rdp, reference_epsilon, reference_rdp

# Oracle values computed with tests/reference_accountant.py before the
# implementation existed; the reference and quadrature routes agree on them
# to ~1e-13 (re-checked at run time below).
ORACLE_RDP_Q001_S15_A16 = 0.0004956978613634659
ORACLE_EPS = {
    # (q, sigma, steps) -> reference epsilon at delta=1e-5 over DEFAULT_ORDERS
    (0.005, 1.5, 500): 0.6124545177153449,
    (0.02, 0.8, 500): 6.14679910730284,
    (0.02, 4.0, 5000): 1.802790733065747,
    (0.1, 1.5, 5000): 39.41609661336977,
    (0.005, 4.0, 5000): 0.43867138336662004,
}
ORACLE_COMPOSE_Q002_S11_T5000 = 9.35415630521543
ORACLE_CALIBRATED_SIGMA = 6.998158065953018  # eps=1, delta=1e-5, q=0.02, T=5000


class TestNoisyMean:
    def test_sigma_zero_exact_mean(self):
        out = noisy_mean(np.array([4.0, 6.0]), clip_norm=1.0, noise_multiplier=0.0,
                         expected_batch=4.0, seed=0)
        np.testing.assert_allclose(out, [1.0, 1.5])

    def test_empty_batch_pure_noise(self):
        out = noisy_mean(np.zeros(3), clip_norm=1.0, noise_multiplier=1.0, expected_batch=2.0,
                         seed=1)
        assert out.shape == (3,)
        assert np.any(out != 0.0)

    def test_noise_variance_monte_carlo(self):
        # var of each output coordinate = (sigma * C)^2 / expected_batch^2
        sigma, c, eb = 1.5, 2.0, 8.0
        draws = np.array(
            [
                noisy_mean(np.zeros(4), clip_norm=c, noise_multiplier=sigma,
                           expected_batch=eb, seed=seed)
                for seed in range(2500)
            ]
        )
        target = (sigma * c / eb) ** 2
        assert np.var(draws) == pytest.approx(target, rel=0.05)

    def test_deterministic_given_seed(self):
        a = noisy_mean(np.ones(2), 1.0, 1.0, 2.0, seed=7)
        b = noisy_mean(np.ones(2), 1.0, 1.0, 2.0, seed=7)
        np.testing.assert_array_equal(a, b)


class TestRdpSgm:
    def test_q_one_closed_form(self):
        assert rdp_sgm(1.0, 2.0, 8) == pytest.approx(8 / (2 * 4))

    def test_small_q_vanishes(self):
        assert rdp_sgm(1e-9, 1.5, 16) < 1e-12

    def test_oracle_value_three_significant_figures(self):
        mine = rdp_sgm(0.01, 1.5, 16)
        assert mine == pytest.approx(ORACLE_RDP_Q001_S15_A16, rel=1e-3)
        # re-derive the frozen oracle from both independent routes
        assert reference_rdp(0.01, 1.5, 16) == pytest.approx(ORACLE_RDP_Q001_S15_A16, rel=1e-12)
        assert quadrature_rdp(0.01, 1.5, 16) == pytest.approx(ORACLE_RDP_Q001_S15_A16, rel=1e-9)

    def test_integer_orders_match_reference_exactly(self):
        for q in (0.001, 0.02, 0.3):
            for sigma in (0.7, 1.5, 6.0):
                for alpha in (2, 3, 17, 64):
                    assert rdp_sgm(q, sigma, alpha) == pytest.approx(
                        reference_rdp(q, sigma, alpha), rel=1e-10
                    )

    def test_fractional_orders_upper_bound_reference(self):
        for q in (0.01, 0.1):
            for sigma in (0.8, 2.0):
                for alpha in (1.25, 2.5, 7.5, 33.5):
                    mine = rdp_sgm(q, sigma, alpha)
                    ref = reference_rdp(q, sigma, alpha)
                    assert mine >= ref - 1e-12

    def test_monotonicities(self):
        qs = [0.001, 0.01, 0.1, 0.5, 1.0]
        sigmas = [0.5, 1.0, 2.0, 5.0, 10.0]
        alphas = [2, 4, 8, 16, 32, 64]
        for sigma in sigmas:
            for alpha in alphas:
                vals = [rdp_sgm(q, sigma, alpha) for q in qs]
                assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        for q in qs:
            for alpha in alphas:
                vals = [rdp_sgm(q, sigma, alpha) for sigma in sigmas]
                assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        for q in qs:
            for sigma in sigmas:
                vals = [rdp_sgm(q, sigma, alpha) for alpha in alphas]
                assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(AccountingError):
            rdp_sgm(0.1, 1.0, 1.0)
        with pytest.raises(AccountingError):
            rdp_sgm(0.0, 1.0, 2.0)
        with pytest.raises(AccountingError):
            rdp_sgm(0.1, 0.0, 2.0)


class TestComposeAndConvert:
    def test_single_order_formula(self):
        profile = RdpProfile(orders=(8.0,), rdp_values=(0.0,))
        result = compose_and_convert(profile, steps=1, delta=1e-5)
        assert result.epsilon == pytest.approx(math.log(1e5) / 7)
        assert result.order == 8.0

    def test_doubling_steps_never_decreases_epsilon(self):
        profile = rdp_profile(0.02, 1.1)
        for t in (1, 10, 100, 1000):
            a = compose_and_convert(profile, t, 1e-5).epsilon
            b = compose_and_convert(profile, 2 * t, 1e-5).epsilon
            assert b >= a

    def test_compose_oracle_within_two_percent(self):
        mine = account(0.02, 1.1, 5000, 1e-5)
        assert mine.epsilon == pytest.approx(ORACLE_COMPOSE_Q002_S11_T5000, rel=0.02)
        ref, _ = reference_epsilon(0.02, 1.1, 5000, 1e-5, DEFAULT_ORDERS)
        assert ref == pytest.approx(ORACLE_COMPOSE_Q002_S11_T5000, rel=1e-12)

    def test_never_underreports_reference(self):
        # The interpolation path is an upper bound; the accountant must not
        # claim less privacy loss than the reference anywhere on the grid.
        for q in (0.005, 0.02, 0.1):
            for sigma in (0.8, 1.5, 4.0):
                for steps in (500, 5000):
                    ref, _ = reference_epsilon(q, sigma, steps, 1e-5, DEFAULT_ORDERS)
                    mine = account(q, sigma, steps, 1e-5).epsilon
                    assert mine >= ref - 1e-9

    def test_monotone_in_delta(self):
        profile = rdp_profile(0.02, 1.5)
        eps_small = compose_and_convert(profile, 100, 1e-7).epsilon
        eps_large = compose_and_convert(profile, 100, 1e-3).epsilon
        assert eps_small > eps_large

    def test_empty_profile_rejected(self):
        with pytest.raises(AccountingError, match="empty"):
            RdpProfile(orders=(), rdp_values=())


class TestCalibrateSigma:
    def test_monotone_in_target(self):
        s1 = calibrate_sigma(1.0, 1e-5, 0.02, 1000)
        s2 = calibrate_sigma(4.0, 1e-5, 0.02, 1000)
        assert s2 <= s1

    def test_round_trip_lands_within_one_percent_below(self):
        for target in (0.1, 1.0, 10.0):
            sigma = calibrate_sigma(target, 1e-5, 0.05, 2000)
            back = account(0.05, sigma, 2000, 1e-5).epsilon
            assert 0.97 * target <= back <= target

    def test_calibration_oracle_within_five_percent(self):
        sigma = calibrate_sigma(1.0, 1e-5, 0.02, 5000)
        assert sigma == pytest.approx(ORACLE_CALIBRATED_SIGMA, rel=0.05)

    def test_unreachable_target_errors(self):
        with pytest.raises(CalibrationError, match="bracket"):
            calibrate_sigma(1e-9, 1e-5, 0.5, 100000)


class TestPrivacyParams:
    def test_finite_epsilon_needs_noise(self):
        with pytest.raises(AccountingError, match="noise"):
            PrivacyParams(epsilon=1.0, noise_multiplier=0.0)

    def test_delta_warning_regime(self):
        params = PrivacyParams(epsilon=1.0, delta=0.01, noise_multiplier=1.0)
        with pytest.warns(UserWarning, match="1/n"):
            params.warn_if_delta_large(1000)

    def test_recommended_regime_silent(self):
        import warnings

        params = PrivacyParams(epsilon=1.0, delta=1e-5, noise_multiplier=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params.warn_if_delta_large(1000)
