import math

import numpy as np
import pytest
from scipy.special import logsumexp

from mialab import dp
from mialab.dp import DEFAULT_ORDERS, PrivacyParams, account, calibrate_sigma, noisy_mean
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
# calibrate_sigma(eps, 1e-5, q=0.4, steps=90) and account() at that sigma, as
# produced by the per-order accountant that preceded the one-pass one:
# eps -> (sigma, realized epsilon, order).
FROZEN_EPS_SWEEP = {
    0.05: ("0x1.3438e8ef47ae0p+9", "0x1.9999927cc4c3cp-5", 256.0),
    0.1: ("0x1.6ef62b3d1eb86p+7", "0x1.99993b3150434p-4", 256.0),
    0.2: ("0x1.6fe4325cccccep+6", "0x1.9998c5be1264cp-3", 128.0),
    0.5: ("0x1.27b7512147ae2p+5", "0x1.fffee33550770p-2", 47.0),
    1.0: ("0x1.2c118935c28f6p+4", "0x1.fffaf4dc4c242p-1", 24.0),
    2.0: ("0x1.34a2d175c28f6p+3", "0x1.fff8fc1f44246p+0", 13.0),
    5.0: ("0x1.0aef08851eb86p+2", "0x1.3ff46c6967810p+2", 6.0),
    10.0: ("0x1.2db1293333334p+1", "0x1.3fecafb15d7b8p+3", 4.0),
}


# Test-only oracle: the accountant's earlier per-order log-moment, one
# Python-list binomial expansion and one scipy logsumexp per integer order.
def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _log_moment_int(q: float, sigma: float, alpha: int) -> float:
    """log E[(mixture/base)^alpha] for the subsampled Gaussian at integer alpha."""
    if q == 1.0:
        return (alpha * alpha - alpha) / (2.0 * sigma * sigma)
    log_q = math.log(q)
    log_1q = math.log1p(-q)
    terms = np.array(
        [
            _log_binom(alpha, i)
            + i * log_q
            + (alpha - i) * log_1q
            + (i * i - i) / (2.0 * sigma * sigma)
            for i in range(alpha + 1)
        ]
    )
    return float(logsumexp(terms))


def _oracle_rdp(q: float, sigma: float, order: float) -> float:
    """The earlier rdp_sgm on top of the oracle log-moment."""
    if q == 1.0:
        return order / (2.0 * sigma * sigma)
    if float(order).is_integer():
        return _log_moment_int(q, sigma, int(order)) / (order - 1.0)
    lo = math.floor(order)
    t = order - lo
    kappa_lo = 0.0 if lo == 1 else _log_moment_int(q, sigma, lo)
    kappa_hi = _log_moment_int(q, sigma, lo + 1)
    return ((1.0 - t) * kappa_lo + t * kappa_hi) / (order - 1.0)


def _oracle_grid():
    """(q, sigma) pairs: the corners of q near 0 and 1 by sigma 0.2 and
    1000, and seeded draws in between (q uniform, sigma log-uniform)."""
    rng = np.random.default_rng(20201023)
    corners = [(q, s) for q in (1e-5, 0.999) for s in (0.2, 1000.0)]
    qs = rng.uniform(1e-5, 0.999, 10)
    sigmas = np.exp(rng.uniform(math.log(0.2), math.log(1000.0), 10))
    return corners + [(float(q), float(s)) for q, s in zip(qs, sigmas)]


CUSTOM_ORDERS = (1.01, 2.3, 300, 512, 300.5)


def rdp_sgm(q, sigma, order):
    """The accountant's Renyi divergence of one step at a single order."""
    return dp._rdp_values(q, sigma, (order,))[0]


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

    @pytest.mark.parametrize("n_params", [1_218, 92_162])
    @pytest.mark.parametrize("sigma", [0.5, 2.36, 616.4])
    @pytest.mark.parametrize("batch", ["clipped", "empty"])
    def test_buffer_form_is_the_allocating_form(self, n_params, sigma, batch):
        # the sum (rng.normal(0, s) draws 0.0 + s * z) and the stream
        # position, bit for bit; an empty Poisson batch's sum is a zero
        # vector, here with -0 entries
        clip_norm, expected_batch = 0.5, 79.2
        total = np.random.default_rng(n_params).normal(size=n_params)
        if batch == "empty":
            total = np.where(np.arange(n_params) % 2, 0.0, -0.0)
        before = total.copy()
        gens = [np.random.default_rng(5) for _ in range(3)]
        expected = (total + gens[0].normal(0.0, sigma * clip_norm, size=n_params)) / expected_batch
        allocated = noisy_mean(total, clip_norm, sigma, expected_batch, gens[1])
        out = np.full((2, n_params), np.nan)
        row = out[1]
        assert noisy_mean(total, clip_norm, sigma, expected_batch, gens[2], row) is row
        for got in (allocated, row):
            assert got.tobytes() == expected.tobytes()
        assert np.isnan(out[0]).all()
        assert total.tobytes() == before.tobytes()
        assert gens[1].bit_generator.state == gens[2].bit_generator.state == (
            gens[0].bit_generator.state)

    def test_zero_noise_with_an_infinite_clip_norm_draws_nothing(self):
        gen = np.random.default_rng(3)
        state = gen.bit_generator.state
        out = np.empty(2)
        noisy_mean(np.array([4.0, -0.0]), math.inf, 0.0, 4.0, gen, out)
        assert out.tobytes() == np.array([1.0, -0.0]).tobytes()
        assert gen.bit_generator.state == state

    def test_refuses_a_buffer_that_overlaps_the_sum(self):
        buf = np.zeros(4)
        with pytest.raises(AccountingError, match="overlap"):
            noisy_mean(buf, 1.0, 1.0, 2.0, 0, buf)


@pytest.mark.parametrize("fn, args, field", [
    (noisy_mean, ([4.0, 6.0], 1.0, math.nan, 2.0, 0), "noise_multiplier"),
    (noisy_mean, ([4.0, 6.0], 1.0, math.inf, 2.0, 0), "noise_multiplier"),
    (noisy_mean, ([4.0, 6.0], 1.0, 1.0, math.nan, 0), "expected_batch"),
    (noisy_mean, ([4.0, 6.0], 1.0, 1.0, math.inf, 0), "expected_batch"),
    (noisy_mean, ([4.0, 6.0], math.nan, 1.0, 2.0, 0), "clip_norm"),
    (account, (0.4, math.nan, 90, 1e-5), "sigma"),
    (account, (0.4, math.inf, 90, 1e-5), "sigma"),
    (account, (0.4, 1.0, math.nan, 1e-5), "steps"),
    (account, (0.4, 1.0, 2.5, 1e-5), "steps"),
    (account, (0.4, 1.0, True, 1e-5), "steps"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_non_finite_or_fractional_arguments_fail_closed(fn, args, field):
    # the rules PrivacyParams applies: a NaN, an infinity or a
    # non-integer step count is refused with the argument named
    with pytest.raises(AccountingError) as refused:
        fn(*args)
    assert refused.value.field == field


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
        for q in (0.1, 1.0):
            with pytest.raises(AccountingError, match="underflows"):
                rdp_sgm(q, 1e-170, 2.0)


class TestOnePassAccountant:
    """The vectorised accountant must reproduce the per-order one bit for bit."""

    def test_rdp_profile_bitwise_equals_oracle(self):
        orders = DEFAULT_ORDERS + CUSTOM_ORDERS
        for q, sigma in _oracle_grid():
            mine = dp._rdp_values(q, sigma, orders)
            assert mine == tuple(_oracle_rdp(q, sigma, a) for a in orders), (q, sigma)

    def test_rdp_sgm_bitwise_equals_oracle(self):
        for q, sigma in _oracle_grid()[::3]:
            for order in (1.25, 2.0, 2.5, 17.0, 63.5, 128.0, 256.0) + CUSTOM_ORDERS:
                assert rdp_sgm(q, sigma, order) == _oracle_rdp(q, sigma, order), (q, sigma, order)

    def test_plain_gaussian_unchanged(self):
        for order in (1.5, 2, 256.0):
            assert rdp_sgm(1.0, 3.0, order) == _oracle_rdp(1.0, 3.0, order)

    def test_logsumexp_bitwise_equals_scipy(self):
        rng = np.random.default_rng(7)
        vectors = []
        for n in (1, 2, 3, 7, 8, 9, 64, 129, 257, 600):
            a = rng.normal(scale=rng.choice([0.1, 10.0, 1e3]), size=n)
            vectors.append(a)
            tied = a.copy()
            tied[rng.integers(0, n, size=max(1, n // 3))] = a.max()
            vectors.append(tied)
            holes = a.copy()
            holes[rng.integers(0, n, size=max(1, n // 2))] = -np.inf
            vectors.append(holes)
        vectors += [np.full(5, 2.5), np.full(4, -np.inf), np.array([-np.inf, 1.0, -np.inf, 1.0])]
        for a in vectors:
            assert dp._logsumexp(a)[0] == logsumexp(a), a
        starts = np.cumsum([0] + [len(a) for a in vectors[:-1]])
        joined = dp._logsumexp(np.concatenate(vectors), starts)
        assert joined.tolist() == [float(logsumexp(a)) for a in vectors]

    def test_frozen_sigma_epsilon_and_order(self):
        for eps, (sigma_hex, realized_hex, order) in FROZEN_EPS_SWEEP.items():
            sigma = calibrate_sigma(eps, 1e-5, 0.4, 90)
            assert sigma == float.fromhex(sigma_hex), eps
            result = account(0.4, sigma, 90, 1e-5)
            assert result.epsilon == float.fromhex(realized_hex), eps
            assert result.order == order, eps

    def test_calibration_accounts_each_sigma_once(self, monkeypatch):
        sigmas = []
        real_account = dp.account

        def counting_account(q, sigma, *args, **kwargs):
            sigmas.append(sigma)
            return real_account(q, sigma, *args, **kwargs)

        monkeypatch.setattr(dp, "account", counting_account)
        for eps in (0.05, 1.0, 10.0):
            sigmas.clear()
            calibrate_sigma(eps, 1e-5, 0.4, 90)
            assert len(sigmas) == len(set(sigmas)) > 2


class TestComposeAndConvert:
    def test_single_order_formula(self):
        result = account(0.02, 1.5, 1, 1e-5, orders=(8.0,))
        assert result.epsilon == rdp_sgm(0.02, 1.5, 8.0) + math.log(1e5) / 7
        assert result.order == 8.0

    def test_doubling_steps_never_decreases_epsilon(self):
        for t in (1, 10, 100, 1000):
            a = account(0.02, 1.1, t, 1e-5).epsilon
            b = account(0.02, 1.1, 2 * t, 1e-5).epsilon
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
        eps_small = account(0.02, 1.5, 100, 1e-7).epsilon
        eps_large = account(0.02, 1.5, 100, 1e-3).epsilon
        assert eps_small > eps_large

    def test_empty_profile_rejected(self):
        with pytest.raises(AccountingError, match="empty"):
            account(0.02, 1.5, 100, 1e-5, orders=())

    @pytest.mark.parametrize("args, field", [
        ((0.02, 1.5, 100, 0.0), "delta"),
        ((0.02, 1.5, 100, 1.0), "delta"),
        ((0.02, 1.5, 0, 1e-5), "steps"),
        ((0.0, 1.5, 0, 0.0), "q"),  # the mechanism's inputs are checked first
        ((0.02, 1.5, 100, math.nan), "delta"),
        ((1.5, 1.5, 100, 1e-5), "q"),
        ((math.nan, 1.5, 100, 1e-5), "q"),
        ((0.02, 0.0, 100, 1e-5), "sigma"),
        ((0.02, math.nan, 100, 1e-5), "sigma"),
        ((0.02, 1e-170, 100, 1e-5), "sigma"),
    ])
    def test_bad_inputs_rejected(self, args, field):
        with pytest.raises(AccountingError) as refused:
            account(*args)
        assert refused.value.field == field
        assert str(refused.value).startswith(f"{field}: must be ")


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
    @pytest.mark.parametrize("kwargs, field", [
        ({"epsilon": 1.0, "noise_multiplier": math.nan}, "noise_multiplier"),
        ({"epsilon": 1.0, "noise_multiplier": math.inf}, "noise_multiplier"),
        ({"epsilon": 1.0, "noise_multiplier": 1.0, "clip_norm": math.inf}, "clip_norm"),
        ({"epsilon": 1.0, "noise_multiplier": 1.0, "clip_norm": math.nan}, "clip_norm"),
        ({"epsilon": math.nan, "noise_multiplier": 1.0}, "epsilon"),
        ({"epsilon": 1.0, "noise_multiplier": 1.0, "delta": math.nan}, "delta"),
    ])
    def test_refuses_a_value_naming_its_field(self, kwargs, field):
        with pytest.raises(AccountingError) as refused:
            PrivacyParams(**kwargs)
        assert refused.value.field == field

    def test_non_private_form_allows_an_infinite_clip_norm(self):
        params = PrivacyParams(epsilon=math.inf, noise_multiplier=0.0, clip_norm=math.inf)
        assert params.clip_norm == math.inf

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
