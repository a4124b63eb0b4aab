import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from scipy import integrate

from stablepot import specfun
from stablepot.core import StableParams
from stablepot.errors import DomainError, PoleError
from stablepot.relativistic import (RelativisticParams, lambda_potential,
                                    log_subordinator_potential)
from stablepot.specfun import (TailPair, bessel_i_scaled, bessel_k,
                               gauss_2f1, legendre_f1, log_mittag_leffler,
                               regularized_beta_cdf)


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.3, -1.7, 2.2, 0.0) == 1.0

    def test_binomial_identity(self):
        for a in (0.25, 1.0, 2.5):
            for s in (-0.7, -0.1, 0.2, 0.6, 0.9):
                want = (1.0 - s) ** (-a)
                got = gauss_2f1(a, 1.3, 1.3, s)
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_classical_value(self):
        # F(1,1;2;s) = -log(1-s)/s; at s = 1/2 this is 2 log 2
        assert abs(gauss_2f1(1.0, 1.0, 2.0, 0.5) - 1.3862943611198906) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, 2.0, -1.5)
        with pytest.raises(PoleError):
            gauss_2f1(1.0, 1.0, -3.0, 0.5)

    def test_tail_variant(self):
        s = 0.37
        assert abs(TailPair((0.4, 0.9, 1.7), (0.4, 0.9, 1.7))(s)[0]
                   - (gauss_2f1(0.4, 0.9, 1.7, s) - 1.0)) < 1e-15

    @pytest.mark.parametrize("alpha", [1.02, 1.5, 1.98])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_tail_against_mpmath(self, d, alpha):
        # the three parameter families of the sphere kernels, over the
        # arguments the near-sphere and direct routes pass
        families = [(1.0 - alpha / 2.0, (d - alpha) / 2.0, 2.0 - alpha),
                    (alpha / 2.0, (alpha + d) / 2.0 - 1.0, alpha),
                    (alpha / 2.0, 1.0 - alpha / 2.0, d / 2.0)]
        for a, b, c in families:
            for mag in (1e-12, 1e-6, 2e-3, 0.1, 0.37, 0.6):
                for s in (mag, -mag):
                    with mpmath.workdps(40):
                        ref = float(mpmath.hyp2f1(a, b, c, s) - 1)
                    got = TailPair((a, b, c), (a, b, c))(s)[0]
                    assert abs(got - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("d", [2, 40, 400])
    def test_tail_reach_follows_the_coefficients(self, d):
        # with b ~ d/2 the terms grow until n ~ b |s|: 80 of them fall short
        # of s = 0.56 at d = 400 (the sum was off by orders of magnitude),
        # while at d = 2 they reach past 0.618; past the reach (0.375 at d =
        # 40, 0.086 at d = 400) both tails are NaN
        a, b, c = 0.25, (d - 1.5) / 2.0, 0.5
        reach = {2: 0.65, 40: 0.37, 400: 0.086}[d]
        for s in (1e-9, 2e-3, 0.05, 0.2, 0.56, 0.64, -0.56):
            got = TailPair((a, b, c), (a, b, c))(s)
            if abs(s) > reach:
                assert all(math.isnan(t) for t in got), s
                continue
            with mpmath.workdps(40):
                ref = float(mpmath.hyp2f1(a, b, c, s) - 1)
            assert abs(got[0] - ref) <= 1e-12 * abs(ref), s

    @pytest.mark.parametrize("d", [2, 40, 400])
    def test_tails_on_array_equal_the_float_call(self, d):
        # every element takes the float call's Horner steps, to the bit, and
        # is NaN where the float call is: past the reach, from d = 40 here
        s = np.concatenate([np.linspace(-0.64, 0.64, 129), [0.0, 1e-300, -2e-3]])
        for pair in (TailPair((0.25, (d - 1.5) / 2.0, 0.5), (0.4, 0.9, 1.7)),
                     TailPair((0.1, d / 2.0, 1.3), (0.25, (d - 1.5) / 2.0, 0.5))):
            got = pair.on_array(s)
            assert got.shape == (2, s.size)
            np.testing.assert_array_equal(got.T, [pair(x) for x in s.tolist()])
            assert np.isnan(got).any() == (d > 2)

    @pytest.mark.parametrize("d", [5, 10, 400])
    def test_tail_as_alpha_tends_to_two(self, d):
        # the sphere's F1 = F(1 - alpha/2, (d - alpha)/2; 2 - alpha; s), whose
        # a and c tend to 0 (hyp2f1 takes an a below ~1e-13 for 0, F - 1 off
        # by 100%): the series keeps its digits up to its reach (0.61 at d = 5,
        # 0.55 at d = 10, 0.085 at d = 400), and is NaN past it
        reach = {5: 0.609, 10: 0.55, 400: 0.085}[d]
        for alpha in (2.0 - 2.0 ** -52, 2.0 - 1e-13, 1.9):
            abc = (1.0 - alpha / 2.0, (d - alpha) / 2.0, 2.0 - alpha)
            pair = TailPair(abc, abc)
            for s in (0.05, 0.3, 0.56, 0.618):
                if s > reach:
                    assert math.isnan(pair(s)[0]), (alpha, s)
                    continue
                with mpmath.workdps(40):
                    ref = float(mpmath.hyp2f1(*abc, s) - 1)
                assert abs(pair(s)[0] - ref) <= 1e-14 * abs(ref), (alpha, s)


class TestLegendreF1:
    def test_beyond_the_float_range_is_refused(self):
        # Gamma((alpha + d)/2 - 1) overflows at d = 400, (t - 1)^(d/4 - 1/2)
        # at t = 1e300, and the value underflows near t = 1 at d = 300; t
        # below 1 once gave a complex number
        assert 0.0 < legendre_f1(2, 1.5, 3.0) < math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d, t in ((400, 3.0), (40, 1e300), (300, 1.0001), (4, 0.5), (4, math.nan)):
                with pytest.raises(DomainError, match="F1"):
                    legendre_f1(d, 1.5, t)


class TestBesselI:
    def test_half_integer_closed_form(self):
        # I_(1/2)(x) = sqrt(2/(pi x)) sinh x; at x = 2 that is sinh(2)/sqrt(pi)
        want = math.sinh(2.0) / math.sqrt(math.pi)
        assert abs(bessel_i_scaled(0.5, 2.0) * math.exp(2.0) - want) <= 1e-14 * want

    def test_small_argument_limit(self):
        for nu in (0.0, 0.5, 1.5):
            for r in (1e-2, 1e-4, 1e-6):
                lead = (r / 2.0) ** nu / math.gamma(nu + 1.0)
                assert abs(bessel_i_scaled(nu, r) * math.exp(r) / lead - 1.0) < 1e-3

    def test_large_argument_limit(self):
        for r in (50.0, 200.0, 600.0):
            ratio = bessel_i_scaled(0.75, r) * math.sqrt(2.0 * math.pi * r)
            assert abs(ratio - 1.0) < 1.0 / r

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.4, 2.0, 3.5])
    def test_against_scipy_scaled(self, nu):
        xs = np.array([1e-8, 0.1, 1.0, 5.0, 29.9, 30.1, 80.0, 700.0, 4000.0])
        ref = sps.ive(nu, xs)
        for x, want in zip(xs, ref):
            assert abs(bessel_i_scaled(nu, x) - want) <= 1e-12 * want
        # an array argument gives the same values as the scalar calls
        got = bessel_i_scaled(nu, xs)
        np.testing.assert_array_equal(got, [bessel_i_scaled(nu, x) for x in xs])

    def test_huge_argument_expansion(self):
        # scipy's ive is NaN out here; the two-term expansion is exact to
        # double precision
        for nu in (0.0, 0.5, 1.5):
            for x in (1e9, 1e12, 1e300):
                want = (1.0 - (4.0 * nu * nu - 1.0) / (8.0 * x)) / math.sqrt(2.0 * math.pi * x)
                got = bessel_i_scaled(nu, x)
                assert math.isfinite(got)
                assert abs(got - want) <= 1e-12 * want

    def test_scaled_value_past_the_exp_range(self):
        # exp(-x) I_(1/2)(x) = (1 - exp(-2x)) / sqrt(2 pi x) where exp(x) overflows
        for x in (800.0, 1e5):
            want = -math.expm1(-2.0 * x) / math.sqrt(2.0 * math.pi * x)
            assert abs(bessel_i_scaled(0.5, x) - want) <= 1e-14 * want

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_i_scaled(0.5, -1.0)
        with pytest.raises(DomainError):
            bessel_i_scaled(-0.75, 1.0)


class TestBesselK:
    def test_half_integer_closed_form(self):
        # K_(1/2)(z) = sqrt(pi/(2z)) e^-z; oracle also via direct quadrature
        want = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        got = bessel_k(0.5, 1.0)
        assert abs(got - want) <= 1e-10 * want
        oracle, _ = integrate.quad(
            lambda t: math.exp(-t - 0.25 / t) * t ** -1.5, 0.0, np.inf, limit=200)
        assert abs(got - 2.0 ** -1.5 * oracle) <= 1e-10 * want

    def test_order_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            nu = rng.uniform(0.1, 2.0)
            z = rng.uniform(0.05, 8.0)
            a, b = bessel_k(nu, z), bessel_k(-nu, z)
            assert abs(a - b) <= 1e-12 * a

    def test_small_argument_limit(self):
        for nu in (0.6, 1.25):
            for z in (1e-3, 1e-5, 1e-7):
                lead = math.gamma(nu) * 2.0 ** (nu - 1.0) * z ** -nu
                assert abs(bessel_k(nu, z) / lead - 1.0) < 1e-2 * max(z ** 0.5, 1e-4) + 5e-4

    def test_connection_with_bessel_i(self):
        # at nu = 1/2: K_nu = pi (I_-nu - I_nu) / (2 sin(nu pi)) with the
        # closed form I_(-1/2)(z) = sqrt(2/(pi z)) cosh z; the difference
        # cancels catastrophically for large z, hence the absolute floor
        for z in (0.5, 1.0, 3.0, 10.0):
            nu = 0.5
            i_minus = math.sqrt(2.0 / (math.pi * z)) * math.cosh(z)
            i_plus = bessel_i_scaled(nu, z) * math.exp(z)
            recon = math.pi * (i_minus - i_plus) / (2.0 * math.sin(nu * math.pi))
            assert abs(bessel_k(nu, z) - recon) < 1e-8 * max(abs(recon), 1.0)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.25, 1.4, 2.0])
    def test_against_scipy(self, nu):
        for z in (2e-7, 1e-3, 0.1, 1.0, 5.0, 30.0, 200.0):
            ref = sps.kv(nu, z)
            assert abs(bessel_k(nu, z) - ref) <= 1e-11 * ref

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, 0.0)
        with pytest.raises(DomainError):
            bessel_k(0.5, -2.0)


class TestMittagLeffler:
    def test_at_zero(self):
        for beta in (0.25, 0.75, 1.0, 2.0):
            assert abs(math.exp(log_mittag_leffler(0.7, beta, 0.0))
                       - 1.0 / math.gamma(beta)) < 1e-15

    def test_exponential_special_case(self):
        for t in [0.5, 2.0, 10.0, *np.linspace(0.0, 20.0, 81)]:
            got = math.exp(log_mittag_leffler(1.0, 1.0, t))
            assert abs(got - math.exp(t)) <= 1e-12 * math.exp(t)

    def test_against_high_precision_series(self):
        def oracle(g, b, t):
            with mpmath.workdps(50):
                return float(mpmath.nsum(lambda n: mpmath.mpf(t) ** n
                                         / mpmath.gamma(b + g * n), [0, mpmath.inf]))
        for g, b, t in [(0.75, 0.75, 1.0), (0.75, 0.75, 7.3), (0.6, 0.9, 2.2),
                        (0.9, 0.6, 5.0)]:
            ref = oracle(g, b, t)
            assert abs(math.exp(log_mittag_leffler(g, b, t)) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("g, b", [(0.525, 0.525), (0.75, 0.75), (0.95, 0.95),
                                      (0.6, 1.0), (1.5, 2.0)])
    def test_array_across_the_asymptotic_switch(self, g, b):
        # t^(1/g) = 45 is where the series hands over to the one-term form;
        # the oracle is the series itself at 40 digits
        u = np.array([1e-3, 0.5, 3.9, 4.1, 15.9, 16.1, 22.0, 30.0, 44.5, 44.99, 45.01, 45.5, 60.0])
        ts = u ** g
        got = np.exp(log_mittag_leffler(g, b, ts) - u)
        with mpmath.workdps(40):
            for t, uk, e in zip(ts, u, got):
                ref = mpmath.fsum(mpmath.mpf(t) ** n / mpmath.gamma(b + g * n)
                                  for n in range(int(3.0 * uk / g) + 80))
                assert abs(e / float(ref * mpmath.exp(-uk)) - 1.0) <= 1e-13, (t, uk)

    def test_asymptotic_ratio(self):
        g, b = 0.75, 0.75
        for t in (30.0, 80.0, 200.0):
            log_asy = -math.log(g) + (1.0 - b) / g * math.log(t) + t ** (1.0 / g)
            assert abs(log_mittag_leffler(g, b, t) - log_asy) < 1e-10

    def test_log_value_past_the_exp_range(self):
        # E_(1/2, 1/2)(1e9) is about exp(1e18); its log is the asymptotic form
        log_asy = math.log(2.0) + math.log(1e9) + 1e18
        assert abs(log_mittag_leffler(0.5, 0.5, 1e9) - log_asy) <= 1e-15 * log_asy

    def test_domain(self):
        with pytest.raises(DomainError):
            log_mittag_leffler(-0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            log_mittag_leffler(0.5, 1.0, -1.0)


class TestMittagLefflerTable:
    """The Chebyshev table of h(log t) = log E(t) - t^(1/gamma) below the switch."""

    PAIRS = [(0.5 + 1e-9, 0.5 + 1e-9), (0.525, 0.525), (0.6, 0.6), (0.75, 0.75),
             (0.95, 0.95), (1.0 - 1e-9, 1.0 - 1e-9), (0.6, 1.0), (1.5, 2.0), (0.7, 0.25),
             (5.0, 1.0)]

    @pytest.mark.parametrize("g, b", PAIRS)
    def test_against_40_digit_series(self, g, b):
        # a dense grid of log u = log t / g, from below the table's lower end to
        # just under the switch; the oracle is the series itself at 40 digits
        switch = specfun._ml_switch(g, b)
        # bisection stops at the series' own rounding, not well past it
        assert specfun._ml_table(g, b)[-1].shape[1] <= 40
        log_t = g * np.linspace(-42.0, math.log(switch) - 1e-3, 241)
        got = np.exp(specfun._log_mittag_leffler_scaled(g, b, log_t))
        with mpmath.workdps(40):
            n_max = int(3.0 * switch / g) + 80
            inv_gamma = [1 / mpmath.gamma(mpmath.mpf(b) + mpmath.mpf(g) * n) for n in range(n_max)]
            for lt, e in zip(log_t, got):
                t = mpmath.exp(mpmath.mpf(lt))
                power, total = mpmath.mpf(1), mpmath.mpf(0)
                for c in inv_gamma:
                    total += power * c
                    power *= t
                ref = total * mpmath.exp(-t ** (1 / mpmath.mpf(g)))
                assert abs(e / float(ref) - 1.0) <= 1e-13, (lt, e, ref)

    def test_limits_and_nan(self):
        # t = 0 gives 1/Gamma(beta) exactly; log t = +inf and NaN give the
        # asymptotic form's value, as the banded series did
        for g, b in [(0.75, 0.75), (0.6, 1.0), (1.5, 2.0), (5.0, 1.0)]:
            got = specfun._log_mittag_leffler_scaled(g, b, np.array([-math.inf, math.inf, math.nan]))
            assert got[0] == -math.lgamma(b)
            with np.errstate(invalid="ignore"):
                assert np.array_equal(got[1:], -math.log(g) + (1.0 - b) / g
                                      * np.array([math.inf, math.nan]), equal_nan=True)

    def test_rebuild_gives_the_same_bits(self):
        log_t = np.linspace(-45.0, 4.0, 1001)
        first = specfun._log_mittag_leffler_scaled(0.75, 0.75, log_t)
        specfun._ml_table.cache_clear()
        assert np.array_equal(specfun._log_mittag_leffler_scaled(0.75, 0.75, log_t), first)

    @pytest.mark.parametrize("g, b", [(0.6, 0.6), (0.75, 0.75), (0.7, 0.25)])
    def test_scalar_and_array_give_the_same_bits(self, g, b):
        ts = np.concatenate([[0.0], np.geomspace(1e-20, 60.0 ** g, 60)])
        values = log_mittag_leffler(g, b, ts)
        assert [log_mittag_leffler(g, b, float(t)) for t in ts] == values.tolist()
        # and inside a 2-d array, as the time integrand passes it
        assert np.array_equal(log_mittag_leffler(g, b, ts.reshape(-1, 1)).ravel(), values)

    def test_built_once_per_pair(self):
        # the table is built on first use for a (gamma, beta) and then only read,
        # whichever entry point reads it
        rp = RelativisticParams(StableParams(3, 1.5), 1.3, 0.4)
        specfun._ml_table.cache_clear()
        for _ in range(3):
            log_mittag_leffler(0.75, 0.75, 2.0)
            log_mittag_leffler(0.75, 0.75, np.linspace(0.0, 60.0, 50))
            log_subordinator_potential(rp, np.linspace(0.01, 8.0, 20))
            lambda_potential(rp, 0.7, 1.9)
        assert specfun._ml_table.cache_info().misses == 1
        log_mittag_leffler(0.6, 0.6, 2.0)
        assert specfun._ml_table.cache_info().misses == 2


class TestRegularizedBeta:
    def test_endpoints(self):
        assert regularized_beta_cdf(0.7, 1.3, 0.0) == 0.0
        assert regularized_beta_cdf(0.7, 1.3, 1.0) == 1.0

    def test_uniform(self):
        for x in np.linspace(0.0, 1.0, 21):
            assert abs(regularized_beta_cdf(1.0, 1.0, x) - x) < 1e-13

    def test_against_quadrature(self):
        a, b = 0.75, 0.25
        norm = math.gamma(a + b) / (math.gamma(a) * math.gamma(b))
        val, _ = integrate.quad(lambda w: norm * w ** (a - 1.0) * (1.0 - w) ** (b - 1.0),
                                0.0, 0.5, points=[0.0], limit=200)
        assert abs(regularized_beta_cdf(a, b, 0.5) - val) < 1e-10

    def test_monotone(self):
        xs = np.linspace(0.0, 1.0, 50)
        vals = [regularized_beta_cdf(0.75, 0.25, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("ab", [(0.75, 0.25), (0.6, 0.4), (2.5, 3.5)])
    def test_against_scipy(self, ab):
        a, b = ab
        for x in np.linspace(0.01, 0.99, 17):
            assert abs(regularized_beta_cdf(a, b, x) - sps.betainc(a, b, x)) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            regularized_beta_cdf(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            regularized_beta_cdf(1.0, 1.0, 1.5)
