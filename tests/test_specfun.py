import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from scipy import integrate

from stablepot import specfun
from stablepot.core import StableParams
from stablepot.errors import ConvergenceError, DomainError, PoleError
from stablepot.relativistic import (RelativisticParams, hitting_probability_sphere,
                                    lambda_potential, log_subordinator_potential)
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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 13, 40, 400])
    def test_far_route_series_against_mpmath(self, d):
        # Phi's far route reads F(alpha/2, 1 - alpha/2; d/2; s) at -1/golden <= s
        # <= 0; the array form gives the float calls' bits
        s = -np.linspace(0.0, 2.0 / (1.0 + math.sqrt(5.0)), 41)
        for alpha in (1.0001, 1.2, 1.5, 1.9, 1.9999):
            abc = (alpha / 2.0, 1.0 - alpha / 2.0, d / 2.0)
            got = specfun._gauss_2f1_series(*abc, s)
            assert got.tolist() == [gauss_2f1(*abc, x) for x in s.tolist()]
            with mpmath.workdps(40):
                for x, value in zip(s.tolist(), got.tolist()):
                    assert abs(value / float(mpmath.hyp2f1(*abc, x)) - 1.0) <= 4.5e-16, (alpha, x)

    def test_pfaff_below_five_eighths_and_the_term_cap(self):
        for a, b, c, s in ((0.25, 0.5, 1.5, -0.99), (1.3, -0.4, 2.2, -0.7),
                           (0.75, 0.25, 1.0, 0.97)):
            with mpmath.workdps(40):
                ref = float(mpmath.hyp2f1(a, b, c, s))
            assert abs(gauss_2f1(a, b, c, s) / ref - 1.0) <= 1e-14, s
        with pytest.raises(ConvergenceError):
            gauss_2f1(1.0, 1.0, 2.0, 0.9995)

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

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.5])
    def test_power_series_against_mpmath(self, nu):
        # below x = 30; the orders of the relativistic integrand at d = 2 to 7
        xs = np.concatenate([np.geomspace(1e-10, 29.999, 60), np.linspace(0.5, 29.5, 30), [2.0]])
        got = bessel_i_scaled(nu, xs)
        with mpmath.workdps(40):
            for x, value in zip(xs.tolist(), got.tolist()):
                ref = float(mpmath.besseli(nu, x) * mpmath.exp(-x))
                assert abs(value / ref - 1.0) <= 3e-15, x

    @pytest.mark.parametrize("nu", [6.0, 20.5, 200.0])
    def test_high_orders_against_mpmath(self, nu):
        # the relativistic integrand reads order d/2 - 1 for every d: the power
        # series below 30, with (x/2)^nu / Gamma(nu + 1) in logs past Gamma's
        # float range; the backward recurrence from 30 to nu^2, where the 1/x
        # series cancels; and that series past nu^2
        xs = np.concatenate([np.geomspace(nu / 10.0, 29.9, 10),
                             np.geomspace(30.0, 4.0 * nu * nu, 20)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bessel_i_scaled(nu, xs)
            np.testing.assert_array_equal(got, [bessel_i_scaled(nu, x) for x in xs.tolist()])
        with mpmath.workdps(40):
            for x, value in zip(xs.tolist(), got.tolist()):
                ref = float(mpmath.besseli(nu, x, maxterms=10 ** 6) * mpmath.exp(-x))
                tol = 2e-13 if nu > 170.0 and x < 30.0 else 4e-15
                assert abs(value / ref - 1.0) <= tol, x

    def test_edges_are_typed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                bessel_i_scaled(1.25, math.nan)
            with pytest.raises(DomainError):
                bessel_i_scaled(1.25, np.array([1.0, math.nan]))
            big = bessel_i_scaled(1.25, 1e308)
            assert abs(big * math.sqrt(2.0 * math.pi) * 1e154 - 1.0) < 1e-15
            assert bessel_i_scaled(0.0, 0.0) == 1.0 and bessel_i_scaled(1.25, 0.0) == 0.0
            assert bessel_i_scaled(-0.25, 0.0) == math.inf

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

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_trapezoid_rule_against_mpmath(self, d):
        # the orders (d + alpha - 2)/2 of the killed hitting density, over the
        # arguments its callers reach
        zs = np.geomspace(1e-8, 600.0, 41)
        for alpha in (1.01, 1.2, 1.5, 1.99):
            nu = (d + alpha - 2.0) / 2.0
            got = bessel_k(nu, zs)
            with mpmath.workdps(40):
                for z, value in zip(zs.tolist(), got.tolist()):
                    assert abs(value / float(mpmath.besselk(nu, z)) - 1.0) <= 2e-15, (nu, z)

    def test_high_orders_against_mpmath(self):
        # from order ~170 on a large z takes over 4096 nodes, and its last ones
        # lie past the point where cosh(nu t) would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bessel_k(300.0, np.array([400.0, 600.0]))
            assert got.tolist() == [bessel_k(300.0, 400.0), bessel_k(300.0, 600.0)]
        with mpmath.workdps(25):                 # 1.7 s a value at 40 digits
            assert abs(got[0] / float(mpmath.besselk(300, 400)) - 1.0) <= 2e-15

    def test_guard_bounds_the_whole_integrand(self):
        # cosh(nu t) alone passes e^700 on the nodes of K_400(650), but the
        # integrand, e^(nu t - 2z sinh^2(t/2)), peaks near e^120
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bessel_k(400.0, 650.0)
        with mpmath.workdps(25):
            assert abs(got / float(mpmath.besselk(400, 650)) - 1.0) <= 1e-13
        assert 1.9e-232 < got < 2.1e-232

    def test_edges_are_typed(self):
        # below z ~ 1e-300 K_1.25 passes the float range; K_0 grows like log(1/z);
        # z = inf is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (1e-320, np.array([1.0, 1e-320])):
                with pytest.raises(DomainError, match="float range"):
                    bessel_k(1.25, z)
            with mpmath.workdps(40):
                assert abs(bessel_k(0.0, 1e-300) / float(mpmath.besselk(0, 1e-300)) - 1.0) < 1e-14
            assert bessel_k(1.25, math.inf) == 0.0
            assert bessel_k(1.25, np.empty(0)).shape == (0,)

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

    def test_parameters_outside_the_table_are_refused(self):
        # gamma in [0.015, 20] and beta in [1e-5, 20]; NaN, infinities and values
        # the table cannot hold are typed errors, as is a log that overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (math.nan, math.inf, -math.inf, 1e308, 1e-320):
                for g, b in ((bad, 0.75), (0.75, bad)):
                    with pytest.raises(DomainError, match="gamma in"):
                        log_mittag_leffler(g, b, 1.0)
            for t in (1e308, math.inf, np.array([1.0, 1e308])):
                with pytest.raises(DomainError, match="float range"):
                    log_mittag_leffler(0.75, 0.75, t)

    def test_array_parameters_are_refused(self):
        # gamma and beta are numbers; an array of them is a typed error, not
        # lru_cache's TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g, b in ((np.array([0.5, 0.6]), 0.75), (0.75, np.array([0.5, 0.6])),
                         ([0.75], 0.75), (None, 0.75)):
                with pytest.raises(DomainError, match="gamma|beta"):
                    log_mittag_leffler(g, b, 1.0)
            assert log_mittag_leffler(np.float64(0.75), np.array(0.75), 1.0) == \
                log_mittag_leffler(0.75, 0.75, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_mittag_leffler(-0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            log_mittag_leffler(0.5, 1.0, -1.0)


class TestMittagLefflerTable:
    """The table of h(log t) = log E(t) - t^(1/gamma) below the switch."""

    PAIRS = [(0.5 + 1e-9, 0.5 + 1e-9), (0.525, 0.525), (0.6, 0.6), (0.75, 0.75),
             (0.95, 0.95), (1.0 - 1e-9, 1.0 - 1e-9), (0.6, 1.0), (1.5, 2.0), (0.7, 0.25),
             (5.0, 1.0)]

    @pytest.mark.parametrize("g, b", PAIRS)
    def test_against_40_digit_series(self, g, b):
        # a dense grid of log u = log t / g, from below the table's lower end to
        # just under the switch; the oracle is the series itself at 40 digits
        switch = specfun._ml_switch(g, b)
        # bisection stops at the series' own rounding, not well past it: at most
        # 40 panels, not counting the two edge panels
        assert len(specfun._ml_table(g, b).edges) - 1 <= 40
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
        # t = 0 gives 1/Gamma(beta) exactly, NaN gives NaN, and the edge panels
        # carry the asymptotic form's bits: past the switch, and at log t = +inf,
        # which the reader takes as 1e250 (the public function refuses t = inf)
        for g, b in [(0.75, 0.75), (0.6, 1.0), (1.5, 2.0), (5.0, 1.0)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = specfun._log_mittag_leffler_scaled(
                    g, b, np.array([-math.inf, math.inf, math.nan, 30.0, 1e250]))
            assert got[0] == -math.lgamma(b) and math.isnan(got[2])
            assert got[[1, 3, 4]].tolist() == [-math.log(g) + (1.0 - b) / g * v
                                               for v in (1e250, 30.0, 1e250)]

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


def _ref_bessel_factor(nu, u):
    # h_nu(u) = log(e^-z I_nu(z)) - nu log(z/2) + lgamma(nu + 1), z = e^u, with
    # the digits that the cancelling z takes on top of 40
    with mpmath.workdps(40 + max(0, int(u / 2.3))):
        z, nu = mpmath.exp(mpmath.mpf(u)), mpmath.mpf(nu)
        return float(mpmath.log(mpmath.besseli(nu, z, maxterms=10 ** 6)) - z
                     - nu * mpmath.log(z / 2) + mpmath.loggamma(nu + 1))


class TestBesselFactorTable:
    """The table of h_nu(log z) that the radial transition density reads."""

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 19.0, 199.0])
    def test_against_40_digit_mpmath(self, nu):
        # from below log z = -40, where the table ends in the constant 0, to past
        # its upper edge, where it ends in the large-z series' first term
        table = specfun._bessel_table(nu)
        hi = table.edges[-1]
        assert table.edges[0] == -40.0 and hi == 37.0 + 2.0 * math.log(max(1.0, 2.0 * nu))
        u = np.concatenate([np.linspace(-45.0, hi + 5.0, 101), [-40.0, hi, 200.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = specfun._read_tables((table, u))[0]
        for ui, h in zip(u.tolist(), got.tolist()):
            want = _ref_bessel_factor(nu, ui)
            assert abs(h - want) <= 4e-15 * max(1.0, abs(want)), (ui, h, want)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 199.0])
    def test_edge_panels(self, nu):
        # z = 0 (x y = 0) and log z < -40 read exactly 0, NaN reads NaN, and past
        # the upper edge the line's own bits
        table = specfun._bessel_table(nu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = specfun._read_tables((table, np.array([-math.inf, -1e300, -40.5, math.nan,
                                                         60.0, 1e5])))[0]
        assert got[:3].tolist() == [0.0, 0.0, 0.0] and math.isnan(got[3])
        line = nu * math.log(2.0) + math.lgamma(nu + 1.0) - 0.5 * math.log(2.0 * math.pi)
        assert got[4:].tolist() == [line + -(nu + 0.5) * u for u in (60.0, 1e5)]

    def test_scalar_and_arrays_give_the_same_bits(self):
        # the read is elementwise: log z = log(xy/2t) alone, and inside a 1-d or
        # 2-d array as the time integrand passes it, reads the same bits
        log_z = math.log(0.7 * 1.9 / 2.0) - np.log(np.geomspace(1e-30, 1e30, 60))
        for nu in (0.0, 0.5, 199.0):
            table = specfun._bessel_table(nu)
            values = specfun._read_tables((table, log_z))[0]
            assert [float(specfun._read_tables((table, u))[0]) for u in log_z] == values.tolist()
            assert np.array_equal(specfun._read_tables((table, log_z.reshape(-1, 3)))[0].ravel(),
                                  values)

    def test_built_once_per_order(self):
        # h_nu is built on first use for an order nu = d/2 - 1 and then only read,
        # by the potentials' time integrand and by the hitting ratio's
        rp = RelativisticParams(StableParams(3, 1.5), 1.3, 0.4)
        specfun._bessel_table.cache_clear()
        for _ in range(3):
            lambda_potential(rp, 0.7, 1.9)
            hitting_probability_sphere(rp, 1.0, [0.0, 0.0, 2.0])
        assert specfun._bessel_table.cache_info().misses == 1
        lambda_potential(RelativisticParams(StableParams(4, 1.5), 1.3, 0.4), 0.7, 1.9)
        assert specfun._bessel_table.cache_info().misses == 2


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


class TestSamplerLaws:
    """The laws ``suites`` tests the exact samplers' draws against."""

    @pytest.mark.parametrize("a", [0.005, 0.125, 0.25, 0.495, 0.5])
    def test_incomplete_gamma_against_mpmath(self, a):
        xs = np.concatenate([np.geomspace(1e-10, 60.0, 45), a + 1.0 + np.array([-1e-9, 0.0, 1e-9])])
        p, q = specfun._regularized_gamma(a, xs)
        with mpmath.workdps(40):
            for x, pv, qv in zip(xs.tolist(), p.tolist(), q.tolist()):
                assert abs(pv / float(mpmath.gammainc(a, 0, x, regularized=True)) - 1.0) <= 1e-15, x
                assert abs(qv / float(mpmath.gammainc(a, x, mpmath.inf, regularized=True)) - 1.0) \
                    <= 5e-13, x

    def test_normal_cdf_against_mpmath(self):
        zs = np.concatenate([np.linspace(-5.0, 5.0, 81), np.linspace(-37.0, -5.0, 17), [9.0]])
        got = specfun._normal_cdf(zs)
        with mpmath.workdps(40):
            for z, value in zip(zs.tolist(), got.tolist()):
                bound = 2e-15 if abs(z) <= 5.0 else 1e-13
                assert abs(value / float(mpmath.ncdf(z)) - 1.0) <= bound, z

    @pytest.mark.parametrize("a", [0.005, 0.1, 0.25, 0.4, 0.495, 0.6, 0.75, 0.995])
    def test_incomplete_beta_on_the_suites_pairs(self, a):
        # (a, 1 - a) and (a, 1/2); past a = 1/2 the hand-over 1 - I_(1-x)(b, a)
        # cancels where it is small, to 2e-13 at a = 0.995
        xs = np.concatenate([np.geomspace(1e-12, 0.5, 20), 1.0 - np.geomspace(1e-12, 0.5, 20),
                             np.linspace(0.02, 0.98, 25)])
        for b, bound in ((1.0 - a, 5e-15 if a <= 0.5 else 5e-14 if a <= 0.95 else 2e-13),
                         (0.5, 6e-15)):
            got = regularized_beta_cdf(a, b, xs)
            assert got.tolist() == [regularized_beta_cdf(a, b, x) for x in xs.tolist()]
            with mpmath.workdps(40):
                for x, value in zip(xs.tolist(), got.tolist()):
                    ref = float(mpmath.betainc(a, b, 0, x, regularized=True))
                    assert abs(value / ref - 1.0) <= bound, (b, x)
