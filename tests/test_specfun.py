import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from scipy import integrate

from stablepot.errors import DomainError, PoleError
from stablepot.specfun import (bessel_i, bessel_i_scaled, bessel_k,
                               gauss_2f1, gauss_2f1_tail,
                               log_mittag_leffler, mittag_leffler,
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
        assert abs(gauss_2f1_tail(0.4, 0.9, 1.7, s)
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
                    assert abs(gauss_2f1_tail(a, b, c, s) - ref) <= 1e-14 * abs(ref)


class TestBesselI:
    def test_half_integer_closed_form(self):
        # I_(1/2)(x) = sqrt(2/(pi x)) sinh x; at x = 2 that is sinh(2)/sqrt(pi)
        want = math.sinh(2.0) / math.sqrt(math.pi)
        assert abs(bessel_i(0.5, 2.0) - want) <= 1e-14 * want

    def test_small_argument_limit(self):
        for nu in (0.0, 0.5, 1.5):
            for r in (1e-2, 1e-4, 1e-6):
                lead = (r / 2.0) ** nu / math.gamma(nu + 1.0)
                assert abs(bessel_i(nu, r) / lead - 1.0) < 1e-3

    def test_large_argument_limit(self):
        for r in (50.0, 200.0, 600.0):
            ratio = bessel_i_scaled(0.75, r) * math.sqrt(2.0 * math.pi * r)
            assert abs(ratio - 1.0) < 1.0 / r

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.4, 2.0, 3.5])
    def test_against_scipy_scaled(self, nu):
        for x in (1e-8, 0.1, 1.0, 5.0, 29.9, 30.1, 80.0, 700.0, 4000.0):
            ref = sps.ive(nu, x)
            assert abs(bessel_i_scaled(nu, x) - ref) <= 1e-12 * ref

    def test_huge_argument_expansion(self):
        # scipy's ive is NaN out here; the two-term expansion is exact to
        # double precision
        for nu in (0.0, 0.5, 1.5):
            for x in (1e9, 1e12, 1e300):
                want = (1.0 - (4.0 * nu * nu - 1.0) / (8.0 * x)) / math.sqrt(2.0 * math.pi * x)
                got = bessel_i_scaled(nu, x)
                assert math.isfinite(got)
                assert abs(got - want) <= 1e-12 * want

    def test_overflow_signal(self):
        with pytest.raises(OverflowError):
            bessel_i(0.5, 800.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_i(0.5, -1.0)
        with pytest.raises(DomainError):
            bessel_i(-0.75, 1.0)


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
            recon = math.pi * (i_minus - bessel_i(nu, z)) / (2.0 * math.sin(nu * math.pi))
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
            assert abs(mittag_leffler(0.7, beta, 0.0)
                       - 1.0 / math.gamma(beta)) < 1e-15

    def test_exponential_special_case(self):
        for t in (0.5, 2.0, 10.0):
            assert abs(mittag_leffler(1.0, 1.0, t) - math.exp(t)) <= 1e-12 * math.exp(t)
        for t in np.linspace(0.0, 20.0, 81):
            assert abs(mittag_leffler(1.0, 1.0, t) - math.exp(t)) <= 1e-12 * math.exp(t)

    def test_against_high_precision_series(self):
        def oracle(g, b, t):
            with mpmath.workdps(50):
                return float(mpmath.nsum(lambda n: mpmath.mpf(t) ** n
                                         / mpmath.gamma(b + g * n), [0, mpmath.inf]))
        for g, b, t in [(0.75, 0.75, 1.0), (0.75, 0.75, 7.3), (0.6, 0.9, 2.2),
                        (0.9, 0.6, 5.0)]:
            ref = oracle(g, b, t)
            assert abs(mittag_leffler(g, b, t) - ref) <= 1e-12 * ref

    def test_asymptotic_ratio(self):
        g, b = 0.75, 0.75
        for t in (30.0, 80.0, 200.0):
            log_asy = -math.log(g) + (1.0 - b) / g * math.log(t) + t ** (1.0 / g)
            assert abs(log_mittag_leffler(g, b, t) - log_asy) < 1e-10

    def test_overflow_signal(self):
        with pytest.raises(OverflowError):
            mittag_leffler(0.5, 0.5, 1e9)
        assert math.isfinite(log_mittag_leffler(0.5, 0.5, 1e9))

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(-0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 1.0, -1.0)


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
