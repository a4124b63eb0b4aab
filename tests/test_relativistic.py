import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from stablepot import halfspace, relativistic, specfun
from stablepot.cli import main
from stablepot.core import INFINITY, StableParams
from stablepot.errors import ConvergenceError, DivergenceError, DomainError
from stablepot.relativistic import (RelativisticParams,
                                    hitting_laplace_transform,
                                    hitting_probability_sphere,
                                    lambda_potential,
                                    log_subordinator_potential,
                                    poisson_kernel_halfspace,
                                    relativistic_constant,
                                    subordinator_potential)

P2 = StableParams(2, 1.5)
P3 = StableParams(3, 1.5)
RP2 = RelativisticParams(P2, 1.0)
RP3 = RelativisticParams(P3, 1.0)


# --- reference: the scalar time integral under QUADPACK ----------------------
#
# The potential as it was computed before the array rule: a streaming
# log-sum-exp Mittag-Leffler series, scipy's ive (two-term expansion past
# 1e8, where ive is NaN), and two scipy.integrate.quad calls split at s = 1.

def _ref_log_mittag_leffler(g, b, t):
    if t == 0.0:
        return -math.lgamma(b)
    log_t = math.log(t)
    peak = (t ** (1.0 / g) - b) / g
    if peak + 60.0 * math.sqrt(max(peak, 1.0)) > 10_000:
        return -math.log(g) + (1.0 - b) / g * log_t + t ** (1.0 / g)
    running_max, acc = -math.inf, 0.0
    for n in range(10_000):
        a = n * log_t - math.lgamma(b + g * n)
        if a > running_max:
            acc = acc * math.exp(running_max - a) + 1.0
            running_max = a
        else:
            acc += math.exp(a - running_max)
        if n > peak and a - (running_max + math.log(acc)) < math.log(1e-13) - 5.0:
            return running_max + math.log(acc)
    raise AssertionError("reference Mittag-Leffler series did not converge")


def _ref_log_transition(d, t, x, y):
    if x == 0.0 or y == 0.0:
        return -d / 2.0 * math.log(2.0 * t) - (x * x + y * y) / (4.0 * t)
    nu, z = d / 2.0 - 1.0, x * y / (2.0 * t)
    log_ive = (math.log(special.ive(nu, z)) if z < 1e8 else
               math.log1p(-(4.0 * nu * nu - 1.0) / (8.0 * z)) - 0.5 * math.log(2.0 * math.pi * z))
    return (math.lgamma(d / 2.0) - math.log(2.0 * t) + (1.0 - d / 2.0) * math.log(x * y / 2.0)
            - (x - y) ** 2 / (4.0 * t) + log_ive)


def _ref_lambda_potential(rp, x, y):
    a, m, lam = rp.alpha, rp.m, rp.lam
    g = a / 2.0

    def log_g(s):
        return (-m ** (2.0 / a) * s + (g - 1.0) * math.log(s)
                + _ref_log_transition(rp.d, s, x, y)
                + _ref_log_mittag_leffler(g, g, (m - lam) * s ** g))

    def integrand(s_of, log_jac):
        def f(v):
            if v <= 0.0:
                return 0.0
            s = s_of(v)
            if s <= 0.0:
                return 0.0
            lv = log_g(s) + log_jac(v)
            return math.exp(lv) if lv > -745.0 else 0.0
        return f

    pw = 2.0 / (a - 1.0) if a > 1.0 else 4.0
    inner = integrand(lambda w: w ** pw, lambda w: math.log(pw) + (pw - 1.0) * math.log(w))
    if lam > 0.0:
        rate = m ** (2.0 / a) - (m - lam) ** (2.0 / a)
        outer = integrand(lambda v: 1.0 - math.log(v) / rate, lambda v: -math.log(rate * v))
    else:
        outer = integrand(lambda v: v ** -2.0, lambda v: math.log(2.0) - 3.0 * math.log(v))
    # full_output keeps quad's roundoff notes out of the warnings
    return sum(integrate.quad(f, 0.0, 1.0, limit=200, epsabs=1e-14, epsrel=1e-12,
                              full_output=1)[0] for f in (inner, outer))


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            RelativisticParams(P2, 0.0)
        with pytest.raises(DomainError):
            RelativisticParams(P2, 1.0, 1.0)
        with pytest.raises(DomainError):
            RelativisticParams(P2, 1.0, -0.1)
        with pytest.raises(DomainError, match="finite"):
            RelativisticParams(P2, math.inf)

    @pytest.mark.parametrize("call", [
        lambda: relativistic_constant(RelativisticParams(StableParams(40, 1.5), 1e308)),
        lambda: poisson_kernel_halfspace(RelativisticParams(StableParams(1500, 1.5), 1.0),
                                         [0.0] * 1499 + [1.0], np.zeros(1499)),
        lambda: hitting_probability_sphere(RelativisticParams(P3, 1e300), 2.0, 1.0),
    ])
    def test_quantities_past_the_float_range_are_refused(self, call):
        # m^(2/alpha) or C4 beyond the float range: a DomainError naming it
        with pytest.raises(DomainError, match="C4|m\\^\\(2/alpha\\)"):
            call()

    def test_potential_density_needs_no_rate_in_the_float_range(self):
        # q_m takes no m^(2/alpha): at m = 1e300, x = 1 it is the one-term
        # asymptotic form's (1/g) m^((1-g)/g), g = alpha/2, about 1.33e100
        g = P2.alpha / 2.0
        want = 1e300 ** ((1.0 - g) / g) / g
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = subordinator_potential(RelativisticParams(P2, 1e300), 1.0)
        assert got == pytest.approx(want, rel=5e-14, abs=0)

    @pytest.mark.parametrize("m", ["1e300", "inf"])
    def test_eval_at_an_extreme_mass_is_one_error_line(self, m, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "phi-rel", "--d", "3", "--m", m, "--r", "2"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "Numerical result out of range" not in err


def _log_transition(d, t, x, y):
    # log f(t, x, y) through the time integrand's own two calls: the
    # transition's explicit terms, then the Bessel factor's table of order d/2 - 1
    rest, log_z = relativistic._log_transition_parts(
        d, np.log(np.asarray(t, dtype=float)), relativistic._radius_logs(x, y))
    out = rest + specfun._read_tables((specfun._bessel_table(d / 2.0 - 1.0), log_z))[0]
    return out if out.ndim else float(out)


def _transition(d, t, x, y):
    return math.exp(_log_transition(d, t, x, y))


class TestBesselTransition:
    def test_symmetry(self):
        for d in (2, 3):
            for (t, x, y) in [(0.5, 1.0, 2.0), (2.0, 0.3, 0.9)]:
                assert _transition(d, t, x, y) == pytest.approx(
                    _transition(d, t, y, x), rel=1e-13, abs=0)

    def test_zero_radius_limit(self):
        # f(t, x, 0) extends continuously; oracle = limit of f(t, eps, eps)
        for d in (2, 3):
            t = 0.7
            want = (2.0 * t) ** (-d / 2.0)
            assert _transition(d, t, 0.0, 0.0) == pytest.approx(want, rel=1e-14, abs=0)
            seq = [_transition(d, t, e, e) for e in (1e-2, 1e-4, 1e-6)]
            assert seq[-1] == pytest.approx(want, rel=1e-9, abs=0)
            assert abs(seq[0] - want) > abs(seq[-1] - want)

    @pytest.mark.parametrize("d", [2, 3])
    def test_normalization_against_reference_measure(self, d):
        # the speed measure 2^(1-d/2) y^(d-1) / Gamma(d/2) dy: the |B_t| law
        # in R^d is f(t, x, y) times it
        for (t, x) in [(0.5, 1.0), (2.0, 0.3), (1.0, 0.0)]:
            val, _ = integrate.quad(
                lambda y: _transition(d, t, x, y)
                * 2.0 ** (1.0 - d / 2.0) * y ** (d - 1) / math.gamma(d / 2.0),
                0.0, np.inf, limit=300)
            assert val == pytest.approx(1.0, abs=1e-9)


    def test_radii_beyond_the_float_range_of_their_products(self):
        # (x - y)^2 once overflowed at 1e300 and exp(-z) I_nu(z) underflowed
        # to a log(0) at 1e-300; Brownian scaling f(c^2 t, cx, cy) = c^-d f(t, x, y)
        # is the oracle
        for d in (2, 3, 4):
            for c in (1e150, 1e-150):
                for (t, x, y) in [(0.7, 1.0, 1.3), (2.0, 0.0, 0.4), (1e-3, 1.0, 1.0)]:
                    want = _log_transition(d, t, x, y) - d * math.log(c)
                    got = _log_transition(d, c * c * t, c * x, c * y)
                    assert got == pytest.approx(want, rel=1e-12, abs=0)
        # a density far below e^-745 keeps a finite log; at 1e300 the log
        # itself, -(x - y)^2 / 4t ~ -2.5e599, is beyond the float range
        far = _log_transition(3, 1.0, 1e150, 1.5)
        assert math.isfinite(far)
        assert far == pytest.approx(-0.25e300, rel=1e-13, abs=0)    # formed in logs
        assert _log_transition(3, 1.0, 1e300, 1.5) == -math.inf
        small = _log_transition(3, 1e300, 1e-300, 1.0)
        assert small == pytest.approx(-1.5 * math.log(2e300), rel=1e-14, abs=0)

    @pytest.mark.parametrize("d", [40, 344, 400])
    def test_high_dimensions_against_mpmath(self, d):
        # order d/2 - 1 past Gamma's float range; z = xy/2t below 30, between
        # 30 and the order squared, and past it
        nu = d / 2.0 - 1.0
        for t, x, y in [(1.0, 2.0, 5.0), (1.0, 10.0, 20.0), (1.0, 300.0, 400.0),
                        (1.0, 0.01, 0.02)]:
            with mpmath.workdps(40):
                z = mpmath.mpf(x) * y / (2 * t)
                want = float(mpmath.loggamma(d / 2.0) - mpmath.log(2 * t)
                             + (1 - d / 2.0) * mpmath.log(z * t) - (x - y) ** 2 / (4 * t)
                             + mpmath.log(mpmath.besseli(nu, z, maxterms=10 ** 6)) - z)
            assert _log_transition(d, t, x, y) == pytest.approx(want, rel=1e-14, abs=1e-11)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_bessel_factor_edges_against_mpmath(self, d):
        # x y = 0; z = xy/2t below e^-40, where h_nu reads 0; the table's middle;
        # and z past its upper edge, where h_nu is the large-z series' first term
        points = [(1.0, 0.0, 2.0), (1e20, 1e-5, 1e-5), (1.0, 1e-9, 1e-10), (0.7, 1.0, 1.9),
                  (1e-3, 1.0, 1.0), (1e-20, 1.0, 2.0), (1e-40, 3.0, 3.0 + 1e-30)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [_log_transition(d, t, x, y) for t, x, y in points]
        for (t, x, y), value in zip(points, got):
            t, x, y = (mpmath.mpf(v) for v in (t, x, y))
            with mpmath.workdps(80):
                z = x * y / (2 * t)
                want = -d / mpmath.mpf(2) * mpmath.log(2 * t) - (x * x + y * y) / (4 * t)
                if z:
                    nu = mpmath.mpf(d) / 2 - 1
                    want += (mpmath.log(mpmath.besseli(nu, z)) - nu * mpmath.log(z / 2)
                             + mpmath.loggamma(nu + 1))
            assert value == pytest.approx(float(want), rel=1e-14, abs=1e-11), (t, x, y)

    def test_array_times(self):
        ts = np.array([1e-6, 0.3, 1.0, 40.0])
        want = [_log_transition(3, t, 0.8, 1.1) for t in ts]
        np.testing.assert_allclose(_log_transition(3, ts, 0.8, 1.1), want, rtol=1e-15)


class TestSubordinatorPotential:
    def test_zero_mass_limit(self):
        rp = RelativisticParams(P3, 1e-12)
        for x in (0.3, 1.0, 4.0):
            want = x ** (P3.alpha / 2.0 - 1.0) / math.gamma(P3.alpha / 2.0)
            assert subordinator_potential(rp, x) == pytest.approx(want, rel=1e-6, abs=0)

    def test_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rp = RelativisticParams(P2, rng.uniform(0.1, 3.0))
            assert subordinator_potential(rp, rng.uniform(0.05, 5.0)) > 0.0

    def test_frozen_cross_check(self):
        # q_m(1) at m = 1, alpha = 1.5 equals e^-1 E_(3/4,3/4)(1); the
        # oracle is an independent direct series in plain floats
        total = 0.0
        for n in range(200):
            total += 1.0 / math.gamma(0.75 + 0.75 * n)
        want = math.exp(-1.0) * total
        assert subordinator_potential(RP2, 1.0) == pytest.approx(want, rel=1e-12, abs=0)

    def test_log_form_matches(self):
        v = subordinator_potential(RP2, 0.5)
        assert math.log(v) == pytest.approx(
            log_subordinator_potential(RP2, 0.5), rel=1e-13, abs=0)

    def test_domain(self):
        for x in (0.0, math.inf, math.nan, [0.5, 0.0]):
            with pytest.raises(DomainError):
                subordinator_potential(RP2, x)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    @pytest.mark.parametrize("m", [0.5, 1.3, 2.0])
    def test_against_mpmath_out_to_1e12(self, alpha, m):
        # within the Mittag-Leffler table's 5e-14 for x from 1e-6 to 1e12.  q_m
        # once added log E back to -m^(2/alpha) x, terms of size m^(2/alpha) x
        # that cancel: 6.0e-3 off at x = 1e12 (alpha = 1.9, m = 2).  Past
        # u = m^(2/alpha) x = 80 the oracle is the one-term asymptotic form
        # (1/g) m^((1-g)/g), g = alpha/2, whose remainder is e^-u times a power of u
        rp = RelativisticParams(StableParams(2, alpha), m)
        xs = np.geomspace(1e-6, 1e12, 37)
        got = subordinator_potential(rp, xs)
        with mpmath.workdps(40):
            g, mm = mpmath.mpf(alpha) / 2, mpmath.mpf(m)
            for x, value in zip(xs.tolist(), got):
                u = mm ** (1 / g) * x
                if u > 80:
                    ref = mm ** ((1 - g) / g) / g
                else:
                    t = mm * mpmath.mpf(x) ** g
                    ref = mpmath.exp(-u) * mpmath.mpf(x) ** (g - 1) * mpmath.fsum(
                        t ** n / mpmath.gamma(g + g * n) for n in range(int(3 * u / g) + 80))
                assert abs(value / float(ref) - 1.0) <= 5e-14, (x, value, float(ref))

    def test_array_matches_scalar_calls(self):
        # the qm report curve evaluates its whole abscissa in one call
        xs = np.linspace(0.01, 10.0, 200)
        for rp in (RP2, RelativisticParams(P3, 2.0),
                   RelativisticParams(StableParams(2, 1.05), 0.5)):
            want = np.array([subordinator_potential(rp, float(x)) for x in xs])
            assert np.all(np.abs(subordinator_potential(rp, xs) / want - 1.0) <= 1e-14)


class TestLambdaPotential:
    def test_finite_and_symmetric(self):
        rp = RelativisticParams(P3, 1.0, 0.5)
        v = lambda_potential(rp, 1.0, 1.0)
        assert 0.0 < v < math.inf
        a = lambda_potential(rp, 0.7, 1.3)
        b = lambda_potential(rp, 1.3, 0.7)
        assert a == pytest.approx(b, rel=1e-9, abs=0)

    def test_quadrature_self_consistency(self):
        rp = RelativisticParams(P3, 1.0, 0.5)
        coarse, fine = (math.exp(relativistic._log_potentials(rp, [(1.0, 2.0)], tol)[0])
                        for tol in (1e-8, 1e-13))
        assert coarse == pytest.approx(fine, rel=1e-7, abs=0)

    def test_low_alpha_diverges_on_diagonal(self):
        rp = RelativisticParams(StableParams(3, 0.9), 1.0, 0.5)
        with pytest.raises(DivergenceError):
            lambda_potential(rp, 1.0, 1.0)
        # off the diagonal the integral converges even for alpha <= 1
        assert lambda_potential(rp, 1.0, 2.0) > 0.0

    def test_planar_potential_diverges(self):
        with pytest.raises(DivergenceError):
            lambda_potential(RP2, 2.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_radii_are_refused(self, bad):
        # NaN once slipped past `x < 0` and came out 0.0
        rp = RelativisticParams(P3, 1.0, 0.5)
        with pytest.raises(DomainError):
            lambda_potential(rp, bad, 1.0)
        with pytest.raises(DomainError):
            lambda_potential(rp, 1.0, bad)

    def test_origin_diagonal_diverges(self):
        rp = RelativisticParams(P3, 1.0, 0.5)
        with pytest.raises(DivergenceError):
            lambda_potential(rp, 0.0, 0.0)

    def test_against_quadpack_reference(self):
        # the edge cases of the time integral, then a seeded spread
        cases = [(3, 1.05, 1.0, 0.5, 1.0, 1.0), (3, 1.05, 2.0, 0.95, 0.5, 0.501),
                 (3, 1.5, 1.0, 0.0, 0.0, 1.2), (2, 1.5, 1.0, 0.95, 1.0, 1.001),
                 (4, 1.2, 0.7, 0.0, 1.0, 1.0), (4, 1.9, 1.5, 0.3, 2.0, 0.0),
                 (4, 1.05, 1.0, 0.0, 0.3, 0.301), (2, 1.05, 0.5, 0.2, 0.0, 2.0)]
        rng = np.random.default_rng(2024)
        for _ in range(12):
            d = int(rng.integers(2, 5))
            lam_frac = rng.uniform(0.05, 0.95) if d == 2 or rng.random() < 0.5 else 0.0
            cases.append((d, rng.uniform(1.05, 1.95), rng.uniform(0.5, 2.0), lam_frac,
                          rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)))
        checked = 0
        for d, a, m, lam_frac, x, y in cases:
            rp = RelativisticParams(StableParams(d, a), m, lam_frac * m)
            want = _ref_lambda_potential(rp, x, y)
            if want > 1e-6:
                assert lambda_potential(rp, x, y) == pytest.approx(want, rel=1e-9, abs=0), \
                    (d, a, m, lam_frac, x, y)
                checked += 1
        assert checked >= 16

    def test_high_dimension_evaluates(self, capsys):
        # order d/2 - 1 = 171 puts Gamma(nu + 1) past the float range
        rp = RelativisticParams(StableParams(344, 1.5), 1.0, 0.5)
        a, b = lambda_potential(rp, 1.0, 2.0), lambda_potential(rp, 2.0, 1.0)
        assert 0.0 < a < math.inf and a == pytest.approx(b, rel=1e-9, abs=0)
        code = main(["eval", "u-lambda", "--d", "344", "--m", "1", "--lambda", "0.5",
                     "--x", "1", "--y", "2"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "") and float(out) == pytest.approx(a, rel=1e-12, abs=0)

    def test_far_apart_radii_at_large_d(self):
        # the transition's Bessel factor once underflowed at small z for d = 400,
        # and the time integral did not converge; now u(0.01, 2) = e^715.14, past
        # the float range and refused as such, and a dense sum over log s agrees
        rp = RelativisticParams(StableParams(400, 1.5), 1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_u = relativistic._log_potentials(rp, [(0.01, 2.0), (2.0, 0.01)], 1e-10)
            with pytest.raises(DomainError, match="float range"):
                lambda_potential(rp, 0.01, 2.0)
        radii = relativistic._radius_logs(0.01, 2.0)
        log_s = np.linspace(-30.0, 30.0, 60001)
        f = relativistic._log_time_integrand(rp, log_s, radii) + log_s
        want = f.max() + math.log(np.exp(f - f.max()).sum() * (log_s[1] - log_s[0]))
        assert log_u[0] == pytest.approx(want, rel=1e-12, abs=0)
        assert log_u[1] == pytest.approx(log_u[0], rel=1e-12, abs=0)

    def test_mittag_leffler_floor_is_stated_in_alpha(self, capsys):
        # E_(alpha/2, alpha/2) is tabulated from order 0.015: below alpha = 0.03
        # the potentials refuse in terms of alpha, above it they are computed
        low = RelativisticParams(StableParams(3, 0.025), 1.0, 0.5)
        for call in (lambda: lambda_potential(low, 1.0, 2.0),
                     lambda: log_subordinator_potential(low, 1.0)):
            with pytest.raises(DomainError, match="needs alpha >= 0.03, got alpha=0.025"):
                call()
        code = main(["eval", "u-lambda", "--d", "3", "--alpha", "0.025", "--m", "1",
                     "--lambda", "0.5", "--x", "1", "--y", "2"])
        err = capsys.readouterr().err
        assert code == 2 and "alpha >= 0.03" in err and "gamma" not in err
        for a in (0.05, 0.1):
            rp = RelativisticParams(StableParams(3, a), 1.0, 0.5)
            assert lambda_potential(rp, 1.0, 2.0) == pytest.approx(
                _ref_lambda_potential(rp, 1.0, 2.0), rel=1e-9, abs=0)
            xs = np.geomspace(0.01, 8.0, 9)
            want = [-rp.m ** (2.0 / a) * x + (a / 2.0 - 1.0) * math.log(x)
                    + _ref_log_mittag_leffler(a / 2.0, a / 2.0, rp.m * x ** (a / 2.0)) for x in xs]
            np.testing.assert_allclose(log_subordinator_potential(rp, xs), want, rtol=1e-13)

    def test_potential_beyond_the_float_range_is_refused(self):
        # u(r, r) ~ r^(alpha - d) is about 1e450 at r = 1e-300
        with pytest.raises(DomainError):
            lambda_potential(RP3, 1e-300, 1e-300)
        assert lambda_potential(RelativisticParams(P3, 1.0, 0.5), 1e300, 1.5) == 0.0


class TestHittingProbability:
    def test_planar_case_is_one(self):
        for x in (0.2, 1.0, 57.0):
            assert hitting_probability_sphere(RP2, 1.0, x) == 1.0

    def test_own_radius_is_one(self):
        assert hitting_probability_sphere(RP3, 1.0, 1.0) == 1.0

    def test_decreasing_in_distance(self):
        v2 = hitting_probability_sphere(RP3, 1.0, 2.0)
        v4 = hitting_probability_sphere(RP3, 1.0, 4.0)
        assert 0.0 < v4 < v2 < 1.0

    def test_accepts_points(self):
        v_scalar = hitting_probability_sphere(RP3, 1.0, 2.0)
        v_point = hitting_probability_sphere(RP3, 1.0, [0.0, 0.0, 2.0])
        assert v_scalar == pytest.approx(v_point, rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_radii_are_refused(self, bad):
        # a NaN distance once came out 0.0, a NaN sphere radius a ZeroDivisionError
        for r, x in ((1.0, bad), (1.0, [0.0, 0.0, bad]), (bad, 2.0)):
            with pytest.raises(DomainError):
                hitting_probability_sphere(RP3, r, x)
            with pytest.raises(DomainError):
                hitting_laplace_transform(RP3, r, x, 0.5)

    def test_alpha_guard(self):
        rp = RelativisticParams(StableParams(3, 0.9), 1.0)
        with pytest.raises(DomainError):
            hitting_probability_sphere(rp, 1.0, 2.0)

    def test_laplace_transform_monotone(self):
        vals = [hitting_laplace_transform(RP3, 1.0, 2.0, lam)
                for lam in (0.1, 0.3, 0.6, 0.9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_zero_mass_limit_recovers_stable_hitting(self):
        # by self-similarity the massless process hits the unit sphere from
        # radius rho with the closed-form probability phi(rho): a fully
        # independent cross-check of the time-integral machinery against
        # the hypergeometric route
        from stablepot import sphere
        rp = RelativisticParams(P3, 1e-10)
        for rho in (1.5, 2.0, 4.0):
            got = hitting_probability_sphere(rp, 1.0, rho)
            want = sphere.phi(P3, rho)
            assert got == pytest.approx(want, rel=1e-7, abs=0)

    def test_spheres_at_the_ends_of_the_float_range(self):
        # the two potentials leave the float range but their ratio does not:
        # a huge sphere is hit almost surely from near its center, a tiny
        # one almost never, and from far out the value is about 1/|x| in d = 3
        assert 1.0 - 1e-9 < hitting_probability_sphere(RP3, 1e300, 2.0) <= 1.0
        assert hitting_probability_sphere(RP3, 1e-300, 2.0) == 0.0
        far = hitting_probability_sphere(RP3, 1.0, 1e300)
        assert 0.0 < far < 1e-299

    def test_scaling_between_radii(self):
        # hitting a sphere of radius r from rho equals hitting the unit
        # sphere from rho/r once lengths are rescaled, which for the
        # massive process means mass m -> m r^alpha
        got = hitting_probability_sphere(
            RelativisticParams(P3, 1.0), 2.0, 3.0)
        want = hitting_probability_sphere(
            RelativisticParams(P3, 2.0 ** P3.alpha), 1.0, 1.5)
        assert got == pytest.approx(want, rel=1e-8, abs=0)


class TestKilledHyperplaneKernel:
    def test_small_mass_recovers_stable_kernel(self):
        rp = RelativisticParams(P2, 1e-10)
        x = np.array([0.0, 1.0])
        for yb in ([0.0], [0.7], [-2.3]):
            ratio = poisson_kernel_halfspace(rp, x, np.array(yb)) / \
                halfspace.poisson_kernel(P2, x, np.array(yb))
            assert abs(ratio - 1.0) < 1e-3

    def test_subprobability_total_mass(self):
        x = np.array([0.0, 1.0])
        mass, _ = integrate.quad(
            lambda y: poisson_kernel_halfspace(RP2, x, np.array([y])),
            -np.inf, np.inf, limit=200)
        assert 0.0 < mass < 1.0

    def test_symmetry_and_positivity(self):
        x = np.array([0.4, 0.9])
        left = poisson_kernel_halfspace(RP2, x, np.array([0.4 - 1.3]))
        right = poisson_kernel_halfspace(RP2, x, np.array([0.4 + 1.3]))
        assert left == pytest.approx(right, rel=1e-12, abs=0)
        assert left > 0.0

    def test_constant_positive(self):
        assert relativistic_constant(RP2) > 0.0
        assert relativistic_constant(RP3) > 0.0

    @pytest.mark.parametrize("d", [2, 3, 40, 1500])
    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
    def test_constant_against_mpmath(self, d, alpha):
        # the reference takes the exponents 1/alpha, (d + alpha - 2)/2,
        # (1 - d)/2 and (alpha + 1)/2 as the float formula rounds them: the
        # rounding of 1/alpha alone moves C4 by up to ~420 ulp at m = 1e300,
        # through the factor (d + alpha - 2)/2 log m.  Against it C4 is
        # within 8 ulp (the worst at d = 40)
        for m in (1e-10, 1.0, 1e100, 1e300):
            inv, e, pe, g = (mpmath.mpf(v) for v in (
                1.0 / alpha, (d + alpha - 2.0) / 2.0, (1.0 - d) / 2.0, (alpha + 1.0) / 2.0))
            with mpmath.workdps(40):
                want = ((alpha - 1) * (mpmath.mpf(m) ** inv / 2) ** e * mpmath.pi ** pe
                        / mpmath.gamma(g))
            rp = RelativisticParams(StableParams(d, alpha), m)
            if not 2.2250738585072014e-308 <= want <= 1.7976931348623157e308:
                with pytest.raises(DomainError, match="C4"):
                    relativistic_constant(rp)
                continue
            got = relativistic_constant(rp)
            assert abs(got - want) <= 10 * 2.0 ** -52 * want, (m, got, want)

    def test_far_and_near_points(self):
        # far out K_nu underflows: 0 is the value; at height 1e-300 it is
        # about 1e600, which is refused rather than returned as inf
        for x in ([0.0, 0.0, 1e300], [1e300, 0.0, 1.0]):
            assert math.isfinite(poisson_kernel_halfspace(RP3, x, np.zeros(2)))
        with pytest.raises(DomainError):
            poisson_kernel_halfspace(RP3, [0.0, 0.0, 1e-300], np.zeros(2))

    def test_non_finite_points_are_refused(self):
        x = np.array([0.0, 1.0])
        for z in ([math.nan], INFINITY):
            with pytest.raises(DomainError):
                poisson_kernel_halfspace(RP2, x, z)


# --- reference: QUADPACK over the whole line of log s ------------------------
#
# No power map and none of the package's quadrature: scipy's quad on pieces
# of l = log s, broken down to 1.7e8 below log s0 so that the diagonal's
# exp((alpha - 1) l / 2) tail is resolved even at alpha = 1.00001.  The
# integrand is the package's own; test_against_quadpack_reference checks it
# against an independent one.

def _ref_log_line_potential(rp, x, y):
    l0 = 2.0 * math.log(max(x, y))
    radii = relativistic._radius_logs(x, y)

    def f(l):
        return math.exp(float(relativistic._log_time_integrand(rp, np.array([l]), radii)[0]) + l)

    ends = ([-math.inf] + [l0 - 10.0 * 4.0 ** j for j in range(13, -1, -1)]
            + [l0, l0 + 10.0, l0 + 40.0, math.inf])
    return sum(integrate.quad(f, a, b, limit=400, epsabs=0.0, epsrel=1e-11, full_output=1)[0]
               for a, b in zip(ends[:-1], ends[1:]))


class TestTimeIntegralNearAlphaOne:
    @pytest.mark.parametrize("alpha", [1.0001, 1.00001, 1.05, 1.5, 1.95])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_against_log_line_reference(self, d, alpha):
        # the inner map once lost s in (s0 e^-10, s0) for alpha <= 1.00015, and
        # the cutoff of nearly equal radii (1e-8 apart at alpha = 1.95, 1e-12 at
        # 1.5): off, on and next to the diagonal
        rp = RelativisticParams(StableParams(d, alpha), 1.0, 0.5 if d == 2 else 0.0)
        for x, y in ((1.0, 2.0), (1.0, 1.0), (1.0, 1.0 + 1e-8), (1.0, 1.0 + 1e-12)):
            want = _ref_log_line_potential(rp, x, y)
            assert lambda_potential(rp, x, y) == pytest.approx(want, rel=1e-9, abs=0), (x, y)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.88])
    @pytest.mark.parametrize("r", [1e-20, 1e-50])
    def test_planar_small_radii_against_log_line_reference(self, r, alpha):
        # in d = 2 the tail is a v^(1-alpha) spike out to v ~ r sqrt(rate), which
        # the four even starting intervals left unresolved at alpha = 1.5 and 1.88
        # (ConvergenceError)
        rp = RelativisticParams(StableParams(2, alpha), 0.18, 0.13)
        want = _ref_log_line_potential(rp, r, 1.07 * r)
        assert lambda_potential(rp, r, 1.07 * r) == pytest.approx(want, rel=1e-9, abs=0)

    def test_long_geometric_tail_against_log_line_reference(self):
        # at r = 1e-300 and alpha = 1.99 the tail starts on 357 intervals and its
        # bisection needs about 710: ConvergenceError under a flat 500 per integral
        rp = RelativisticParams(StableParams(2, 1.99), 0.18, 0.13)
        want = _ref_log_line_potential(rp, 1e-300, 1.07e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lambda_potential(rp, 1e-300, 1.07e-300)
        assert got == pytest.approx(want, rel=1e-9, abs=0)

    def test_even_tail_intervals_at_benchmark_scale(self, monkeypatch):
        # the geometric tail starts only below s0 rate = e^-20; radii and masses
        # as the eval workloads draw them (0.2 to 3, 0.5 to 2) stay above it
        steps = []
        pieces = relativistic._pieces

        def recorded(pw, split, tail_steps):
            steps.append(tail_steps)
            return pieces(pw, split, tail_steps)

        monkeypatch.setattr(relativistic, "_pieces", recorded)
        for m, lam, x, y in [(0.5, 0.05, 0.2, 0.2 + 1e-3), (2.0, 1.8, 3.0, 0.2), (0.5, 0.45, 0.2, 3.0)]:
            lambda_potential(RelativisticParams(StableParams(2, 1.5), m, lam), x, y)
        lambda_potential(RelativisticParams(StableParams(2, 1.5), 0.18, 0.13), 1e-20, 1e-20)
        assert steps == [0, 0, 0, 26]

    def test_eval_near_alpha_one(self, capsys):
        # 0.64100 before: the first pass never sampled w in (0.9995, 1)
        code = main(["eval", "u-lambda", "--d", "3", "--alpha", "1.0001", "--m", "1",
                     "--x", "1", "--y", "2"])
        out, _ = capsys.readouterr()
        assert code == 0
        want = _ref_log_line_potential(RelativisticParams(StableParams(3, 1.0001), 1.0), 1.0, 2.0)
        assert float(out) == pytest.approx(want, rel=1e-9, abs=0)


class TestErrorContract:
    RP = RelativisticParams(P3, 1.0, 0.5)
    PAIR = np.array([1.0, 2.0])

    @pytest.mark.parametrize("call", [
        lambda rp, v: lambda_potential(rp, v, 1.0),
        lambda rp, v: lambda_potential(rp, 1.0, v),
        lambda rp, v: hitting_probability_sphere(rp, v, 2.0),
        lambda rp, v: hitting_laplace_transform(rp, v, 2.0, 0.3),
        lambda rp, v: hitting_laplace_transform(rp, 1.0, 2.0, 0.2 * v),
    ])
    def test_an_array_where_a_number_is_documented(self, call):
        # each once raised numpy's "truth value of an array is ambiguous"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="single number"):
                call(self.RP, self.PAIR)
            assert math.isfinite(call(self.RP, np.float64(1.5)))

    @pytest.mark.parametrize("x", ["2", None, b"2", -1.0, math.nan, math.inf, INFINITY,
                                   [2.0], [[0.0, 0.0, 2.0]]])
    def test_what_is_neither_a_radius_nor_a_point_is_refused(self, x):
        # text once raised a raw TypeError from the radius check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                hitting_probability_sphere(self.RP, 1.0, x)

    @pytest.mark.parametrize("x", [2.0, 2, np.float64(2.0), np.array(2.0), [0.0, 0.0, 2.0],
                                   np.array([0.0, 2.0, 0.0])])
    def test_a_radius_or_a_point(self, x):
        # a 0-d array was once refused as "expected a flat coordinate vector"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hitting_probability_sphere(self.RP, 1.0, x)
        assert got == hitting_probability_sphere(self.RP, 1.0, 2.0)

    def test_discounted_hitting_of_a_huge_sphere(self):
        # the killing underflows u(r, r)'s integrand at every node: once a NaN
        # from -inf - -inf, with "invalid value encountered in scalar subtract"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="no mass"):
                hitting_laplace_transform(RP3, 1e308, 2.0, 0.3)


class TestBatchedHittingRatio:
    CASES = [(3, 1.2, 1.3, 0.0, 1.0, 1.7), (3, 1.5, 0.7, 0.0, 0.8, 2.9),
             (4, 1.9, 2.0, 0.0, 1.5, 1.6), (3, 1.2, 1.0, 0.6, 1.0, 2.0),
             (3, 1.02, 1.0, 0.0, 1.0, 3.0), (2, 1.5, 1.0, 0.3, 1.0, 0.4)]

    @pytest.mark.parametrize("d, alpha, m, lam, r, rho", CASES)
    def test_equals_ratio_of_separate_potentials(self, d, alpha, m, lam, r, rho):
        rp = RelativisticParams(StableParams(d, alpha), m, lam)
        want = lambda_potential(rp, rho, r) / lambda_potential(rp, r, r)
        base = RelativisticParams(StableParams(d, alpha), m)
        got = (hitting_laplace_transform(base, r, rho, lam) if lam
               else hitting_probability_sphere(base, r, rho))
        assert got == pytest.approx(min(want, 1.0), rel=2e-10, abs=0)

    @pytest.mark.parametrize("d, alpha, m, lam, r, rho", CASES)
    def test_one_integrand_call_per_pass(self, d, alpha, m, lam, r, rho, monkeypatch):
        # a pass is one call of the integrator's log_f; each makes exactly one
        # call of the time integrand, for the rows of both potentials
        calls, passes = [], []
        integrand, integrate_log = relativistic._log_time_integrand, relativistic._integrate_log

        def counted_integrand(rp, log_s, radii):
            calls.append(len(log_s))
            return integrand(rp, log_s, radii)

        def counted_run(log_f, intervals, n, tol):
            def counted_log_f(params, u):
                passes.append(len(u))
                return log_f(params, u)
            return integrate_log(counted_log_f, intervals, n, tol)

        monkeypatch.setattr(relativistic, "_log_time_integrand", counted_integrand)
        monkeypatch.setattr(relativistic, "_integrate_log", counted_run)
        rp = RelativisticParams(StableParams(d, alpha), m, lam)
        alone, first = [], 0
        for x in (rho, r):
            lambda_potential(rp, x, r)
            alone.append(len(passes))
            first += passes[0]
            calls.clear(), passes.clear()
        base = RelativisticParams(StableParams(d, alpha), m)
        if lam:
            hitting_laplace_transform(base, r, rho, lam)
        else:
            hitting_probability_sphere(base, r, rho)
        assert calls == passes
        assert len(passes) == max(alone)        # the potentials run side by side
        assert passes[0] == first

    @pytest.mark.parametrize("d, alpha, m, lam, r, rho", CASES)
    def test_one_table_read_per_pass(self, d, alpha, m, lam, r, rho, monkeypatch):
        # the Mittag-Leffler and Bessel factors of every node of a pass come
        # from one call of the table reader
        reads, passes = [], []
        read_tables, integrate_log = relativistic._read_tables, relativistic._integrate_log

        def counted_read(*pairs):
            reads.append(len(pairs))
            return read_tables(*pairs)

        def counted_run(log_f, intervals, n, tol):
            def counted_log_f(params, u):
                passes.append(len(u))
                return log_f(params, u)
            return integrate_log(counted_log_f, intervals, n, tol)

        monkeypatch.setattr(relativistic, "_read_tables", counted_read)
        monkeypatch.setattr(relativistic, "_integrate_log", counted_run)
        base = RelativisticParams(StableParams(d, alpha), m)
        if lam:
            hitting_laplace_transform(base, r, rho, lam)
        else:
            hitting_probability_sphere(base, r, rho)
        assert passes and reads == [2] * len(passes)
