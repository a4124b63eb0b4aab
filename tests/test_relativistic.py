import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from stablepot import halfspace
from stablepot.cli import main
from stablepot.core import INFINITY, StableParams
from stablepot.errors import DivergenceError, DomainError
from stablepot.relativistic import (RelativisticParams,
                                    hitting_laplace_transform,
                                    hitting_probability_sphere,
                                    lambda_potential,
                                    log_bessel_transition,
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
        lambda: subordinator_potential(RelativisticParams(P2, 1e300), 1.0),
        lambda: hitting_probability_sphere(RelativisticParams(P3, 1e300), 2.0, 1.0),
    ])
    def test_quantities_past_the_float_range_are_refused(self, call):
        # m^(2/alpha) or C4 beyond the float range: a DomainError naming it
        with pytest.raises(DomainError, match="C4|m\\^\\(2/alpha\\)"):
            call()

    @pytest.mark.parametrize("m", ["1e300", "inf"])
    def test_eval_at_an_extreme_mass_is_one_error_line(self, m, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "phi-rel", "--d", "3", "--m", m, "--r", "2"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "Numerical result out of range" not in err


def _transition(d, t, x, y):
    return math.exp(log_bessel_transition(d, t, x, y))


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
                    want = log_bessel_transition(d, t, x, y) - d * math.log(c)
                    got = log_bessel_transition(d, c * c * t, c * x, c * y)
                    assert got == pytest.approx(want, rel=1e-12, abs=0)
        # a density far below e^-745 keeps a finite log; at 1e300 the log
        # itself, -(x - y)^2 / 4t ~ -2.5e599, is beyond the float range
        far = log_bessel_transition(3, 1.0, 1e150, 1.5)
        assert math.isfinite(far)
        assert far == pytest.approx(-0.25e300, rel=1e-13, abs=0)    # formed in logs
        assert log_bessel_transition(3, 1.0, 1e300, 1.5) == -math.inf
        small = log_bessel_transition(3, 1e300, 1e-300, 1.0)
        assert small == pytest.approx(-1.5 * math.log(2e300), rel=1e-14, abs=0)

    def test_array_times(self):
        ts = np.array([1e-6, 0.3, 1.0, 40.0])
        want = [log_bessel_transition(3, t, 0.8, 1.1) for t in ts]
        np.testing.assert_allclose(log_bessel_transition(3, ts, 0.8, 1.1), want, rtol=1e-15)


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
        coarse = lambda_potential(rp, 1.0, 2.0, quad_tol=1e-8)
        fine = lambda_potential(rp, 1.0, 2.0, quad_tol=1e-13)
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
