import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from stablepot.core import INFINITY, StableParams
from stablepot import sphere
from stablepot.errors import DomainError, SingularityError
from stablepot.sphere import (ball_constant, ball_poisson_kernel, constants,
                              green_function, hitting_probability,
                              martin_kernel, phi, phi_complement,
                              phi_complement_delta, poisson_kernel, polar_weights)

P2 = StableParams(2, 1.5)
P3 = StableParams(3, 1.5)


def _mp_phi(d, alpha, r):
    # Phi straight from the Legendre-function formula, at the working precision
    a = mpmath.mpf(alpha)
    rr = mpmath.mpf(r)
    c2 = mpmath.sqrt(mpmath.pi) * 2 ** (2 - a) * mpmath.gamma((a + d) / 2 - 1) \
        / mpmath.gamma((a - 1) / 2)
    if r == 0:
        return c2 / mpmath.gamma(mpmath.mpf(d) / 2)
    t = (rr * rr + 1) / abs(rr * rr - 1)
    return c2 * abs(rr * rr - 1) ** (a / 2 - 1) * rr ** (1 - mpmath.mpf(d) / 2) \
        * mpmath.legenp(-a / 2, 1 - mpmath.mpf(d) / 2, t, type=3)


def _mp_phi_inside(d, alpha, r):
    # Phi(0) (1 - r^2)^(alpha - 1) F(alpha/2, (d + alpha)/2 - 1; d/2; r^2) for
    # r < 1, summed term by term: its terms are positive, and at d ~ 1e5 it
    # converges where the Legendre form does not
    a, z = mpmath.mpf(alpha), mpmath.mpf(r) ** 2
    pa, pb, pc = a / 2, (d + a) / 2 - 1, mpmath.mpf(d) / 2
    phi0 = mpmath.sqrt(mpmath.pi) * 2 ** (2 - a) * mpmath.gamma(pb) \
        / (mpmath.gamma((a - 1) / 2) * mpmath.gamma(pc))
    term = total = mpmath.mpf(1)
    n = 0
    while term > total * mpmath.mpf(10) ** -(mpmath.mp.dps + 5):
        term *= (pa + n) * (pb + n) / ((pc + n) * (n + 1)) * z
        total += term
        n += 1
    return phi0 * (1 - z) ** (a - 1) * total


def mp_phi(d, alpha, r, dps=40):
    # high-precision reference straight from the Legendre-function formula
    with mpmath.workdps(dps):
        return float(_mp_phi(d, alpha, r))


def mp_green(p, x, y, dps=50):
    # A |x - y|^(alpha - d) (1 - Phi(r_w)), r_w^2 = 1 + (|x|^2 - 1)(|y|^2 - 1)/|x - y|^2,
    # with every square formed in mpmath
    with mpmath.workdps(dps):
        a, d = mpmath.mpf(p.alpha), p.d
        xs, ys = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in y]
        dist2 = sum((u - v) ** 2 for u, v in zip(xs, ys))
        delta = (sum(u * u for u in xs) - 1) * (sum(v * v for v in ys) - 1) / dist2
        riesz = mpmath.gamma((d - a) / 2) / (2 ** a * mpmath.pi ** (mpmath.mpf(d) / 2)
                                              * mpmath.gamma(a / 2))
        return float(riesz * dist2 ** ((a - d) / 2)
                     * (1 - _mp_phi(d, p.alpha, mpmath.sqrt(1 + delta))))


class TestConstants:
    def test_values_match_formulas(self):
        for p in (P2, StableParams(3, 1.2)):
            d, a = p.d, p.alpha
            kc = constants(p)
            assert ball_constant(p) == pytest.approx(
                math.gamma(d / 2) * math.pi ** (-1 - d / 2) * math.sin(math.pi * a / 2),
                rel=1e-15, abs=0)
            assert kc.c2 == pytest.approx(
                math.sqrt(math.pi) * 2 ** (2 - a) * math.gamma((a + d) / 2 - 1)
                / math.gamma((a - 1) / 2), rel=1e-15, abs=0)
            assert kc.c3 == pytest.approx(
                math.pi ** ((1 - d) / 2) * math.gamma((a + d) / 2 - 1)
                / math.gamma((a - 1) / 2), rel=1e-15, abs=0)
            assert ball_constant(p) > 0 and kc.c2 > 0 and kc.c3 > 0
            assert kc.series_c < 0
            assert 0.0 < kc.phi_at_origin < 1.0

    def test_alpha_range_guard(self):
        with pytest.raises(DomainError):
            constants(StableParams(2, 0.9))

    @staticmethod
    def _mp_constants(d, alpha):
        with mpmath.workdps(50):
            a, g, pi = mpmath.mpf(alpha), mpmath.gamma, mpmath.pi
            c2 = mpmath.sqrt(pi) * 2 ** (2 - a) * g((a + d) / 2 - 1) / g((a - 1) / 2)
            want = {
                "a_d_alpha": g((d - a) / 2) / (2 ** a * pi ** (mpmath.mpf(d) / 2) * g(a / 2)),
                "a_d_neg_alpha": g((d + a) / 2) / (2 ** -a * pi ** (mpmath.mpf(d) / 2)
                                                   * abs(g(-a / 2))),
                "c1": g(mpmath.mpf(d) / 2) * pi ** (-1 - mpmath.mpf(d) / 2)
                * mpmath.sin(pi * a / 2),
                "c2": c2,
                "c3": pi ** ((1 - mpmath.mpf(d)) / 2) * g((a + d) / 2 - 1) / g((a - 1) / 2),
                "series_c": c2 * g(1 - a) / (g(1 - a / 2) * g((d - a) / 2)),
                "phi_at_origin": c2 / g(mpmath.mpf(d) / 2),
            }
            return {k: float(v) for k, v in want.items()}

    def test_ulps_against_mpmath(self):
        # within 4 ulp at the verify points; over alpha in (1, 2) the worst is
        # c1 near alpha = 2, where sin(pi alpha / 2) loses about 29 ulp
        for d in (2, 3):
            for a in [1.5 if d == 2 else 1.2] + list(np.linspace(1.01, 1.99, 50)):
                p = StableParams(d, float(a))
                kc = constants(p)
                bound = 4 if (d, a) in ((2, 1.5), (3, 1.2)) else 32
                for name, want in self._mp_constants(d, float(a)).items():
                    got = ball_constant(p) if name == "c1" else getattr(kc, name)
                    assert abs(got - want) <= bound * math.ulp(want), (d, a, name)

    @pytest.mark.parametrize("d", [13, 80, 160, 1000, 10_000, 1_000_000])
    def test_phi_constants_at_large_dimension(self, d):
        # the rounded Gamma arguments (d +- alpha)/2 cost series_c 2.1e-14 at
        # d = 80 and phi_at_origin 4.5e-12 at d = 1e4; as ratios in d/2 both
        # stay within 2.1e-15 (measured up to d = 1e6)
        for a in (1.01, 1.2, 1.5, 1.9, 1.99):
            kc = constants(StableParams(d, a))
            want = self._mp_constants(d, a)
            for name in ("phi_at_origin", "series_c"):
                assert getattr(kc, name) == pytest.approx(want[name], rel=4e-15, abs=0), (a, name)

    def test_large_dimension(self):
        # Gamma((d + alpha)/2 - 1) alone overflows from d ~ 340; the ratios
        # phi needs stay finite, and a constant beyond the float range is a
        # DomainError naming it
        p = StableParams(400, 1.5)
        kc = constants(p)
        for name, want in self._mp_constants(400, 1.5).items():
            if name == "c2":
                with pytest.raises(DomainError, match="c2"):
                    kc.c2
            else:
                got = ball_constant(p) if name == "c1" else getattr(kc, name)
                assert got == pytest.approx(want, rel=2e-13, abs=0), name
        with pytest.raises(DomainError, match="c1"):
            ball_constant(StableParams(500, 1.5))
        for r in (0.5, 0.9995, 2.0, 3.0):
            got = phi(p, r)
            assert 0.0 <= got <= 1.0
            assert got == pytest.approx(mp_phi(400, 1.5, r, dps=80), rel=1e-12, abs=0)

    # worst relative errors of (phi, 1 - phi) over alpha in {1.2, 1.5, 1.9}
    # and BAND_RADII, as measured against the references, with a margin:
    # (2.7e-14, 4.0e-14) at d = 13, 2.9e-14 at d = 160, (5.4e-14, 1.4e-13) at
    # d = 400, (2.2e-13, 1.3e-12) at d = 1e3 and (6.5e-12, 1.3e-11) at 1e4.
    # The zonal sum loses about d ulp; 1 - phi a further phi / (1 - phi)
    # where phi ~ 0.9 (alpha = 1.9 near the sphere)
    LARGE_D_BOUNDS = {13: (1e-13, 1e-13), 20: (1e-13, 1e-13), 40: (1e-13, 1e-13),
                      80: (1e-13, 1e-13), 160: (1e-13, 1e-13), 400: (2e-13, 2e-13),
                      1000: (5e-13, 3e-12), 10_000: (1e-11, 3e-11)}
    BAND_RADII = (0.62, 0.8, 0.99, 1.0 - 1e-6, 1.0 + 1e-6, 1.01, 1.3, 1.6)

    @pytest.mark.parametrize("d", list(LARGE_D_BOUNDS))
    def test_large_dimension_band_against_legendre_reference(self, d):
        # the golden-ratio band once refused these from d ~ 13 on, where its
        # two reduced terms cancel; phi there is the sum of the zonal weights.
        # At d = 1e4 the reference is slow at r = 0.8, and phi is 0 beyond 1.3
        bound, comp_bound = self.LARGE_D_BOUNDS[d]
        radii = self.BAND_RADII if d < 10_000 else (0.62, 0.99, 1.0 - 1e-6, 1.0 + 1e-6, 1.01)
        for alpha in (1.2, 1.5, 1.9):
            p = StableParams(d, alpha)
            for r in radii:
                with mpmath.workdps(80):
                    ref = _mp_phi(d, alpha, r)
                    want, want_comp = float(ref), float(1 - ref)
                assert abs(phi(p, r) - want) <= bound * want, (alpha, r)
                assert abs(phi_complement(p, r) - want_comp) <= comp_bound * want_comp, \
                    (alpha, r)

    def test_golden_tails_reach_past_the_band_up_to_d_4(self):
        # the band's |s| runs up to 1/golden = 0.618, which the F - 1 series
        # reaches at every alpha up to d = 4 (least 0.624 there, at alpha ->
        # 2), so no band radius leaves it there; at d = 5 none reaches it
        edge = max(1.0 / sphere._GOLDEN, sphere._GOLDEN / (1.0 + sphere._GOLDEN))
        alphas = [1.0 + 1e-12, 1.001, *np.linspace(1.01, 1.99, 50).tolist(),
                  1.999, 2.0 - 1e-13, 2.0 - 2.0 ** -52]
        for d in (2, 3, 4, 5):
            for alpha in alphas:
                tails = constants(StableParams(d, alpha)).golden_tails
                got = [*tails(edge), *tails(-edge),
                       *tails.on_array(np.array([edge, -edge])).ravel()]
                assert np.isnan(got).all() if d == 5 else np.isfinite(got).all(), (d, alpha)

    # worst relative errors of (phi, 1 - phi) at band radii past the F - 1
    # series' reach, where phi is the sum of the zonal weights, over alpha
    # in {1.2, 1.5, 1.9, 1.99} as measured against the reference: (1.5e-15,
    # 2.8e-13) at d = 5, (2.6e-15, 1.7e-13) at 8, (1.7e-15, 1.1e-13) at 13,
    # (8.0e-15, 4.2e-13) at 40 and (7.3e-14, 2.3e-12) at 400; 1 - phi is
    # not pinned at alpha = 2 - 1e-13, where it is ~1e-13 of phi
    PAST_REACH_BOUNDS = {5: (1e-14, 1e-12), 8: (1e-14, 1e-12), 13: (1e-14, 1e-12),
                         40: (3e-14, 1e-12), 400: (1e-13, 3e-12)}

    @pytest.mark.parametrize("d", list(PAST_REACH_BOUNDS))
    def test_band_past_the_series_reach_against_legendre_reference(self, d):
        # from d = 5 on the F - 1 series is NaN near the band edges, and phi
        # there is the zonal sum, the same bits on either route
        bound, comp_bound = self.PAST_REACH_BOUNDS[d]
        edge = 1.0 / sphere._GOLDEN
        for alpha in (1.2, 1.9, 1.99, 2.0 - 1e-13):
            p = StableParams(d, alpha)
            tails = constants(p).golden_tails
            reach = tails._reach[-1]
            ss = [reach + (edge - reach) * (k + 0.5) / 6.0 for k in range(6)]
            radii = [1.0 / math.sqrt(1.0 - s) for s in ss] + [math.sqrt(1.0 - s) for s in ss]
            for s, r in zip(ss + ss, radii):
                assert np.isnan(tails(s)).all()
                with mpmath.workdps(60):
                    ref = _mp_phi(d, alpha, r)
                    want, want_comp = float(ref), float(1 - ref)
                assert abs(phi(p, r) - want) <= bound * want, (alpha, r)
                if alpha <= 1.99:
                    assert abs(phi_complement(p, r) - want_comp) <= comp_bound * want_comp, \
                        (alpha, r)
            many = np.array(radii * 3)              # enough for the array route
            assert many.size >= sphere._ARRAY_MIN
            assert np.array_equal(phi(p, many), [phi(p, r) for r in many.tolist()])
            assert np.array_equal(phi_complement(p, many),
                                  [phi_complement(p, r) for r in many.tolist()])

    @pytest.mark.parametrize("d", [100_000, 1_000_000])
    def test_overflowing_band_terms_take_the_zonal_sum(self, d):
        # the band's two terms overflow to +-inf and their sum is NaN; the
        # zonal sum on ceil(6 sqrt(d)) nodes stays within the measured
        # 4.5e-12 (d = 1e5) and 7.9e-12 (d = 1e6) of the series reference
        got = phi(StableParams(d, 1.5), 0.9)
        assert 0.0 < got < 1.0
        with mpmath.workdps(40):
            want = float(_mp_phi_inside(d, 1.5, 0.9))
        assert abs(got - want) <= {100_000: 1e-11, 1_000_000: 2e-11}[d] * want

    def test_phi_stays_within_the_unit_interval_near_alpha_two(self):
        # inside the sphere phi -> 1 as alpha -> 2, and the golden-band terms
        # rounded to 1 + 4.7e-15 at (32, 2 - 2 ulp, 0.75); past the F - 1
        # series' reach the zonal sum keeps phi right where hyp2f1 took its
        # tiny a for 0 (phi was -0.44 at (10, 2 - 1 ulp, 1.5))
        for d in (10, 32):
            for alpha in (2.0 - 2.0 ** -52, 2.0 - 2.0 ** -51):
                for r in (0.75, 1.5):
                    assert 0.0 <= phi(StableParams(d, alpha), r) <= 1.0
                    assert 0.0 <= phi_complement(StableParams(d, alpha), r) <= 1.0
        assert phi(StableParams(10, 2.0 - 2.0 ** -52), 1.5) == \
            pytest.approx(1.5 ** -8, rel=1e-12, abs=0)


class TestPhi:
    def test_origin_value(self):
        assert phi(P2, 0.0) == constants(P2).phi_at_origin
        assert hitting_probability(P2, [0.0, 0.0]) == constants(P2).phi_at_origin

    def test_on_sphere_is_one(self):
        assert phi(P2, 1.0) == 1.0

    def test_hitting_probability_at_huge_norm(self):
        # |x|^2 overflows; the norm must not
        for x in ([0.0, 1e200], [3e300, -4e300]):
            r = float(np.hypot(*x))
            assert hitting_probability(P2, x) == pytest.approx(phi(P2, r), rel=1e-12, abs=0)
        assert phi(P2, 1e200) == pytest.approx(8.472130847939793e-101, rel=1e-12, abs=0)

    def test_complement_rejects_infinite_delta(self):
        with pytest.raises(DomainError):
            phi_complement_delta(P2, math.inf)

    @pytest.mark.parametrize("d,alpha", [(2, 1.2), (2, 1.5), (2, 1.8),
                                         (3, 1.2), (3, 1.5), (3, 1.8)])
    def test_against_legendre_reference(self, d, alpha):
        p = StableParams(d, alpha)
        for r in (1e-4, 0.3, 0.62, 0.9, 0.998, 1.002, 1.1, 1.6, 2.1, 30.0, 1e6):
            ref = mp_phi(d, alpha, r)
            assert phi(p, r) == pytest.approx(ref, rel=5e-12, abs=0)

    def test_huge_radii_against_legendre_reference(self):
        # beyond r ~ 1.34e154, r^2 - 1 overflows; the reference needs
        # about 2 log10(r) extra digits to resolve |r^2 - 1| against 1;
        # near alpha = d, 1 - phi is visibly below 1 even out there
        for p in (P2, StableParams(2, 1.99)):
            for r in (1e154, 1e160, 1e300):
                ref = mp_phi(2, p.alpha, r, dps=int(2 * math.log10(r)) + 40)
                assert ref > 0.0
                assert phi(p, r) == pytest.approx(ref, rel=1e-12, abs=0)
                assert phi_complement(p, r) == 1.0 - phi(p, r)

    def test_boundary_limits_canonical(self):
        # d = 2, alpha = 1.5: within 1e-3 of 1 near the sphere, small far out
        assert phi(P2, 1.0 - 1e-8) > 0.999
        assert phi(P2, 1.0 + 1e-8) > 0.999
        assert phi(P2, 1e6) < 1e-2

    def test_dual_path_overlap_band(self):
        for d in (2, 3):
            for alpha in (1.2, 1.5, 1.8):
                p = StableParams(d, alpha)
                for dr in (1e-3, 1.4e-3, 2e-3):
                    for sgn in (1.0, -1.0):
                        r = 1.0 + sgn * dr
                        delta = (r - 1.0) * (r + 1.0)
                        series = phi_complement_delta(p, delta)
                        direct = 1.0 - mp_phi(d, alpha, r)
                        assert series == pytest.approx(direct, rel=1e-8, abs=0)

    def test_golden_band_against_legendre_reference(self):
        # Phi and 1 - Phi within 1e-13 over the golden-ratio band, from
        # either side up to 1e-12 of the sphere; inside the sphere at alpha
        # near 2 the two terms of 1 - Phi cancel about 200-fold
        radii = [float(r) for r in np.linspace(0.62, 1.61, 12)] + \
            [1.0 + sgn * 10.0 ** -k for k in (2.5, 3, 3.2, 4, 6, 9, 12) for sgn in (1.0, -1.0)]
        for d in (2, 3, 4):
            for alpha in (1.05, 1.2, 1.5, 1.9, 1.99):
                p = StableParams(d, alpha)
                for r in radii:
                    with mpmath.workdps(50):
                        ref = _mp_phi(d, alpha, r)
                        want, want_comp = float(ref), float(1 - ref)
                    assert abs(phi(p, r) - want) <= 1e-13 * want, (d, alpha, r)
                    assert abs(phi_complement(p, r) - want_comp) <= 1e-13 * want_comp, \
                        (d, alpha, r)

    def test_complement_positive_and_monotone_near_sphere(self):
        prev_in = prev_out = None
        for k in range(3, 10):
            ci = phi_complement(P2, 1.0 - 10.0 ** -k)
            co = phi_complement(P2, 1.0 + 10.0 ** -k)
            assert ci > 0.0 and co > 0.0
            if prev_in is not None:
                assert ci < prev_in and co < prev_out
            prev_in, prev_out = ci, co

    def test_radial_invariance(self):
        # the implementation is radial; rotations only perturb |x| at ulp level
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(3)
            x *= 1.7 / np.linalg.norm(x)
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            a = hitting_probability(P3, x)
            b = hitting_probability(P3, q @ x)
            assert a == pytest.approx(b, rel=5e-14, abs=0)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = rng.uniform(0.0, 5.0)
            if r == 1.0:
                continue
            v = phi(P2, r)
            assert 0.0 <= v <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            phi(P2, -0.5)
        with pytest.raises(DomainError):
            phi(P2, math.nan)
        with pytest.raises(DomainError):
            phi_complement(P2, math.nan)
        # r = inf is the far-field limit, which green_function reaches for
        # far points close relative to their size
        assert phi(P2, math.inf) == 0.0 and phi_complement(P2, math.inf) == 1.0
        with pytest.raises(DomainError):
            phi(StableParams(2, 0.7), 0.5)

    @pytest.mark.parametrize("rm1", [-3.0, -1.5, np.nextafter(-1.0, -2.0), -math.inf])
    def test_offset_below_minus_one_is_refused(self, rm1):
        # r = 1 + rm1 < 0: refused on the float route and on the array route,
        # where it used to answer 1 - Phi(|r|)
        with pytest.raises(DomainError, match="offset"):
            sphere.phi_complement_offset(P2, rm1)
        with pytest.raises(DomainError, match="offset"):
            sphere.phi_complement_offset(P2, np.full(2 * sphere._ARRAY_MIN, 0.5).tolist() + [rm1])
        assert sphere.phi_complement_offset(P2, -1.0) == phi_complement(P2, 0.0)


class TestPoissonKernel:
    def test_center_is_constant(self):
        kc = constants(P2)
        for ang in (0.0, 1.0, 2.5):
            z = np.array([math.cos(ang), math.sin(ang)])
            assert poisson_kernel(P2, np.zeros(2), z) == pytest.approx(
                kc.phi_at_origin, rel=1e-15, abs=0)

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(2)
        for r in (0.3, 2.5):
            for _ in range(10):
                y = rng.standard_normal(3)
                y /= np.linalg.norm(y)
                z = rng.standard_normal(3)
                z /= np.linalg.norm(z)
                assert poisson_kernel(P3, r * y, z) == pytest.approx(
                    poisson_kernel(P3, r * z, y), rel=1e-13, abs=0)

    def test_integrates_to_phi(self):
        from stablepot.analysis import sphere_quadrature
        rng = np.random.default_rng(3)
        for p, res in ((P2, 512), (P3, 64)):
            grid = sphere_quadrature(p, res)
            for _ in range(5):
                x = rng.uniform(-0.6, 0.6, p.d)
                mass = grid.integrate(poisson_kernel(p, x, grid.nodes))
                assert mass == pytest.approx(hitting_probability(p, x), abs=1e-6)

    def test_errors(self):
        # x = z forces |x| = 1, so the sphere-membership guard fires; a
        # boundary argument off the sphere is rejected independently
        with pytest.raises(DomainError):
            poisson_kernel(P2, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            poisson_kernel(P2, np.array([0.5, 0.0]), np.array([0.5, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_is_refused(self, bad):
        # the old kernel returned nan for both (with a RuntimeWarning for inf)
        with pytest.raises(DomainError):
            poisson_kernel(P2, [0.0, bad], [0.0, 1.0])
        with pytest.raises(DomainError):
            poisson_kernel(P2, [0.0, 0.5], [bad, 1.0])

    def test_point_at_infinity_is_refused(self):
        # once a raw TypeError from the float coercion
        with pytest.raises(DomainError):
            poisson_kernel(P2, [0.0, 0.5], INFINITY)
        with pytest.raises(DomainError):
            poisson_kernel(P2, INFINITY, [0.0, 1.0])

    def test_far_points_scale_exactly(self):
        # |x|^2 - 1 and |x - z|^2 overflow beyond |x| ~ 1e154; far out the
        # kernel is Phi(0) |x|^(alpha - d) up to a relative O(1/|x|)
        z = np.array([0.6, 0.8])
        x = np.array([-3.0, 7.0])
        for k in (100, 250, 500):
            want = constants(P2).phi_at_origin * (4.0 ** k * 58.0 ** 0.5) ** (P2.alpha - P2.d)
            assert poisson_kernel(P2, 4.0 ** k * x, z) == pytest.approx(want, rel=1e-13, abs=0)
        both = poisson_kernel(P2, np.array([[0.0, 1e300], [0.0, 0.5]]), z)
        assert both[1] == poisson_kernel(P2, np.array([0.0, 0.5]), z)


    @pytest.mark.parametrize("d,alpha", [(2, 1.5), (3, 1.2), (3, 1.9), (4, 1.5), (2, 1.05)])
    def test_zonal_weights_sum_to_phi_down_to_the_least_offset(self, d, alpha):
        # below |r - 1| = 2^-100 the zonal rule runs v out to 747: one
        # Gauss-Legendre rule over it drifted by up to 9e-6 at 2^-1022 and
        # overflowed at 2^-1074; the three-panel rule holds 1e-12 in range
        p = StableParams(d, alpha)
        rm1 = np.array([s * 2.0 ** -k for k in (100, 300, 600, 1000, 1022, 1074)
                        for s in (1.0, -1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi, w = polar_weights(p, rm1)
            want = 1.0 - sphere.phi_complement_offset(p, rm1)
        assert np.all((psi >= 0.0) & (psi < math.pi))
        np.testing.assert_allclose(np.sum(w, axis=-1), want, rtol=0, atol=1e-12)

    def test_zonal_weights_keep_their_bits_down_to_2_to_the_minus_100(self):
        # sha256 of (psi, w), taken from the single Gauss-Legendre rule that
        # still serves these offsets, batched with one below 2^-100
        rm1 = np.array([-0.5, 2.0 ** -10, -2.0 ** -40, 2.0 ** -64, -2.0 ** -64,
                        2.0 ** -100, -2.0 ** -100, 3.0])
        want = {(2, 1.5): "b9fa868e78c99323875cd85c343d964ba84251a2a28af619d3adc3394db61845",
                (3, 1.2): "f11cb8f8f8583a2ae19324e214e048a681cf1ce82144fa65de4e28a6f1cb7fd3",
                (4, 1.5): "a4a34a27512ca37e07b429755ad31b3ee106b1e0541218f89f4ba356ccc19adb"}
        for (d, alpha), digest in want.items():
            psi, w = polar_weights(StableParams(d, alpha), np.append(rm1, 2.0 ** -500))
            got = hashlib.sha256(psi[:-1].tobytes() + w[:-1].tobytes()).hexdigest()
            assert got == digest, (d, alpha)


class TestGreenFunction:
    def test_symmetry(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 50:
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            if abs(np.linalg.norm(x) - 1) < 0.02 or abs(np.linalg.norm(y) - 1) < 0.02:
                continue
            if np.linalg.norm(x - y) < 0.02:
                continue
            done += 1
            g1 = green_function(P2, x, y)
            g2 = green_function(P2, y, x)
            assert g1 == pytest.approx(g2, rel=1e-12, abs=0)
            assert g1 >= 0.0

    def test_vanishes_at_sphere(self):
        x = np.array([0.4, 0.0])
        for sgn in (1.0, -1.0):
            prev = None
            for k in range(2, 7):
                y = np.array([0.0, 1.0 + sgn * 10.0 ** -k])
                g = green_function(P2, x, y)
                if prev is not None:
                    assert g < prev
                prev = g
            assert prev < 1e-3

    def test_far_field(self):
        kc = constants(P2)
        y = np.array([1e3, 0.0])
        want = kc.a_d_alpha * 1e3 ** (P2.alpha - P2.d) * (1.0 - kc.phi_at_origin)
        assert green_function(P2, np.zeros(2), y) == pytest.approx(want, rel=1e-5, abs=0)

    def test_far_point_does_not_overflow(self):
        want = constants(P2).a_d_alpha * 1e200 ** (P2.alpha - P2.d) \
            * phi_complement(P2, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = green_function(P2, [0.0, 0.5], [0.0, 1e200])
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_coordinates_near_the_float_maximum(self, d):
        # |x|^2 - 1 of a coordinate of 1.7e308, over the pair's scale, used
        # to overflow, and 1 - Phi was taken at r_w = inf (2.6x too large)
        p = StableParams(d, 1.5)
        e1 = np.eye(d)[0]
        for big in (1.7e308, -1.7e308):
            x = big * np.eye(d)[-1]
            for y in (2.0 * e1, 0.5 * e1, 1.25 * e1):
                want = mp_green(p, x, y)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for got in (green_function(p, x, y), green_function(p, y, x)):
                        assert abs(got - want) <= 1e-12 * want, (big, y)
        assert abs(green_function(P2, [0.0, 1.7e308], [2.0, 0.0]) - 9.9724e-156) <= 1e-159

    def test_far_points_far_apart(self):
        # delta_w ~ 1e400 overflows; 1 - Phi is taken at r_w = |x||y|/|x - y|,
        # where Phi is its far-field form Phi(0) r^(alpha - d)
        p = StableParams(2, 1.99)
        kc = constants(p)
        want = kc.a_d_alpha * (math.sqrt(2.0) * 1e200) ** (p.alpha - p.d) \
            * (1.0 - kc.phi_at_origin * (1e200 / math.sqrt(2.0)) ** (p.alpha - p.d))
        got = green_function(p, [0.0, 1e200], [1e200, 0.0])
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        assert got == pytest.approx(0.1571949424746409, rel=1e-12, abs=0)

    def test_far_points_close_together(self):
        # r_w = |x| |y| / |x - y| ~ 1e310 overflows; 1 - Phi is 1 there and
        # G is the free-space a_(d,alpha) |x - y|^(alpha - d)
        x, y = [1e300, 0.0], [1.0000000001e300, 0.0]
        want = constants(P2).a_d_alpha * (y[0] - x[0]) ** (P2.alpha - P2.d)
        for got in (green_function(P2, x, y), green_function(P2, y, x)):
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_near_coincident_points_inside(self):
        # dx = dy = -0.75 and dist2 = 2.5e-307 overflow delta_w; 1 - Phi is 1 there
        want = constants(P2).a_d_alpha * 5e-154 ** (P2.alpha - P2.d)
        got = green_function(P2, [0.0, 0.5], [5e-154, 0.5])
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_subnormal_squared_distance(self):
        # |x - y|^2 = 1e-320 is subnormal; the distance power once came out
        # 2.8e-6 off.  Phi at r_w ~ 1e160 is below 1e-80, so 1 - Phi is 1
        for p in (P2, StableParams(3, 1.2)):
            x = np.zeros(p.d)
            x[-1] = 0.5
            y = x.copy()
            y[0] = 1e-160
            with mpmath.workdps(30):
                want = float(constants(p).a_d_alpha
                             * mpmath.mpf(1e-160) ** (p.alpha - p.d))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = green_function(p, x, y)
            assert got == pytest.approx(want, rel=1e-13, abs=0)
        with pytest.raises(SingularityError, match="float range"):
            green_function(StableParams(3, 1.2), [0.0, 0.0, 0.5], [1e-300, 0.0, 0.5])

    def test_errors(self):
        with pytest.raises(SingularityError):
            green_function(P2, [0.5, 0.0], [0.5, 0.0])
        with pytest.raises(DomainError):
            green_function(P2, [1.0, 0.0], [0.5, 0.0])


class TestMartinKernel:
    def test_normalization_at_origin(self):
        z = np.array([0.0, 1.0])
        assert martin_kernel(P2, np.zeros(2), z) == 1.0
        assert martin_kernel(P2, np.zeros(2), INFINITY) == 1.0

    def test_ratio_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 2)
            if abs(np.linalg.norm(x) - 1) < 0.05:
                continue
            z = rng.standard_normal(2)
            z /= np.linalg.norm(z)
            want = poisson_kernel(P2, x, z) / poisson_kernel(P2, np.zeros(2), z)
            assert martin_kernel(P2, x, z) == pytest.approx(want, rel=1e-12, abs=0)

    def test_green_ratio_limit(self):
        x = np.array([0.4, 0.1])
        z = np.array([0.0, 1.0])
        target = martin_kernel(P2, x, z)
        errs = []
        for k in range(2, 6):
            r = 1.0 - 10.0 ** -k
            ratio = green_function(P2, x, r * z) / green_function(P2, np.zeros(2), r * z)
            errs.append(abs(ratio - target))
        assert errs[2] < 1e-2          # r = 1 - 1e-4
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_infinity_branch(self):
        kc = constants(P2)
        x = np.array([0.3, 0.4])
        want = phi_complement(P2, 0.5) / (1.0 - kc.phi_at_origin)
        assert martin_kernel(P2, x, INFINITY) == pytest.approx(want, rel=1e-13, abs=0)

    def test_far_point(self):
        # P(x, z) / Phi(0) = |x|^(alpha - d) up to O(1/|x|); once nan from
        # the overflowing |x|^2 - 1
        assert martin_kernel(P2, [0.0, 1e200], [0.0, 1.0]) == \
            pytest.approx(1e-100, rel=1e-13, abs=0)

    @pytest.mark.parametrize("p", [P2, StableParams(3, 1.2)])
    @pytest.mark.parametrize("k", [-250, 100, 250])
    def test_powers_of_four_scale_exactly(self, p, k):
        # far out M = |x|^(alpha - d) up to O(1/|x|); near the origin M = 1 up
        # to O(|x|); the overflowing |x|^2 - 1 once made the d = 3 far values 0
        # and the near ones were fine
        x = np.array([-3.0, 7.0] + [2.0] * (p.d - 2))
        z = np.array([0.6, 0.8] + [0.0] * (p.d - 2))
        lam = 4.0 ** k
        want = 1.0 if k < 0 else (lam * np.linalg.norm(x)) ** (p.alpha - p.d)
        assert martin_kernel(p, lam * x, z) == pytest.approx(want, rel=1e-13, abs=0)
        both = martin_kernel(p, lam * x, np.stack([z, -z]))
        assert both[0] == martin_kernel(p, lam * x, z)

    def test_refuses_non_finite_points(self):
        with pytest.raises(DomainError):
            martin_kernel(P2, [0.0, 0.5], [math.nan, 1.0])
        with pytest.raises(DomainError):
            martin_kernel(P2, INFINITY, [0.0, 1.0])


class TestBallPoisson:
    def test_isotropy_at_center(self):
        y1 = np.array([1.8, 0.0])
        y2 = np.array([0.0, -1.8])
        v1 = ball_poisson_kernel(P2, np.zeros(2), 1.0, np.zeros(2), y1)
        v2 = ball_poisson_kernel(P2, np.zeros(2), 1.0, np.zeros(2), y2)
        assert v1 == v2

    def test_accepts_full_alpha_range(self):
        p = StableParams(2, 0.7)   # below the hitting range on purpose
        v = ball_poisson_kernel(p, np.zeros(2), 1.0, np.zeros(2), np.array([2.0, 0.0]))
        assert v > 0.0

    def test_normalization(self):
        for p in (StableParams(2, 0.7), P2, StableParams(3, 1.8)):
            d, a = p.d, p.alpha
            area = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
            val, _ = integrate.quad(
                lambda w: 0.5 * ball_constant(p) * area * w ** (a / 2 - 1)
                * (1 - w) ** (-a / 2), 0.0, 1.0, points=[0.0, 1.0], limit=200)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_scaling(self):
        lam = 4.0
        x = np.array([0.2, -0.1])
        y = np.array([1.4, 1.2])
        lhs = ball_poisson_kernel(P2, np.zeros(2), lam, lam * x, lam * y)
        rhs = lam ** -2 * ball_poisson_kernel(P2, np.zeros(2), 1.0, x, y)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=0)

    def test_off_center_normalization(self):
        # the exit density integrates to 1 from any interior start, not
        # just the center; inner integral in w = 1/rho^2 per direction
        x = np.array([0.3, -0.2])
        x2 = float(np.dot(x, x))

        def per_angle(theta):
            direction = np.array([math.cos(theta), math.sin(theta)])

            def inner(w):
                rho = 1.0 / math.sqrt(w)
                y = rho * direction
                val = ball_poisson_kernel(P2, np.zeros(2), 1.0, x, y)
                return val * rho ** 4 / 2.0      # rho drho = (rho^4/2) dw

            v, _ = integrate.quad(inner, 0.0, 1.0, points=[0.0, 1.0], limit=200)
            return v

        total, _ = integrate.quad(per_angle, 0.0, 2.0 * math.pi, limit=100)
        assert total == pytest.approx(1.0, abs=2e-6)
        assert x2 < 1.0   # start really is interior

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_is_refused(self, bad):
        # a NaN center, point or radius once gave nan
        z, x, y = np.zeros(2), np.array([0.0, 0.5]), np.array([0.0, 2.0])
        for args in (([0.0, bad], 1.0, x, y), (z, bad, x, y),
                     (z, 1.0, [0.0, bad], y), (z, 1.0, x, [0.0, bad]),
                     (z, 1.0, x, INFINITY)):
            with pytest.raises(DomainError):
                ball_poisson_kernel(P2, *args)

    def test_far_and_near_points(self):
        c1 = ball_constant(P2)
        x = np.zeros(2)
        assert ball_poisson_kernel(P2, x, 1.0, x, [0.0, 1e60]) == pytest.approx(
            c1 * 1e-60 ** (P2.alpha + P2.d), rel=1e-13, abs=0)
        # c1 |y|^-(alpha + d) = 1e-525 underflows; |y|^2 once overflowed
        assert ball_poisson_kernel(P2, x, 1.0, x, [0.0, 1e300]) == 0.0
        near = ball_poisson_kernel(P2, x, 1.0, [0.0, 1e-300], [0.0, 2.0])
        assert near == ball_poisson_kernel(P2, x, 1.0, x, [0.0, 2.0])

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ball_poisson_kernel(P2, np.zeros(2), 1.0, np.array([1.2, 0.0]),
                                np.array([2.0, 0.0]))
        with pytest.raises(DomainError):
            ball_poisson_kernel(P2, np.zeros(2), 1.0, np.zeros(2),
                                np.array([0.5, 0.0]))


class TestHigherDimensions:
    # the closed forms hold for every integer d >= 2 even though the
    # boundary quadratures stop at d = 3

    def test_phi_d4_against_reference(self):
        p = StableParams(4, 1.5)
        for r in (0.3, 0.9, 1.2, 5.0):
            assert phi(p, r) == pytest.approx(mp_phi(4, 1.5, r), rel=5e-12, abs=0)

    def test_kelvin_route_d4(self):
        from stablepot import halfspace
        p = StableParams(4, 1.4)
        rng = np.random.default_rng(21)
        e4 = np.zeros(4)
        e4[-1] = 1.0
        done = 0
        while done < 20:
            x = rng.uniform(-2, 2, 4)
            y = rng.uniform(-2, 2, 4)
            if abs(x[-1]) < 0.1 or abs(y[-1]) < 0.1 or np.linalg.norm(x - y) < 0.1:
                continue
            if np.linalg.norm(x + e4) < 0.3 or np.linalg.norm(y + e4) < 0.3:
                continue
            done += 1
            lhs = halfspace.green_function(p, x, y)
            pref = 2.0 ** (4 - p.alpha) \
                * np.linalg.norm(x + e4) ** (p.alpha - 4) \
                * np.linalg.norm(y + e4) ** (p.alpha - 4)
            rhs = pref * green_function(p, halfspace.invert_t_tilde(x),
                                        halfspace.invert_t_tilde(y))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=0)
