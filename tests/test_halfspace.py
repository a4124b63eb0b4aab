import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from stablepot.core import INFINITY, StableParams, basis_last
from stablepot.errors import DomainError, SingularityError
from stablepot import sphere
from stablepot.halfspace import (green_function, invert_t,
                                 invert_t_tilde, kelvin, martin_kernel,
                                 omega_alpha_density, poisson_kernel)

P2 = StableParams(2, 1.5)
P3 = StableParams(3, 1.5)


class TestPoissonKernel:
    @pytest.mark.parametrize("p", [P2, P3, StableParams(2, 1.2), StableParams(3, 1.8)])
    def test_normalization(self, p):
        from stablepot.analysis import hyperplane_quadrature
        rng = np.random.default_rng(0)
        for _ in range(10):
            xb = rng.uniform(-2, 2, p.d - 1)
            xd = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
            grid = hyperplane_quadrature(p, 241 if p.d == 2 else 181,
                                         p.d + p.alpha - 2.0, center=xb,
                                         scale=abs(xd))
            x = np.concatenate([xb, [xd]])
            mass = grid.integrate(poisson_kernel(p, x, grid.nodes))
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            xb = rng.uniform(-3, 3, 2)
            yb = rng.uniform(-3, 3, 2)
            t = rng.uniform(0.1, 2.0)
            a = poisson_kernel(P3, np.concatenate([xb, [t]]), yb)
            b = poisson_kernel(P3, np.concatenate([yb, [t]]), xb)
            assert a == pytest.approx(b, rel=1e-13)

    def test_scaling(self):
        lam = 3.0
        x = np.array([0.4, -0.2, 0.8])
        yb = np.array([1.0, 0.5])
        lhs = poisson_kernel(P3, lam * x, lam * yb)
        rhs = lam ** (1 - P3.d) * poisson_kernel(P3, x, yb)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_errors(self):
        with pytest.raises(DomainError):
            poisson_kernel(P2, np.array([0.3, 0.0]), np.array([0.0]))


class TestOmegaAlpha:
    def test_value_at_origin(self):
        assert omega_alpha_density(P2, np.zeros(1)) == pytest.approx(
            sphere.constants(P2).c3, rel=1e-15)

    def test_total_mass(self):
        from stablepot.analysis import hyperplane_quadrature
        for p in (P2, P3):
            grid = hyperplane_quadrature(p, 241 if p.d == 2 else 181,
                                         p.d + p.alpha - 2.0)
            mass = grid.integrate(omega_alpha_density(p, grid.nodes))
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_radial(self):
        v1 = omega_alpha_density(P3, np.array([0.6, 0.8]))
        v2 = omega_alpha_density(P3, np.array([1.0, 0.0]))
        assert v1 == pytest.approx(v2, rel=1e-14)


class TestGreenFunction:
    def test_symmetry_and_translation(self):
        rng = np.random.default_rng(2)
        shift = np.array([4.0, 0.0])
        for _ in range(10):
            x = rng.uniform(-1, 1, 2)
            y = rng.uniform(-1, 1, 2)
            x[-1] = rng.uniform(0.1, 1.0)
            y[-1] = rng.uniform(-1.0, -0.1)
            g = green_function(P2, x, y)
            assert g == pytest.approx(green_function(P2, y, x), rel=1e-12)
            assert g == pytest.approx(green_function(P2, x + shift, y + shift),
                                      rel=1e-12)

    def test_opposite_sides_stay_finite_positive(self):
        # the radial argument drops below 1 across the plane; mirror points
        # reach exactly 0
        x = np.array([0.0, 1.0])
        y = np.array([0.0, -1.0])
        g = green_function(P2, x, y)
        kc = sphere.constants(P2)
        want = kc.a_d_alpha * 2.0 ** (P2.alpha - P2.d) \
            * (1.0 - kc.phi_at_origin)
        assert g == pytest.approx(want, rel=1e-13)

    def test_scaling(self):
        lam = 2.5
        x = np.array([0.3, 0.7])
        y = np.array([-0.4, -0.2])
        lhs = green_function(P2, lam * x, lam * y)
        rhs = lam ** (P2.alpha - P2.d) * green_function(P2, x, y)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("p", [P2, StableParams(2, 1.2), P3,
                                   StableParams(3, 1.8)])
    def test_kelvin_route(self, p):
        # both Green functions agree through the shifted inversion with the
        # squared per-argument constant
        rng = np.random.default_rng(3)
        e_d = basis_last(p.d)
        done = 0
        while done < 100:
            x = rng.uniform(-2, 2, p.d)
            y = rng.uniform(-2, 2, p.d)
            if abs(x[-1]) < 0.05 or abs(y[-1]) < 0.05:
                continue
            if np.linalg.norm(x - y) < 0.05 or np.linalg.norm(x + e_d) < 0.2 \
                    or np.linalg.norm(y + e_d) < 0.2:
                continue
            done += 1
            lhs = green_function(p, x, y)
            pref = 2.0 ** (p.d - p.alpha) \
                * np.linalg.norm(x + e_d) ** (p.alpha - p.d) \
                * np.linalg.norm(y + e_d) ** (p.alpha - p.d)
            rhs = pref * sphere.green_function(p, invert_t_tilde(x),
                                               invert_t_tilde(y))
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_far_points_do_not_overflow(self):
        # |x - y|^2 and 4 x_d y_d exceed the float range; delta = 8 is exact
        kc = sphere.constants(P2)
        want = kc.a_d_alpha * 1e200 ** (P2.alpha - P2.d) * (1.0 - sphere.phi(P2, 3.0))
        got = green_function(P2, [0.0, 1e200], [1.0, 2e200])
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(1.6891700470302208e-101, rel=1e-12)

    def test_near_coincident_points(self):
        # delta = 4 * 3.9^2 / 2.5e-307 overflows; 1 - Phi(1.56e154) is 1 to rounding
        want = sphere.constants(P2).a_d_alpha * 5e-154 ** (P2.alpha - P2.d)
        got = green_function(P2, [0.0, 3.9], [5e-154, 3.9])
        assert got == pytest.approx(want, rel=1e-12)

    def test_subnormal_squared_distance(self):
        # |x - y|^2 = 1e-320 is subnormal; the distance power once came out
        # 2.8e-6 off (3.32968862e79)
        with mpmath.workdps(30):
            want = float(sphere.constants(P2).a_d_alpha
                         * mpmath.mpf(1e-160) ** (P2.alpha - P2.d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = green_function(P2, [0.0, 1.0], [1e-160, 1.0])
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(3.32967936e79, rel=1e-8)
        # both points this near the plane as well: the Green function is
        # homogeneous of degree alpha - d, and 2^-530 scales exactly
        lam = 2.0 ** -530
        x, y = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        with mpmath.workdps(30):
            want = float(green_function(P2, x, y) * mpmath.mpf(lam) ** (P2.alpha - P2.d))
        assert green_function(P2, lam * x, lam * y) == pytest.approx(want, rel=1e-13)

    def test_errors(self):
        with pytest.raises(SingularityError):
            green_function(P2, [0.3, 0.7], [0.3, 0.7])
        with pytest.raises(DomainError):
            green_function(P2, [0.3, 0.0], [0.3, 0.7])


class TestMartinKernel:
    def test_normalization_at_basis(self):
        e2 = basis_last(2)
        for z in (np.array([0.0]), np.array([2.5]), np.array([-17.0])):
            assert martin_kernel(P2, e2, z) == pytest.approx(1.0, rel=1e-15)

    def test_infinity_branch(self):
        x = np.array([0.0, 0.0, 2.0])
        assert martin_kernel(P3, x, INFINITY) == pytest.approx(
            2.0 ** (P3.alpha - 1.0), rel=1e-15)

    def test_poisson_ratio_identity(self):
        rng = np.random.default_rng(4)
        e2 = basis_last(2)
        for _ in range(20):
            x = np.array([rng.uniform(-2, 2), rng.uniform(0.1, 2.0)])
            z = rng.uniform(-2, 2, 1)
            want = poisson_kernel(P2, x, z) / poisson_kernel(P2, e2, z)
            assert martin_kernel(P2, x, z) * poisson_kernel(P2, e2, z) == \
                pytest.approx(poisson_kernel(P2, x, z), rel=1e-12)
            assert martin_kernel(P2, x, z) == pytest.approx(want, rel=1e-12)

    def test_green_ratio_limit(self):
        x = np.array([0.5, 1.3])
        zb = np.array([-0.3])
        e2 = basis_last(2)
        target = martin_kernel(P2, x, zb)
        errs = []
        for k in range(2, 6):
            y = np.array([zb[0], 10.0 ** -k])
            ratio = green_function(P2, x, y) / green_function(P2, e2, y)
            errs.append(abs(ratio - target))
        assert errs[2] < 1e-2
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestInversions:
    def test_t_involution_and_infinity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-3, 3, 3)
            if np.linalg.norm(x) < 0.05:
                continue
            assert np.allclose(invert_t(invert_t(x)), x, rtol=1e-13, atol=1e-15)
        assert invert_t(np.zeros(2)) is INFINITY
        assert np.array_equal(invert_t(INFINITY, d=2), np.zeros(2))

    def test_t_tilde_involution_and_poles(self):
        rng = np.random.default_rng(6)
        e2 = basis_last(2)
        for _ in range(20):
            x = rng.uniform(-3, 3, 2)
            if np.linalg.norm(x + e2) < 0.1:
                continue
            assert np.allclose(invert_t_tilde(invert_t_tilde(x)), x,
                               rtol=1e-12, atol=1e-13)
        assert invert_t_tilde(-e2) is INFINITY
        assert np.allclose(invert_t_tilde(INFINITY, d=2), -e2)

    def test_distance_identity(self):
        rng = np.random.default_rng(7)
        e3 = basis_last(3)
        for _ in range(10):
            x = rng.uniform(-2, 2, 3)
            y = rng.uniform(-2, 2, 3)
            lhs = np.linalg.norm(invert_t_tilde(x) - invert_t_tilde(y))
            rhs = 2 * np.linalg.norm(x - y) / (
                np.linalg.norm(x + e3) * np.linalg.norm(y + e3))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_basis_maps_to_origin(self):
        assert np.array_equal(invert_t_tilde(basis_last(3)), np.zeros(3))

    def test_exchanges_sides(self):
        # upper halfspace maps inside the sphere, lower outside
        up = invert_t_tilde(np.array([0.7, 0.9]))
        down = invert_t_tilde(np.array([0.7, -0.9]))
        assert np.linalg.norm(up) < 1.0 < np.linalg.norm(down)


class TestKelvin:
    def test_k_alpha_involution(self):
        rng = np.random.default_rng(8)
        u = lambda z: float(z[0] * math.exp(-float(np.dot(z, z))))
        for _ in range(10):
            x = rng.uniform(0.2, 2.0, 2) * rng.choice([-1, 1], 2)
            twice = kelvin("K_ALPHA", P2, lambda z: kelvin("K_ALPHA", P2, u, z), x)
            assert twice == pytest.approx(u(x), rel=1e-12, abs=1e-14)

    def test_k_alpha_of_coordinate(self):
        # with u(x) = x1 in d = 2 the image is x1 |x|^(alpha-4)
        u = lambda z: float(z[0])
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            if np.linalg.norm(x) < 0.1:
                continue
            want = x[0] * np.linalg.norm(x) ** (P2.alpha - 4.0)
            assert kelvin("K_ALPHA", P2, u, x) == pytest.approx(want, rel=1e-13)

    def test_k_tilde_standard_is_involutive_green_is_not(self):
        u = lambda z: float(z[0] * math.exp(-float(np.dot(z, z))))
        x = np.array([0.7, -0.4])
        std = kelvin("K_TILDE_ALPHA", P2,
                     lambda z: kelvin("K_TILDE_ALPHA", P2, u, z), x)
        grn = kelvin("K_TILDE_ALPHA", P2,
                     lambda z: kelvin("K_TILDE_ALPHA", P2, u, z, scaling="green"),
                     x, scaling="green")
        assert std == pytest.approx(u(x), rel=1e-12)
        assert abs(grn - u(x)) > 1e-3 * abs(u(x))

    def test_k_tilde_image_is_harmonic(self):
        # push the flat-side profile |x_d|^(alpha-1) through the shifted
        # Kelvin map and check harmonicity on the sphere complement by the
        # principal-value quadrature
        from stablepot.analysis import fractional_laplacian
        e2 = basis_last(2)
        a = P2.alpha

        def image(pts):
            pts = np.atleast_2d(pts)
            shifted = pts + e2
            n2 = np.sum(shifted * shifted, axis=1)
            mapped_last = 2.0 * shifted[:, 1] / n2 - 1.0
            return (2.0 ** ((2.0 - a) / 2.0) * n2 ** ((a - 2.0) / 2.0)
                    * np.abs(mapped_last) ** (a - 1.0))

        # the image has an |.|^(alpha-1) crease on the unit circle itself,
        # which slows the angular rule; resolution is raised accordingly
        res = fractional_laplacian(P2, image, np.array([0.3, 0.2]),
                                   growth_exponent=0.0,
                                   n_angle=2048, n_radial=1024)
        assert abs(res.value) < 1e-3 * res.local_scale

    def test_pole_errors(self):
        u = lambda z: 1.0
        with pytest.raises(SingularityError):
            kelvin("K_ALPHA", P2, u, np.zeros(2))
        with pytest.raises(SingularityError):
            kelvin("K_TILDE_ALPHA", P2, u, -basis_last(2))
