import importlib
import math
import pkgutil

import mpmath
import numpy as np
import pytest

import stablepot
from stablepot.core import _leggauss, sphere_area
from stablepot.errors import DomainError


class TestSphereArea:
    def test_small_dimensions(self):
        assert sphere_area(2) == 2.0 * math.pi
        assert sphere_area(3) == 4.0 * math.pi

    def test_past_the_gamma_overflow(self):
        # Gamma(k/2) overflows from k = 344 on and once escaped as a raw
        # OverflowError; the log form loses about |log area| ulp: 5.6e-14
        # at k = 399, 1.3e-13 at k = 438, the last k in the float range
        for k in (343, 344, 399, 438):
            with mpmath.workdps(40):
                want = float(2 * mpmath.pi ** (mpmath.mpf(k) / 2) / mpmath.gamma(mpmath.mpf(k) / 2))
            assert sphere_area(k) == pytest.approx(want, rel=2e-13, abs=0), k

    @pytest.mark.parametrize("k", [439, 1000, 10**6])
    def test_underflow_is_refused(self, k):
        # below the normal float range the area is refused, not a silent 0.0
        with pytest.raises(DomainError, match="below the float range"):
            sphere_area(k)


class TestLegendreGauss:
    @pytest.mark.parametrize("n", [1, 2, 7, 120, 6000])
    def test_moments_and_symmetry(self, n):
        # exact for polynomials of degree < 2n; the recurrence keeps O(n)
        # memory where a companion matrix of order 6000 would take 288 MB
        x, w = _leggauss(n)
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for k in range(0, min(2 * n, 12), 2):
            assert abs(np.dot(w, x ** k) - 2.0 / (k + 1)) <= 2e-15, (n, k)

    def test_against_mpmath(self):
        # nodes within an ulp, weights within 1e-12 (4e-13 measured, at the
        # smallest weights next to +-1; the companion-matrix rule of
        # numpy.polynomial.legendre.leggauss is off by 1.1e-11 there)
        n = 120
        x, w = _leggauss(n)
        with mpmath.workdps(40):
            for xi, wi in zip(x, w):
                t = mpmath.mpf(xi)
                for _ in range(3):
                    p0, p1 = mpmath.mpf(1), t
                    for j in range(2, n + 1):
                        p0, p1 = p1, ((2 * j - 1) * t * p1 - (j - 1) * p0) / j
                    dp = n * (t * p1 - p0) / (t * t - 1)
                    t -= p1 / dp
                assert abs(xi - t) <= 2.3e-16
                assert abs(wi - 2 / ((1 - t * t) * dp * dp)) <= 1e-12 * wi


@pytest.mark.parametrize("module", ["stablepot"] + [
    f"stablepot.{m.name}" for m in pkgutil.iter_modules(stablepot.__path__)])
def test_every_exported_name_resolves(module):
    # a retired name must leave __all__ with its definition
    mod = importlib.import_module(module)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
