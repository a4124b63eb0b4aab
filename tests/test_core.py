import copy
import dataclasses
import importlib
import math
import pickle
import pkgutil
import warnings

import mpmath
import numpy as np
import pytest

import stablepot
from stablepot import halfspace, sphere
from stablepot.core import StableParams, _leggauss, as_point, as_points, sphere_area
from stablepot.errors import DomainError
from stablepot.relativistic import RelativisticParams, hitting_probability_sphere

P2 = StableParams(2, 1.5)


class TestParameterObjects:
    @pytest.mark.parametrize("make", [
        # each once raised numpy's "truth value ... ambiguous" or a TypeError
        lambda: StableParams(2, np.array([1.5, 1.6])),
        lambda: StableParams(np.array([2, 3]), 1.5),
        lambda: StableParams(2, "1.5"),
        lambda: StableParams(None, 1.5),
        lambda: StableParams(math.nan, 1.5),
        lambda: StableParams(math.inf, 1.5),
        lambda: StableParams(2.5, 1.5),
        lambda: StableParams(2, 1.5 + 0.5j),
        lambda: RelativisticParams(P2, np.array([1.0, 2.0])),
        lambda: RelativisticParams(P2, "1", 0.0),
        lambda: RelativisticParams(P2, 1.0, np.array([0.1, 0.2])),
        lambda: RelativisticParams(P2, 1.0, None),
        lambda: RelativisticParams(P2, math.nan),
        lambda: RelativisticParams(P2, 1.0, math.nan),
    ])
    def test_inputs_that_are_no_parameter_raise_domain_error(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                make()

    def test_the_checked_numbers_are_stored(self):
        p = StableParams(np.int64(3), np.array(1.25))
        assert (type(p.d), type(p.alpha), p) == (int, float, StableParams(3, 1.25))
        rp = RelativisticParams(p, np.float64(2.0), np.array(0.5))
        assert (type(rp.m), type(rp.lam), rp.m, rp.lam) == (float, float, 2.0, 0.5)

    def test_hash_is_the_dataclass_hash_and_survives_copies(self):
        p = StableParams(np.int64(3), np.array(1.25))
        assert hash(p) == hash(StableParams(3, 1.25)) == hash((3, 1.25))
        assert {p: 1}[StableParams(3.0, 1.25)] == 1
        assert hash(StableParams(3, 1.5)) != hash(p)
        for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p),
                  dataclasses.replace(p)):
            assert q == p and hash(q) == hash(p)
        assert repr(p) == "StableParams(d=3, alpha=1.25)"
        assert [f.name for f in dataclasses.fields(p)] == ["d", "alpha"]


RAGGED, TEXT = [[1.0], [1.0, 2.0]], [1.0, "a"]


@pytest.mark.parametrize("call", [
    # each once let numpy's ValueError escape ("inhomogeneous shape",
    # "could not convert string to float")
    lambda x: as_point(x, 2),
    lambda x: as_points(x, 2, "points"),
    lambda x: sphere.hitting_probability(P2, x),
    lambda x: sphere.poisson_kernel(P2, x, [0.0, 1.0]),
    lambda x: halfspace.poisson_kernel(P2, [0.0, 1.0], x),
    lambda x: hitting_probability_sphere(RelativisticParams(P2, 1.0), 1.0, x),
])
@pytest.mark.parametrize("x", [RAGGED, TEXT], ids=["ragged", "text"])
def test_coordinates_that_are_no_numbers_raise_domain_error(call, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="real numbers"):
            call(x)


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
