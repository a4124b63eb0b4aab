"""Process parameters, point helpers and the symbolic point at infinity."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "StableParams",
    "Infinity",
    "INFINITY",
    "as_point",
    "as_points",
    "norm",
    "require_finite",
    "as_number",
    "finite_value",
    "require_unit",
    "far_scale",
    "scales",
    "scaled_dist2",
    "basis_last",
    "sphere_area",
]


@dataclass(frozen=True)
class StableParams:
    """Dimension d >= 2 and stability index alpha of the driving process.

    alpha may range over (0, 2) here; the sphere/hyperplane kernels that
    require alpha in (1, 2) (all of them except the ball Poisson kernel)
    enforce the narrower range themselves.
    """

    d: int
    alpha: float

    def __post_init__(self):
        d, alpha = as_number(self.d, "dimension"), as_number(self.alpha, "alpha")
        if not (d.is_integer() and d >= 2):
            raise DomainError(f"dimension must be an integer >= 2, got {self.d}")
        if not (0.0 < alpha < 2.0):
            raise DomainError(f"alpha must lie in (0, 2), got {self.alpha}")
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "alpha", alpha)

    def require_hitting_range(self) -> None:
        """Raise unless alpha in (1, 2), the range where the surfaces are non-polar."""
        if not (1.0 < self.alpha < 2.0):
            raise DomainError(
                f"alpha={self.alpha} is outside (1, 2); the sphere and hyperplane "
                "are polar for the process and the kernel is undefined")


class Infinity:
    """Symbolic point at infinity of the Martin boundary (never an IEEE inf)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = Infinity()


def as_point(x, d: int | None = None) -> np.ndarray:
    """Coerce to a finite float vector, optionally checking its length."""
    if isinstance(x, Infinity):
        raise DomainError("expected a finite point, got INFINITY")
    p = _float_array(x, "point coordinates")
    if p.ndim != 1:
        raise DomainError(f"expected a flat coordinate vector, got shape {p.shape}")
    if d is not None and p.shape[0] != d:
        raise DomainError(f"expected a point of R^{d}, got length {p.shape[0]}")
    require_finite(p, "point coordinates")
    return p


def as_points(x, n: int, what: str) -> np.ndarray:
    """Coerce to an array of finite points of R^n along its last axis.

    INFINITY, a trailing length other than n and NaN or inf coordinates
    raise DomainError.
    """
    if isinstance(x, Infinity):
        raise DomainError(f"{what} must be finite, got INFINITY")
    y = _float_array(x, what)
    if y.ndim == 0 or y.shape[-1] != n:
        raise DomainError(f"{what} must have length {n}, got shape {y.shape}")
    require_finite(y, what)
    return y


def _float_array(x, what: str) -> np.ndarray:
    """x as a float array, or DomainError where it is ragged or holds text."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be an array of real numbers, got {x!r}") from None


def norm(x) -> float:
    """Euclidean length, finite for every finite x (the squares never overflow)."""
    return math.hypot(*np.asarray(x, dtype=float))


def require_finite(x, what: str) -> None:
    """Raise DomainError unless every entry of x is finite (no NaN, no inf)."""
    if not np.isfinite(x).all():
        raise DomainError(f"{what} must be finite")


def as_number(value, what: str) -> float:
    """value as a float, or DomainError unless it is one real number (a 0-d
    array included; text and None are not); its range is the caller's to check."""
    if value is None or isinstance(value, (str, bytes)):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a real number, got {value!r}") from None
    if v.ndim:
        raise DomainError(f"{what} must be a single number, got shape {v.shape}")
    return float(v)


def finite_value(out, what: str):
    """out (as a float when 0-d), or DomainError where a value overflowed to inf."""
    if isinstance(out, np.ndarray) and out.ndim:
        finite = np.isfinite(out).all()
    else:
        out = float(out)
        finite = math.isfinite(out)
    if not finite:
        raise DomainError(f"{what} is beyond the float range here")
    return out


def require_unit(z, what: str) -> None:
    """Raise DomainError unless each vector along the last axis of z has length 1."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):      # a square past the float range is no unit
        unit = np.all(np.abs(np.sqrt(np.sum(z * z, axis=-1)) - 1.0) <= 1e-9)
    if not unit:
        raise DomainError(f"{what} must be unit vectors")


def far_scale(*points) -> float:
    """The power of four s with s <= m < 4 s, m the largest |coordinate|.

    s = 1 when m < 4.  Dividing by s is exact, and the scaled points'
    squared norms and distances stay inside the float range.
    """
    big = max(float(np.max(np.abs(x))) for x in points)
    return float(scales(max(big, 1.0)))


def scales(m) -> np.ndarray:
    """Elementwise power of four s with s <= m < 4 s, for magnitudes m > 0.

    Dividing by s is exact.  A sum of n squares of magnitudes no larger
    than m, divided by s^2, lies in [1, 16 n) when m is among them, so
    neither it nor its powers leave the normal float range.  (m = 0 gives
    s = 1/4.)
    """
    return np.ldexp(1.0, 2 * ((np.frexp(m)[1] - 1) >> 1))


def scaled_dist2(h, a, b, r=1.0):
    """(h^2 + r |a - b|^2) / s^2 and s = scales(m), broadcast over leading axes.

    a and b are float arrays of points along their last axis and m is the
    largest of |h| and the |a_j - b_j|, so the sum neither overflows nor
    goes subnormal however near or far the points are.  Every kernel
    squared distance is formed here: on the sphere with h = r - 1 and unit
    a, b (|r a - b|^2 = (r - 1)^2 + r |a - b|^2), on the hyperplane with h
    the height.  The sum runs coordinate by coordinate, so no difference
    array with a trailing coordinate axis is built.
    """
    diffs = [a[..., j] - b[..., j] for j in range(a.shape[-1])]
    m = abs(h)
    for dj in diffs:
        m = np.maximum(m, abs(dj))
    s = scales(m)
    return (h / s) ** 2 + r * sum((dj / s) ** 2 for dj in diffs), s


def basis_last(d: int) -> np.ndarray:
    """The unit vector e_d along the last coordinate axis."""
    e = np.zeros(d)
    e[-1] = 1.0
    return e


def sphere_area(k: int) -> float:
    """Surface area of the unit sphere S^(k-1) of R^k.

    Formed directly while Gamma(k/2) is a float, in log space beyond; the
    area leaves the normal float range from k = 439 on, where DomainError
    is raised rather than a silent 0.0.
    """
    if k < 344:
        return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)
    log = math.log(2.0) + k / 2.0 * math.log(math.pi) - math.lgamma(k / 2.0)
    if log < math.log(sys.float_info.min):
        raise DomainError(f"the area of S^{k - 1} is about 1e{log / math.log(10.0):.0f}, "
                          "below the float range")
    return math.exp(log)


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only:
    # Newton's method on the three-term recurrence from Tricomi's estimates of
    # the nonnegative roots, in O(n) memory (numpy's companion matrix takes
    # 288 MB at n = 6000) and ~1e-16 in the moments; the pass after a step
    # below 1e-12 (converged, quadratically) only evaluates P_n' there
    x = np.cos(math.pi * (np.arange((n + 1) // 2) + 0.75) / (n + 0.5))
    step = 1.0
    while True:
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        if step <= 1e-12:
            break
        step = np.max(np.abs(p1 / dp))
        x -= p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x[n // 2:] = 0.0                                  # the middle root of odd n
    x, w = np.concatenate([-x, x[:n // 2][::-1]]), np.concatenate([w, w[:n // 2][::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
