"""Process parameters, point helpers and the symbolic point at infinity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "StableParams",
    "Infinity",
    "INFINITY",
    "as_point",
    "as_boundary_points",
    "norm",
    "require_finite",
    "require_unit",
    "far_scale",
    "near_scale",
    "scales",
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
        if int(self.d) != self.d or self.d < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.d}")
        if not (0.0 < self.alpha < 2.0):
            raise DomainError(f"alpha must lie in (0, 2), got {self.alpha}")

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
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise DomainError(f"expected a flat coordinate vector, got shape {p.shape}")
    if d is not None and p.shape[0] != d:
        raise DomainError(f"expected a point of R^{d}, got length {p.shape[0]}")
    require_finite(p, "point coordinates")
    return p


def as_boundary_points(ybar, d: int) -> np.ndarray:
    """Points of the hyperplane {x_d = 0} as an array of shape (..., d-1)."""
    y = np.asarray(ybar, dtype=float)
    if y.shape[-1] != d - 1:
        raise DomainError(f"boundary points of the hyperplane have length d-1={d-1}, "
                          f"got trailing length {y.shape[-1]}")
    return y


def norm(x) -> float:
    """Euclidean length, finite for every finite x (the squares never overflow)."""
    return math.hypot(*np.asarray(x, dtype=float))


def require_finite(x, what: str) -> None:
    """Raise DomainError unless every entry of x is finite (no NaN, no inf)."""
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} must be finite")


def require_unit(z, what: str) -> None:
    """Raise DomainError unless each vector along the last axis of z has length 1."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.abs(np.sqrt(np.sum(z * z, axis=-1)) - 1.0) <= 1e-9):
        raise DomainError(f"{what} must be unit vectors")


def far_scale(*points) -> float:
    """The power of four s with s <= m < 4 s, m the largest |coordinate|.

    s = 1 when m < 4.  Dividing by s is exact, and the scaled points'
    squared norms and distances stay inside the float range.
    """
    big = max(float(np.max(np.abs(x))) for x in points)
    return float(scales(max(big, 1.0)))


def near_scale(diff) -> float:
    """The power of four s with s <= m < 4 s, m the largest |coordinate| of diff.

    s = 1 unless 0 < m < 2^-510.  Dividing by s is exact, and the scaled
    difference has a squared length that is a normal float, which a
    difference this small does not have.
    """
    small = float(np.max(np.abs(diff)))
    return float(scales(min(small, 1.0)))


def scales(m) -> np.ndarray:
    """Elementwise power of four s with s <= m < 4 s for magnitudes m >= 4
    or 0 < m < 2^-510, and s = 1 for every other m >= 0.

    Dividing by s is exact.  Sums of squares of coordinates no larger
    than m, divided by s, then neither overflow nor lose their relative
    accuracy below the normal range.
    """
    m = np.asarray(m, dtype=float)
    s = np.ldexp(1.0, 2 * ((np.frexp(m)[1] - 1) // 2))
    return np.where((m >= 4.0) | ((m > 0.0) & (m < 2.0 ** -510)), s, 1.0)


def basis_last(d: int) -> np.ndarray:
    """The unit vector e_d along the last coordinate axis."""
    e = np.zeros(d)
    e[-1] = 1.0
    return e


def sphere_area(k: int) -> float:
    """Surface area of the unit sphere S^(k-1) of R^k."""
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)
