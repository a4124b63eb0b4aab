"""Process parameters, point helpers and the symbolic point at infinity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "StableParams",
    "HalfspacePoint",
    "Infinity",
    "INFINITY",
    "as_point",
    "norm",
    "split_last",
    "join_last",
    "basis_last",
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
    if not np.all(np.isfinite(p)):
        raise DomainError("point coordinates must be finite")
    return p


def norm(x) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


def split_last(x) -> tuple[np.ndarray, float]:
    p = as_point(x)
    return p[:-1], float(p[-1])


def join_last(bar, last: float) -> np.ndarray:
    bar = np.atleast_1d(np.asarray(bar, dtype=float))
    return np.concatenate([bar, [float(last)]])


def basis_last(d: int) -> np.ndarray:
    """The unit vector e_d along the last coordinate axis."""
    e = np.zeros(d)
    e[-1] = 1.0
    return e


class HalfspacePoint(NamedTuple):
    """A point of R^d split as (bar, last) across the hyperplane {x_d = 0}."""

    bar: np.ndarray
    last: float

    @classmethod
    def from_point(cls, x) -> "HalfspacePoint":
        bar, last = split_last(x)
        return cls(bar, last)

    def to_point(self) -> np.ndarray:
        return join_last(self.bar, self.last)

    @property
    def in_complement(self) -> bool:
        return self.last != 0.0

    @property
    def d(self) -> int:
        return len(self.bar) + 1


def coerce_full_point(x, d: int) -> np.ndarray:
    """Accept either a d-vector or a HalfspacePoint and return the d-vector."""
    if isinstance(x, HalfspacePoint):
        x = x.to_point()
    return as_point(x, d)
