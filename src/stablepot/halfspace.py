"""Kernels on the complement of the hyperplane, inversions and Kelvin maps.

The hyperplane {x_d = 0} is identified with R^(d-1); its complement is
written H.  The hitting distribution of the hyperplane has the density

    P_H(x, ybar) = C3 |x_d|^(alpha-1) / |x - (ybar, 0)|^(d+alpha-2)

with respect to (d-1)-dimensional Lebesgue measure, and the Green
function of H reuses the radial sphere machinery through

    G_H(x, y) = A_(d,alpha) |x-y|^(alpha-d)
                [1 - phi(sqrt(1 + 4 x_d y_d / |x-y|^2))].

The inversion T x = x / |x|^2 and the shifted inversion
T~ x = 2 T(x + e_d) - e_d exchange the sphere complement with H; the
associated Kelvin transforms carry alpha-harmonic functions back and
forth.  The constant in front of the shifted Kelvin transform is exposed
with two named scalings (see ``kelvin``): "standard" 2^((d-alpha)/2),
which is involutive and is the per-argument weight, and "green", the
squared constant 2^(d-alpha) that appears when both arguments of a Green
function are transformed at once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (INFINITY, Infinity, StableParams, as_boundary_points, as_point,
                   basis_last, far_scale)
from .errors import DomainError, SingularityError
from . import sphere

__all__ = [
    "poisson_kernel",
    "poisson_kernel_dist2",
    "omega_alpha_density",
    "green_function",
    "martin_kernel",
    "invert_t",
    "invert_t_tilde",
    "kelvin",
]


def poisson_kernel_dist2(p: StableParams, xd, dist2):
    """Hitting density from the height x_d and dist2 = |x - (ybar, 0)|^2.

    Broadcasts over arrays.
    """
    out = np.power(dist2, -(p.d + p.alpha - 2.0) / 2.0)
    return sphere._scaled(out, sphere.constants(p).c3 * np.abs(xd) ** (p.alpha - 1.0))


def poisson_kernel(p: StableParams, x, ybar):
    """Density of the hyperplane hitting distribution started from x.

    Broadcasts over arrays of boundary points ybar (shape (..., d-1)).
    """
    x = as_point(x, p.d)
    xd = x[-1]
    if xd == 0.0:
        raise DomainError("x must lie off the hyperplane")
    y = as_boundary_points(ybar, p.d)
    diff = x[:-1] - y
    dist2 = np.sum(diff * diff, axis=-1) + xd * xd
    out = poisson_kernel_dist2(p, xd, dist2)
    return out if np.ndim(out) else float(out)


def omega_alpha_density(p: StableParams, xbar):
    """Density of the reference harmonic measure on the hyperplane.

    This is the hitting density seen from e_d; it integrates to 1.
    """
    return poisson_kernel(p, basis_last(p.d), xbar)


def green_function(p: StableParams, x, y) -> float:
    """Green function of the hyperplane complement at x != y off the plane.

    The hitting-probability argument enters through
    delta = 4 x_d y_d / |x-y|^2, which is >= -1 always, positive when the
    points share a side and negative across the plane.  Far points are
    scaled, and an overflowing delta handled, as in the sphere Green
    function; so are nearly coincident points.
    """
    x = as_point(x, p.d)
    y = as_point(y, p.d)
    if x[-1] == 0.0 or y[-1] == 0.0:
        raise DomainError("green_function requires both points off the hyperplane")
    s = far_scale(x, y)
    xs, ys = x / s, y / s
    return sphere._green_of_ratio(p, 4.0 * float(xs[-1]), float(ys[-1]), xs - ys, s)


def martin_kernel(p: StableParams, x, z):
    """Martin kernel of the hyperplane complement, normalized at e_d.

    z is a point of R^(d-1) or INFINITY; the infinity branch is
    |x_d|^(alpha-1).  Broadcasts over arrays of finite boundary points.
    """
    p.require_hitting_range()
    x = as_point(x, p.d)
    xd = x[-1]
    if xd == 0.0:
        raise DomainError("martin_kernel requires x off the hyperplane")
    if isinstance(z, Infinity):
        return abs(xd) ** (p.alpha - 1.0)
    z = as_boundary_points(z, p.d)
    q = (p.d + p.alpha - 2.0) / 2.0
    num2 = np.sum(z * z, axis=-1) + 1.0          # |e_d - (z, 0)|^2
    den2 = np.sum((x[:-1] - z) ** 2, axis=-1) + xd * xd
    if np.any(den2 == 0.0):
        raise SingularityError("martin_kernel is singular at x = (z, 0)")
    out = abs(xd) ** (p.alpha - 1.0) * (num2 / den2) ** q
    return out if np.ndim(out) else float(out)


# --- inversions -----------------------------------------------------------

def invert_t(x, d: int | None = None):
    """Inversion x -> x/|x|^2 through the unit sphere, with 0 <-> INFINITY.

    An involution; x may be INFINITY, in which case the ambient
    dimension d must be supplied.
    """
    if isinstance(x, Infinity):
        if d is None:
            raise DomainError("inverting INFINITY needs the ambient dimension")
        return np.zeros(d)
    x = as_point(x)
    n2 = float(np.dot(x, x))
    if n2 == 0.0:
        return INFINITY
    return x / n2


def invert_t_tilde(x, d: int | None = None):
    """Shifted inversion x -> 2T(x + e_d) - e_d, with -e_d <-> INFINITY.

    An involution exchanging the sphere complement and the hyperplane one.
    """
    if isinstance(x, Infinity):
        return 2.0 * invert_t(x, d) - basis_last(d)
    x = as_point(x)
    e = basis_last(len(x))
    t = invert_t(x + e)
    return t if isinstance(t, Infinity) else 2.0 * t - e


# --- Kelvin transforms ----------------------------------------------------

def _tilde_prefactor(p: StableParams, scaling: str) -> float:
    if scaling == "standard":
        return 2.0 ** ((p.d - p.alpha) / 2.0)
    if scaling == "green":
        return 2.0 ** (p.d - p.alpha)
    raise DomainError(f"unknown Kelvin scaling {scaling!r}; use 'standard' or 'green'")


def kelvin(which: str, p: StableParams, u: Callable, x, *,
           scaling: str = "standard") -> float:
    """Kelvin transforms of a function u evaluated at x.

    "K_ALPHA":        |x|^(alpha-d) u(x/|x|^2), singular at 0.
    "K_TILDE_ALPHA":  kappa |x+e_d|^(alpha-d) u(T~ x), singular at -e_d,
                      with kappa selected by ``scaling``:
                      "standard" = 2^((d-alpha)/2) (involutive),
                      "green"    = 2^(d-alpha) (the squared constant of
                      the two-argument Green relation).
    """
    key = which.upper().replace("-", "_")
    x = as_point(x, p.d)
    if key == "K_ALPHA":
        n2 = float(np.dot(x, x))
        if n2 == 0.0:
            raise SingularityError("K_alpha has a pole at the origin")
        return n2 ** ((p.alpha - p.d) / 2.0) * float(u(x / n2))
    if key == "K_TILDE_ALPHA":
        e = basis_last(p.d)
        shifted = x + e
        n2 = float(np.dot(shifted, shifted))
        if n2 == 0.0:
            raise SingularityError("the shifted Kelvin transform has a pole at -e_d")
        kappa = _tilde_prefactor(p, scaling)
        return kappa * n2 ** ((p.alpha - p.d) / 2.0) * float(u(2.0 * shifted / n2 - e))
    raise DomainError(f"unknown Kelvin transform {which!r}")
