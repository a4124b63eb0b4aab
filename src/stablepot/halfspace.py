"""Kernels on the complement of the hyperplane, inversions and Kelvin maps.

The hyperplane {x_d = 0} is identified with R^(d-1); its complement is
written H.  The hitting distribution of the hyperplane has the density

    P_H(x, ybar) = C3 |x_d|^(alpha-1) / |x - (ybar, 0)|^(d+alpha-2)

with respect to (d-1)-dimensional Lebesgue measure, assembled from the
height and the foot point with |x - (ybar, 0)|^2 scaled by an exact power
of four (``core.scaled_dist2``); the batch evaluator in ``analysis`` uses
the same assembly.  The Martin kernel is the Poisson ratio
M(x, z) = P_H(x, z) / P_H(e_d, z), formed from the two scaled distances.
The Green function of H reuses the radial sphere machinery through

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

import math
from typing import Callable

import numpy as np

from .core import (INFINITY, Infinity, StableParams, as_point, as_points, basis_last,
                   far_scale, finite_value, scaled_dist2, sphere_area, _leggauss)
from .errors import DomainError, SingularityError
from . import sphere

__all__ = [
    "poisson_kernel",
    "polar_weights",
    "omega_alpha_density",
    "green_function",
    "martin_kernel",
    "invert_t",
    "invert_t_tilde",
    "kelvin",
]


def _poisson(p: StableParams, t, xbar, ybar):
    # C3 |t|^(alpha-1) / |(xbar - ybar, t)|^(d+alpha-2), broadcast, from the
    # distance over s^2 as core.scaled_dist2 forms it; the kernel is
    # homogeneous of degree 1 - d in s.  Past the float range the value is
    # inf (with the overflow flag raised), which callers check.
    dist2, s = scaled_dist2(t, xbar, ybar)
    out = dist2 ** (-(p.d + p.alpha - 2.0) / 2.0)
    out *= sphere.constants(p).c3 * abs(t / s) ** (p.alpha - 1.0)
    out *= s ** (1.0 - p.d)
    return out


_RADIAL_CORE_NODES = 100    # Gauss-Legendre nodes on 0 <= v <= _RADIAL_CORE_V
_RADIAL_TAIL_NODES = 60     # and on the tail beyond it
_RADIAL_CORE_V = 8.0


def polar_weights(p: StableParams) -> tuple[np.ndarray, np.ndarray]:
    """(v, w): with ybar = xbar + |t| sinh(v) omega, |omega| = 1, the Poisson
    integral of f at (xbar, t) is sum_j w_j times the mean of f over the
    ring at v_j, at every height t.

    w is c3 |S^(d-2)| tanh^(d-2)(v) cosh^(1-alpha)(v) dv: Gauss-Legendre on
    0 <= v <= 8, and in u = exp(-(alpha - 1)(v - 8)) on the tail, where it
    is smooth.
    """
    core_x, core_w = _leggauss(_RADIAL_CORE_NODES)
    tail_x, tail_w = _leggauss(_RADIAL_TAIL_NODES)
    a1 = p.alpha - 1.0
    u = (tail_x + 1.0) / 2.0
    half = _RADIAL_CORE_V / 2.0
    v = np.concatenate([(core_x + 1.0) * half, _RADIAL_CORE_V - np.log(u) / a1])
    dv = np.concatenate([core_w * half, tail_w / (2.0 * a1 * u)])
    log_cosh = v + np.log1p(np.exp(-2.0 * v)) - math.log(2.0)
    return v, (sphere.constants(p).c3 * sphere_area(p.d - 1) * np.tanh(v) ** (p.d - 2)
               * np.exp(-a1 * log_cosh) * dv)


def _martin(p: StableParams, t, xbar, z):
    # P(x, z) / P(e_d, z) = |t|^(alpha-1) (|e_d - (z, 0)|^2 / |x - (z, 0)|^2)^q,
    # broadcast, from the two scaled distances with rho = s0 / s their scale
    # ratio: the kernel values themselves underflow together once |z| passes
    # ~1e140 at d = 3.  Written as |t rho|^(alpha-1) (num2/den2)^q rho^(d-1),
    # since 2q = (d - 1) + (alpha - 1), no factor overflows on its own.
    q = (p.d + p.alpha - 2.0) / 2.0
    den2, s = scaled_dist2(t, xbar, z)
    num2, s0 = scaled_dist2(1.0, np.zeros(p.d - 1), z)
    rho = s0 / s
    return abs(t * rho) ** (p.alpha - 1.0) * (num2 / den2) ** q * rho ** (p.d - 1)


def _height(x: np.ndarray) -> float:
    if x[-1] == 0.0:
        raise DomainError("x must lie off the hyperplane")
    return x[-1]


def poisson_kernel(p: StableParams, x, ybar):
    """Density of the hyperplane hitting distribution started from x.

    Broadcasts over arrays of boundary points ybar (shape (..., d-1)).
    The distance |x - (ybar, 0)|^2 is scaled by an exact power of four
    (``core.scaled_dist2``), so far points and small heights neither
    overflow nor underflow on the way; a value beyond the float range
    raises DomainError.
    """
    x = as_point(x, p.d)
    t = _height(x)
    y = as_points(ybar, p.d - 1, "boundary points of the hyperplane")
    with np.errstate(over="ignore"):
        out = _poisson(p, t, x[:-1], y)
    return finite_value(out, "the hitting density")


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
    return sphere._green_of_ratio(p, 4.0 * float(xs[-1]), float(ys[-1]), 1.0, xs, ys, s)


def martin_kernel(p: StableParams, x, z):
    """Martin kernel of the hyperplane complement, normalized at e_d.

    z is a point of R^(d-1) or INFINITY; the infinity branch is
    |x_d|^(alpha-1).  For finite z it is the Poisson ratio
    P(x, z) / P(e_d, z), formed from the two scaled distances rather than
    from two kernel values, so it stays finite wherever the ratio does.
    Broadcasts over arrays of finite boundary points.
    """
    p.require_hitting_range()
    x = as_point(x, p.d)
    xd = _height(x)
    if isinstance(z, Infinity):
        return abs(xd) ** (p.alpha - 1.0)
    z = as_points(z, p.d - 1, "finite Martin boundary points")
    with np.errstate(over="ignore"):
        out = _martin(p, xd, x[:-1], z)
    return finite_value(out, "the Martin kernel")


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
    power = {"standard": 0.5, "green": 1.0}.get(scaling)    # kappa = 2^(power (d - alpha))
    if power is None:
        raise DomainError(f"unknown Kelvin scaling {scaling!r}; use 'standard' or 'green'")
    try:
        return 2.0 ** (power * (p.d - p.alpha))
    except OverflowError:
        raise DomainError(f"the {scaling} shifted-Kelvin constant leaves the float range "
                          f"at d={p.d}, alpha={p.alpha}") from None


def kelvin(which: str, p: StableParams, u: Callable, x, *,
           scaling: str = "standard") -> float:
    """Kelvin transforms of a function u evaluated at x.

    "K_ALPHA":        |x|^(alpha-d) u(x/|x|^2), singular at 0.
    "K_TILDE_ALPHA":  kappa |x+e_d|^(alpha-d) u(T~ x), singular at -e_d,
                      with kappa selected by ``scaling``:
                      "standard" = 2^((d-alpha)/2) (involutive),
                      "green"    = 2^(d-alpha) (the squared constant of
                      the two-argument Green relation).

    A weight kappa |x+e_d|^(alpha-d) or |x|^(alpha-d), or its product with
    u at the image, beyond the float range raises DomainError.
    """
    key = which.upper().replace("-", "_")
    if key not in ("K_ALPHA", "K_TILDE_ALPHA"):
        raise DomainError(f"unknown Kelvin transform {which!r}")
    x = as_point(x, p.d)
    tilde = key == "K_TILDE_ALPHA"
    e = basis_last(p.d)
    shifted = x + e if tilde else x
    n2 = float(np.dot(shifted, shifted))
    if n2 == 0.0:
        raise SingularityError("the shifted Kelvin transform has a pole at -e_d" if tilde
                               else "K_alpha has a pole at the origin")
    kappa = _tilde_prefactor(p, scaling) if tilde else 1.0
    try:
        weight = kappa * n2 ** ((p.alpha - p.d) / 2.0)
    except OverflowError:
        weight = math.inf
    image = 2.0 * shifted / n2 - e if tilde else x / n2
    return finite_value(finite_value(weight, f"the {key} weight") * float(u(image)),
                        f"the {key} value")
