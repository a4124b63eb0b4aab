"""Closed-form kernels relative to the unit sphere and its complement.

The complement of the unit sphere is written D below (both components,
inside and outside).  Provided here: the hitting probability of the
sphere and its radial profile phi, the Poisson kernel of D with respect
to normalized surface measure, the Green function and Martin kernel of
D, and the Poisson kernel of an arbitrary ball.

The hitting probability is evaluated along two routes.  Away from the
sphere, the Legendre-function formula

    Phi(x) = C2 ||x|^2 - 1|^(alpha/2 - 1) |x|^(1 - d/2)
             P^(1-d/2)_(-alpha/2)((|x|^2 + 1) / ||x|^2 - 1|)

is used directly.  Within a band ||x| - 1| < 1e-3 the hypergeometric
expansion of the Legendre function is rearranged into a cancellation-free
series for 1 - Phi whose leading term is |c| ||x|^2-1|^(alpha-1); the two
routes agree to ~1e-13 on the overlap band.  All radial internals work
with the signed quantity delta = |x|^2 - 1, which callers such as the
Green functions can supply exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import StableParams, Infinity, as_point, norm, require_unit, far_scale
from .errors import DomainError, SingularityError
from .specfun import gauss_2f1, gauss_2f1_tail

__all__ = [
    "KernelConstants",
    "constants",
    "phi",
    "phi_complement",
    "phi_complement_delta",
    "hitting_probability",
    "poisson_kernel",
    "poisson_kernel_dist2",
    "green_function",
    "martin_kernel",
    "ball_poisson_kernel",
]

NEAR_SPHERE_BAND = 1e-3  # |r - 1| below this switches Phi to the 1-Phi series


@dataclass(frozen=True)
class KernelConstants:
    """The positive constants entering the closed-form kernels.

    a_d_alpha      Riesz constant of order alpha
    a_d_neg_alpha  constant of the pointwise fractional Laplacian
    c1             ball Poisson kernel constant
    c2             hitting probability constant
    c3             hyperplane Poisson kernel constant
    series_c       (negative) coefficient of ||x|^2-1|^(alpha-1) in 1 - Phi
    phi_at_origin  Phi(0) = c2 / Gamma(d/2)
    """

    a_d_alpha: float
    a_d_neg_alpha: float
    c1: float
    c2: float
    c3: float
    series_c: float
    phi_at_origin: float


def _riesz_constant(d: int, gamma: float) -> float:
    # Gamma((d - g)/2) / (2^g pi^(d/2) |Gamma(g/2)|)
    num = math.gamma((d - gamma) / 2.0)
    den = 2.0 ** gamma * math.pi ** (d / 2.0) * abs(_gamma_real(gamma / 2.0))
    return num / den


def _gamma_real(x: float) -> float:
    if x > 0.0:
        return math.gamma(x)
    return math.pi / (math.sin(math.pi * x) * math.gamma(1.0 - x))


@lru_cache(maxsize=None)
def constants(p: StableParams) -> KernelConstants:
    """All kernel constants for the given parameters (alpha in (1, 2))."""
    p.require_hitting_range()
    d, a = p.d, p.alpha
    c2 = math.sqrt(math.pi) * 2.0 ** (2.0 - a) * math.gamma((a + d) / 2.0 - 1.0) / \
        math.gamma((a - 1.0) / 2.0)
    c3 = math.pi ** ((1.0 - d) / 2.0) * math.gamma((a + d) / 2.0 - 1.0) / \
        math.gamma((a - 1.0) / 2.0)
    series_c = c2 * _gamma_real(1.0 - a) / (math.gamma(1.0 - a / 2.0)
                                            * math.gamma((d - a) / 2.0))
    return KernelConstants(
        a_d_alpha=_riesz_constant(d, a),
        a_d_neg_alpha=_riesz_constant(d, -a),
        c1=ball_constant(p),
        c2=c2,
        c3=c3,
        series_c=series_c,
        phi_at_origin=c2 / math.gamma(d / 2.0),
    )


def ball_constant(p: StableParams) -> float:
    """C1 of the ball Poisson kernel; valid for all alpha in (0, 2)."""
    return math.gamma(p.d / 2.0) * math.pi ** (-1.0 - p.d / 2.0) * \
        math.sin(math.pi * p.alpha / 2.0)


# --- radial hitting probability ------------------------------------------

_GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0


def _phi_direct_delta(p: StableParams, delta: float) -> float:
    # Legendre-function route, written directly in delta = r^2 - 1.  The
    # Legendre argument is t = (2 + delta)/|delta|; for t >= sqrt(5)
    # (|x| within golden-ratio distance of the sphere) the two-term
    # expansion collapses to the reduced forms below, otherwise the
    # complementary expansion around t = 1 takes over.  Both are exact
    # functions of delta, so nothing is lost at extreme radii.
    kc = constants(p)
    d, a = p.d, p.alpha
    if delta == -1.0:  # r = 0
        return kc.phi_at_origin
    if -1.0 / _GOLDEN <= delta <= _GOLDEN:
        if delta > 0.0:
            s = delta / (1.0 + delta)
            log1p = math.log1p(delta)
            f1_part = math.exp(0.5 * (a - d) * log1p) * \
                gauss_2f1(1.0 - a / 2.0, (d - a) / 2.0, 2.0 - a, s)
            f2_part = kc.series_c * delta ** (a - 1.0) * \
                math.exp(0.5 * (2.0 - d - a) * log1p) * \
                gauss_2f1(a / 2.0, (a + d) / 2.0 - 1.0, a, s)
            return f1_part + f2_part
        s = -delta
        return gauss_2f1(1.0 - a / 2.0, (d - a) / 2.0, 2.0 - a, s) + \
            kc.series_c * s ** (a - 1.0) * \
            gauss_2f1(a / 2.0, (a + d) / 2.0 - 1.0, a, s)
    # expansion around t = 1: the prefactor ((t+1)/(t-1))^((1-d/2)/2)
    # combines with |delta|^(a/2-1) r^(1-d/2) into plain delta powers
    if delta < 0.0:
        arg = (1.0 + delta) / delta            # -r^2/(1 - r^2), in (-1, 0)
        return kc.phi_at_origin * (-delta) ** (a / 2.0 - 1.0) * \
            gauss_2f1(a / 2.0, 1.0 - a / 2.0, d / 2.0, arg)
    arg = -1.0 / delta
    return kc.phi_at_origin * delta ** (a / 2.0 - 1.0) * \
        (1.0 + delta) ** ((2.0 - d) / 2.0) * \
        gauss_2f1(a / 2.0, 1.0 - a / 2.0, d / 2.0, arg)


def phi_complement_delta(p: StableParams, delta: float) -> float:
    """1 - phi(sqrt(1 + delta)) with delta = r^2 - 1 supplied exactly.

    Inside the near-sphere band the cancellation-free rearrangement of
    the Legendre expansion is used:

      outside (delta > 0), with s = delta/(1+delta), v^2 = 1+delta:
        1 - Phi = (1 - v^(alpha-d)) - v^(alpha-d) (F1(s) - 1)
                  + |c| delta^(alpha-1) v^(2-d-alpha) F2(s)
      inside (delta < 0), with s = -delta:
        1 - Phi = -(F1(s) - 1) + |c| s^(alpha-1) F2(s)

    where F1 = F(1-alpha/2, (d-alpha)/2; 2-alpha; .),
          F2 = F(alpha/2, (d+alpha)/2-1; alpha; .) and c = series_c < 0.
    """
    p.require_hitting_range()
    if not -1.0 <= delta < math.inf:
        raise DomainError(f"delta = r^2 - 1 must be finite and >= -1, got {delta}")
    if delta == 0.0:
        return 0.0
    r = math.sqrt(1.0 + delta)
    if abs(r - 1.0) >= NEAR_SPHERE_BAND:
        return 1.0 - _phi_direct_delta(p, delta)
    kc = constants(p)
    d, a = p.d, p.alpha
    if delta > 0.0:
        s = delta / (1.0 + delta)
        log1p = math.log1p(delta)
        v_ad = math.exp(0.5 * (a - d) * log1p)
        v_2da = math.exp(0.5 * (2.0 - d - a) * log1p)
        lead = -math.expm1(0.5 * (a - d) * log1p)
        tail1 = -v_ad * gauss_2f1_tail(1.0 - a / 2.0, (d - a) / 2.0, 2.0 - a, s)
        tail2 = -kc.series_c * delta ** (a - 1.0) * v_2da * \
            gauss_2f1(a / 2.0, (a + d) / 2.0 - 1.0, a, s)
        return lead + tail1 + tail2
    s = -delta
    tail1 = -gauss_2f1_tail(1.0 - a / 2.0, (d - a) / 2.0, 2.0 - a, s)
    tail2 = -kc.series_c * s ** (a - 1.0) * \
        gauss_2f1(a / 2.0, (a + d) / 2.0 - 1.0, a, s)
    return tail1 + tail2


def phi(p: StableParams, r: float) -> float:
    """Radial hitting probability phi(r) of the unit sphere, r >= 0.

    Returns exactly 1 on the sphere itself (the process started on the
    sphere hits it immediately).
    """
    p.require_hitting_range()
    if not r >= 0.0:
        raise DomainError(f"radius must be nonnegative, got {r}")
    if r == 1.0:
        return 1.0
    delta = (r - 1.0) * (r + 1.0)
    if math.isinf(delta):
        # r beyond sqrt(DBL_MAX): the 2F1 factor is exactly 1 there
        return constants(p).phi_at_origin * r ** (p.alpha - p.d)
    if abs(r - 1.0) < NEAR_SPHERE_BAND:
        return 1.0 - phi_complement_delta(p, delta)
    return _phi_direct_delta(p, delta)


def phi_complement(p: StableParams, r: float) -> float:
    """1 - phi(r), cancellation-free near the sphere."""
    if r < 0.0:
        raise DomainError(f"radius must be nonnegative, got {r}")
    delta = (r - 1.0) * (r + 1.0)
    if math.isinf(delta):
        return 1.0 - phi(p, r)
    return phi_complement_delta(p, delta)


def hitting_probability(p: StableParams, x) -> float:
    """Probability that the process started at x ever hits the unit sphere."""
    x = as_point(x, p.d)
    return phi(p, norm(x))


# --- kernels --------------------------------------------------------------

def _delta_of(x: np.ndarray) -> np.ndarray:
    # |x|^2 - 1 along the last axis
    return np.sum(x * x, axis=-1) - 1.0


def poisson_kernel_dist2(p: StableParams, delta, dist2):
    """Poisson kernel from delta = |x|^2 - 1 and dist2 = |x - z|^2.

    For callers that know both quantities more exactly than the point's
    coordinates would give them.  Broadcasts over arrays.
    """
    return (constants(p).phi_at_origin * np.abs(delta) ** (p.alpha - 1.0)
            / dist2 ** ((p.d + p.alpha - 2.0) / 2.0))


def poisson_kernel(p: StableParams, x, z):
    """Poisson kernel of the sphere complement w.r.t. normalized surface measure.

    x is a point (or broadcastable array of points) off the sphere, z a
    unit vector (or array of unit vectors).  Broadcasts over leading axes.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    require_unit(z, "boundary arguments of the sphere Poisson kernel")
    delta = _delta_of(x)
    if np.any(delta == 0.0):
        raise DomainError("x must lie off the unit sphere")
    diff = x - z
    dist2 = np.sum(diff * diff, axis=-1)
    if np.any(dist2 == 0.0):
        raise SingularityError("sphere Poisson kernel is singular at x = z")
    out = poisson_kernel_dist2(p, delta, dist2)
    return out if out.ndim else float(out)


def _complement_of_ratio(p: StableParams, a: float, b: float, c: float) -> float:
    # phi_complement_delta at delta = a b / c; where delta overflows (a b > 0),
    # 1 - Phi is taken at sqrt(1 + delta), formed from square roots
    delta = a * b / c
    if math.isinf(delta):
        return phi_complement(p, math.sqrt(abs(a)) * math.sqrt(abs(b)) / math.sqrt(c))
    return phi_complement_delta(p, delta)


def green_function(p: StableParams, x, y) -> float:
    """Green function of the sphere complement at points x != y off the sphere.

    The hitting-probability argument reduces to the radius with
    delta_w = (1 - |x|^2)(1 - |y|^2) / |x - y|^2, which is fed straight
    into the cancellation-free complement series.  Far points are scaled
    by a power of four s near their largest coordinate, which is exact:
    delta_w is formed as (dx/s)(dy/s)/(dist2/s^2), so nothing overflows on
    the way.  Where delta_w itself exceeds the float range, 1 - Phi is
    taken at r_w = sqrt(|dx/s|) sqrt(|dy/s|) / sqrt(dist2/s^2) instead.
    """
    kc = constants(p)
    x = as_point(x, p.d)
    y = as_point(y, p.d)
    s = far_scale(x, y)
    dx = float(np.sum(x / s * x)) - 1.0 / s   # (|x|^2 - 1)/s
    dy = float(np.sum(y / s * y)) - 1.0 / s
    if dx == 0.0 or dy == 0.0:
        raise DomainError("green_function requires both points off the unit sphere")
    diff = x / s - y / s
    dist2 = float(np.dot(diff, diff))          # |x - y|^2 / s^2
    if dist2 == 0.0:
        raise SingularityError("green_function is singular on the diagonal x = y")
    comp = _complement_of_ratio(p, dx, dy, dist2)
    return kc.a_d_alpha * s ** (p.alpha - p.d) * dist2 ** ((p.alpha - p.d) / 2.0) * comp


def martin_kernel(p: StableParams, x, z) -> float:
    """Martin kernel of the sphere complement, normalized at the origin.

    z is either a unit vector on the sphere or INFINITY; the infinity
    branch returns (1 - Phi(x)) / (1 - Phi(0)).
    """
    kc = constants(p)
    x = as_point(x, p.d)
    delta = _delta_of(x)
    if delta == 0.0:
        raise DomainError("martin_kernel requires x off the unit sphere")
    if isinstance(z, Infinity):
        r = norm(x)
        return phi_complement(p, r) / (1.0 - kc.phi_at_origin)
    z = as_point(z, p.d)
    require_unit(z, "finite Martin boundary points")
    diff = x - z
    dist2 = float(np.dot(diff, diff))
    if dist2 == 0.0:
        raise SingularityError("martin_kernel is singular at x = z")
    return abs(delta) ** (p.alpha - 1.0) / dist2 ** ((p.d + p.alpha - 2.0) / 2.0)


def ball_poisson_kernel(p: StableParams, center, radius: float, x, y):
    """Poisson kernel of the ball B(center, radius) w.r.t. Lebesgue measure.

    Valid for every alpha in (0, 2); x must lie inside the open ball and
    y strictly outside the closed ball.  Broadcasts over arrays of y.
    """
    if radius <= 0.0:
        raise DomainError(f"ball radius must be positive, got {radius}")
    c1 = ball_constant(p)
    a = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    in2 = np.sum((x - a) ** 2, axis=-1)
    out2 = np.sum((y - a) ** 2, axis=-1)
    if np.any(in2 >= radius * radius):
        raise DomainError("x must lie inside the open ball")
    if np.any(out2 <= radius * radius):
        raise DomainError("y must lie outside the closed ball")
    dist2 = np.sum((x - y) ** 2, axis=-1)
    val = c1 * ((radius * radius - in2) / (out2 - radius * radius)) ** (p.alpha / 2.0) \
        / dist2 ** (p.d / 2.0)
    return val if val.ndim else float(val)
