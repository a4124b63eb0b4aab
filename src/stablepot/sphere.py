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
import sys
from functools import cached_property, lru_cache

import numpy as np

from .core import (StableParams, Infinity, as_point, norm, require_finite, require_unit,
                   far_scale, near_scale, scales)
from .errors import DomainError, SingularityError
from .specfun import gauss_2f1, gauss_2f1_tail

__all__ = [
    "KernelConstants",
    "constants",
    "phi",
    "phi_complement",
    "phi_complement_delta",
    "phi_complement_offset",
    "hitting_probability",
    "poisson_kernel",
    "poisson_kernel_dist2",
    "green_function",
    "martin_kernel",
    "ball_poisson_kernel",
]

NEAR_SPHERE_BAND = 1e-3  # |r - 1| below this switches Phi to the 1-Phi series


class KernelConstants:
    """The positive constants entering the closed-form kernels.

    a_d_alpha      Riesz constant of order alpha
    a_d_neg_alpha  constant of the pointwise fractional Laplacian
    c1             ball Poisson kernel constant
    c2             hitting probability constant
    c3             hyperplane Poisson kernel constant
    series_c       (negative) coefficient of ||x|^2-1|^(alpha-1) in 1 - Phi
    phi_at_origin  Phi(0) = c2 / Gamma(d/2)

    Each is formed on first use.  One that lies beyond the float range at
    this d raises DomainError, so at large d a kernel fails only if a
    constant it reads does (c2 overflows from d ~ 340, the others from
    d ~ 440; phi reads only phi_at_origin and series_c).
    """

    def __init__(self, p: StableParams):
        self.p = p

    @cached_property
    def a_d_alpha(self) -> float:
        # Gamma((d - a)/2) / (2^a pi^(d/2) Gamma(a/2))
        d, a = self.p.d, self.p.alpha
        return _gamma_product("a_d_alpha", d, a, [(d - a) / 2.0], [a / 2.0],
                              [(2.0, -a), (math.pi, -d / 2.0)])

    @cached_property
    def a_d_neg_alpha(self) -> float:
        # Gamma((d + a)/2) / (2^-a pi^(d/2) |Gamma(-a/2)|)
        d, a = self.p.d, self.p.alpha
        return -_gamma_product("a_d_neg_alpha", d, a, [(d + a) / 2.0], [-a / 2.0],
                               [(2.0, a), (math.pi, -d / 2.0)])

    @cached_property
    def c1(self) -> float:
        return ball_constant(self.p)

    @cached_property
    def c2(self) -> float:
        d, a = self.p.d, self.p.alpha
        return _gamma_product("c2", d, a, [(a + d) / 2.0 - 1.0], [(a - 1.0) / 2.0],
                              [(math.pi, 0.5), (2.0, 2.0 - a)])

    @cached_property
    def c3(self) -> float:
        d, a = self.p.d, self.p.alpha
        return _gamma_product("c3", d, a, [(a + d) / 2.0 - 1.0], [(a - 1.0) / 2.0],
                              [(math.pi, (1.0 - d) / 2.0)])

    @cached_property
    def series_c(self) -> float:
        d, a = self.p.d, self.p.alpha
        return _gamma_product("series_c", d, a, [(a + d) / 2.0 - 1.0, 1.0 - a],
                              [(a - 1.0) / 2.0, 1.0 - a / 2.0, (d - a) / 2.0],
                              [(math.pi, 0.5), (2.0, 2.0 - a)])

    @cached_property
    def phi_at_origin(self) -> float:
        d, a = self.p.d, self.p.alpha
        return _gamma_product("phi_at_origin", d, a, [(a + d) / 2.0 - 1.0],
                              [(a - 1.0) / 2.0, d / 2.0], [(math.pi, 0.5), (2.0, 2.0 - a)])


_LOG_FLOAT_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))


def _gamma_product(name: str, d: int, alpha: float, num, den, powers) -> float:
    # prod b^e over powers * prod Gamma(num) / prod Gamma(den), for gamma
    # arguments in (-1, 0) or > 0.  Formed directly while every factor is a
    # float, which stays within a few ulp (a sum of logarithms loses up to
    # ~20 ulp at d = 2, 3); at large d, where single factors overflow, as
    # the exponential of a sum of lgamma values with explicit signs.
    try:
        value = math.prod(b ** e for b, e in powers) * \
            math.prod(map(math.gamma, num)) / math.prod(map(math.gamma, den))
    except OverflowError:
        value = math.inf
    if value != 0.0 and math.isfinite(value):
        return value
    sign = math.prod(-1.0 if x < 0.0 else 1.0 for x in (*num, *den))
    log = math.fsum([e * math.log(b) for b, e in powers]
                    + [_log_abs_gamma(x) for x in num]
                    + [-_log_abs_gamma(x) for x in den])
    if not _LOG_FLOAT_RANGE[0] < log < _LOG_FLOAT_RANGE[1]:
        raise DomainError(
            f"kernel constant {name} is about 1e{log / math.log(10.0):.0f} at "
            f"d={d}, alpha={alpha}, outside the float range "
            f"[{sys.float_info.min:.3g}, {sys.float_info.max:.3g}]")
    return sign * math.exp(log)


def _log_abs_gamma(x: float) -> float:
    # log |Gamma(x)|; for x in (-1, 0) through Gamma(x) = Gamma(x + 1) / x
    return math.lgamma(x) if x > 0.0 else math.lgamma(x + 1.0) - math.log(-x)


@lru_cache(maxsize=None)
def constants(p: StableParams) -> KernelConstants:
    """All kernel constants for the given parameters (alpha in (1, 2))."""
    p.require_hitting_range()
    return KernelConstants(p)


def ball_constant(p: StableParams) -> float:
    """C1 of the ball Poisson kernel; valid for all alpha in (0, 2)."""
    return _gamma_product("c1", p.d, p.alpha, [p.d / 2.0], [],
                          [(math.pi, -1.0 - p.d / 2.0)]) * math.sin(math.pi * p.alpha / 2.0)


# --- radial hitting probability ------------------------------------------

_GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0
_MAX_CANCELLATION = 1e4


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
        else:
            s = -delta
            f1_part = gauss_2f1(1.0 - a / 2.0, (d - a) / 2.0, 2.0 - a, s)
            f2_part = kc.series_c * s ** (a - 1.0) * \
                gauss_2f1(a / 2.0, (a + d) / 2.0 - 1.0, a, s)
        # the two terms grow with d and cancel: by up to 71 / 139 / 8.9e3
        # (|f1| + |f2| against |f1 + f2|) at d = 2 / 3 / 12, which costs
        # that many rounding errors; past _MAX_CANCELLATION no digit is sure
        if abs(f1_part) + abs(f2_part) > _MAX_CANCELLATION * abs(f1_part + f2_part):
            raise DomainError(
                f"phi at d={d}, alpha={a}, r^2 - 1 = {delta} cancels beyond "
                f"{_MAX_CANCELLATION:g} within the golden-ratio band; this formula "
                "stays within it up to about d = 12")
        return f1_part + f2_part
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
    return phi_complement_offset(p, r - 1.0)


def phi_complement_offset(p: StableParams, rm1: float) -> float:
    """1 - phi(1 + rm1) from the offset rm1 = r - 1 supplied exactly.

    delta = r^2 - 1 is formed as rm1 (rm1 + 2), which keeps every digit of
    an offset far below the spacing of floats at 1; beyond the float
    range of delta the radius itself is used.
    """
    delta = rm1 * (rm1 + 2.0)
    if math.isinf(delta):
        return 1.0 - phi(p, 1.0 + rm1)
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
    out = np.power(dist2, -(p.d + p.alpha - 2.0) / 2.0)
    return _scaled(out, constants(p).phi_at_origin * np.abs(delta) ** (p.alpha - 1.0))


def _scaled(out, factor):
    # out * factor, written into out (a fresh power of the caller's dist2)
    # where it already has the joint shape, so no second kernel-sized array
    if np.shape(out) == np.broadcast(out, factor).shape:
        out *= factor
        return out
    return out * factor


def poisson_kernel(p: StableParams, x, z):
    """Poisson kernel of the sphere complement w.r.t. normalized surface measure.

    x is a point (or broadcastable array of points) off the sphere, z a
    unit vector (or array of unit vectors).  Broadcasts over leading axes.
    Each point is scaled by a power of four s near its largest coordinate
    (s = 1 below 4), so that |x|^2 - 1 and |x - z|^2 are formed as
    (|x|^2 - 1)/s^2 and |x - z|^2/s^2 and never overflow; the kernel is
    homogeneous of degree alpha - d in that scaling.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    require_finite(x, "points of the sphere Poisson kernel")
    require_unit(z, "boundary arguments of the sphere Poisson kernel")
    s = scales(np.maximum(np.max(np.abs(x), axis=-1), 1.0))
    xs = x / s[..., None]
    delta = np.sum(xs * xs, axis=-1) - 1.0 / s / s
    if np.any(delta == 0.0):
        raise DomainError("x must lie off the unit sphere")
    diff = xs - z / s[..., None]
    dist2 = np.sum(diff * diff, axis=-1)
    if np.any(dist2 == 0.0):
        raise SingularityError("sphere Poisson kernel is singular at x = z")
    out = poisson_kernel_dist2(p, delta, dist2) * s ** (p.alpha - p.d)
    return out if out.ndim else float(out)


def _green_of_ratio(p: StableParams, a: float, b: float, diff: np.ndarray,
                    s: float) -> float:
    # A_(d,alpha) |x - y|^(alpha - d) (1 - Phi) at delta_w = a b / |x - y|^2,
    # from diff = (x - y)/s and a, b scaled by 1/s as well.  A difference
    # whose squared length would be subnormal is scaled by a power of four
    # t once more, so the distance power keeps its full relative accuracy.
    t = near_scale(diff)
    diff = diff / t
    a, b = a / t, b / t
    dist2 = float(np.dot(diff, diff))          # |x - y|^2 / (s t)^2
    if dist2 == 0.0:
        raise SingularityError("green_function is singular on the diagonal x = y")
    delta = a * b / dist2
    if math.isinf(delta):
        # a b > 0: 1 - Phi is taken at sqrt(1 + delta), formed from square roots
        comp = phi_complement(p, math.sqrt(abs(a)) * math.sqrt(abs(b)) / math.sqrt(dist2))
    else:
        comp = phi_complement_delta(p, delta)
    try:
        g = constants(p).a_d_alpha * (s * t) ** (p.alpha - p.d) * \
            dist2 ** ((p.alpha - p.d) / 2.0) * comp
    except OverflowError:
        g = math.inf
    if math.isinf(g):
        raise SingularityError("green_function exceeds the float range this close "
                               "to the diagonal x = y")
    return g


def green_function(p: StableParams, x, y) -> float:
    """Green function of the sphere complement at points x != y off the sphere.

    The hitting-probability argument reduces to the radius with
    delta_w = (1 - |x|^2)(1 - |y|^2) / |x - y|^2, which is fed straight
    into the cancellation-free complement series.  Far points are scaled
    by a power of four s near their largest coordinate, which is exact:
    delta_w is formed as (dx/s)(dy/s)/(dist2/s^2), so nothing overflows on
    the way.  Where delta_w itself exceeds the float range, 1 - Phi is
    taken at r_w = sqrt(|dx/s|) sqrt(|dy/s|) / sqrt(dist2/s^2) instead.
    Points closer than about 1e-154 have their difference scaled up by a
    power of four in the same way, so |x - y|^2 never goes subnormal.
    """
    x = as_point(x, p.d)
    y = as_point(y, p.d)
    s = far_scale(x, y)
    dx = float(np.sum(x / s * x)) - 1.0 / s   # (|x|^2 - 1)/s
    dy = float(np.sum(y / s * y)) - 1.0 / s
    if dx == 0.0 or dy == 0.0:
        raise DomainError("green_function requires both points off the unit sphere")
    return _green_of_ratio(p, dx, dy, x / s - y / s, s)


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
