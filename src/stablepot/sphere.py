"""Closed-form kernels relative to the unit sphere and its complement.

The complement of the unit sphere is written D below (both components,
inside and outside).  Provided here: the hitting probability of the
sphere and its radial profile phi, the Poisson kernel of D with respect
to normalized surface measure, the Green function and Martin kernel of
D, and the Poisson kernel of an arbitrary ball.

The hitting probability is the Legendre-function formula

    Phi(x) = C2 ||x|^2 - 1|^(alpha/2 - 1) |x|^(1 - d/2)
             P^(1-d/2)_(-alpha/2)((|x|^2 + 1) / ||x|^2 - 1|),

written in the signed quantity delta = |x|^2 - 1, which callers such as
the Green functions can supply exactly.  Within the golden-ratio band
-1/golden <= delta <= golden, one evaluation of the reduced two-term
expansion gives both Phi and 1 - Phi, the latter accurate up to the
sphere; outside it, the expansion around argument 1 gives Phi.  The two
routes agree within 5e-14 across the band edges at d <= 4.  Where the
band's two terms cancel, and from d = 5 on where |s| passes the reach of
their F - 1 series (``specfun.TailPair``, NaN there), Phi is the sum of
the zonal weights of the Poisson kernel (``polar_weights``, which
``analysis`` integrates with).

``phi``, ``phi_complement``, ``phi_complement_offset`` and
``phi_complement_delta`` take a number or an array and return the same
shape.  Each checks its argument and hands it, with its formula for
r^2 - 1, to one dispatcher: an array of 32 or more elements takes the
array route, which runs the branches above under masks; anything smaller
takes the float route element by element.  Each formula is written once,
elementwise on a float or an array, so the routes differ only in how they
branch, and give the same bits at every d: both take each exp, log1p,
expm1 and power from numpy, which rounds a float as it rounds the same
float inside an array.

The Poisson kernel has one assembly, shared with the batch evaluator in
``analysis``: a point enters as its offset r - 1 and direction eta, and
r^2 - 1 = (r - 1)(r + 1) and |x - z|^2 = (r - 1)^2 + r |eta - z|^2 come
scaled by an exact power of four from ``core.scaled_dist2``.  The Martin
kernel is the Poisson ratio P(x, z) / P(0, z), and P(0, z) = Phi(0) for
every unit z, so it is the same assembly with the constant left out.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, lru_cache

import numpy as np

from .core import (StableParams, Infinity, as_point, as_points, finite_value, norm,
                   require_unit, far_scale, scaled_dist2, _leggauss)
from .errors import DomainError, SingularityError
from .specfun import TailPair, gauss_2f1, _gauss_2f1_series

__all__ = [
    "KernelConstants",
    "constants",
    "phi",
    "phi_complement",
    "phi_complement_delta",
    "phi_complement_offset",
    "hitting_probability",
    "polar_weights",
    "poisson_kernel",
    "green_function",
    "martin_kernel",
    "ball_poisson_kernel",
]

class KernelConstants:
    """The positive constants entering the closed-form kernels.

    a_d_alpha      Riesz constant of order alpha
    a_d_neg_alpha  constant of the pointwise fractional Laplacian
    c2             hitting probability constant
    c3             hyperplane Poisson kernel constant
    series_c       (negative) coefficient of ||x|^2-1|^(alpha-1) in 1 - Phi
    golden_tails   the series F1 - 1 and F2 - 1 of Phi in the golden-ratio band
    phi_at_origin  Phi(0) = c2 / Gamma(d/2)

    Each is formed on first use.  One that lies beyond the float range at
    this d raises DomainError, so at large d a kernel fails only if a
    constant it reads does (c2 overflows from d ~ 340, the others from
    d ~ 440; phi reads none that overflow).  Their Gamma arguments
    (d +- alpha)/2 are rounded, which costs some d ulp at large d, so
    beyond d = 12, where the direct products drift past a few ulp,
    phi_at_origin and series_c take their Gamma ratios in d/2 from
    ``_log_gamma_ratio`` and stay within 2e-15 at every d.
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
        if d > 12:      # phi_at_origin Gamma(1-a) / Gamma(1-a/2) Gamma(d/2) / Gamma((d-a)/2)
            return self.phi_at_origin * math.gamma(1.0 - a) / math.gamma(1.0 - a / 2.0) * \
                math.exp(-_log_gamma_ratio(d / 2.0, -a / 2.0))
        return _gamma_product("series_c", d, a, [(a + d) / 2.0 - 1.0, 1.0 - a],
                              [(a - 1.0) / 2.0, 1.0 - a / 2.0, (d - a) / 2.0],
                              [(math.pi, 0.5), (2.0, 2.0 - a)])

    @cached_property
    def golden_tails(self) -> TailPair:
        d, a = self.p.d, self.p.alpha
        return TailPair((1.0 - a / 2.0, (d - a) / 2.0, 2.0 - a), (a / 2.0, (a + d) / 2.0 - 1.0, a))

    @cached_property
    def phi_at_origin(self) -> float:
        d, a = self.p.d, self.p.alpha
        if d > 12:      # c2 / Gamma(d/2) with c2's Gamma((a+d)/2 - 1) as a ratio
            return math.sqrt(math.pi) * 2.0 ** (2.0 - a) / math.gamma((a - 1.0) / 2.0) * \
                math.exp(_log_gamma_ratio(d / 2.0, a / 2.0 - 1.0))
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


@lru_cache(maxsize=64)
def _log_gamma_ratio(x: float, eps: float) -> float:
    # log(Gamma(x + eps) / Gamma(x)) for x = d/2 >= 1 and |eps| < 1, free of
    # the rounding of x + eps, which Gamma amplifies by x psi(x): the
    # recurrence up to x >= 50, then the difference of the Stirling series,
    # whose first omitted term is below 1e-18 there
    n = max(0, math.ceil(50.0 - x))
    shift = math.fsum(math.log1p(eps / (x + k)) for k in range(n))
    x += n

    def series(z):
        w = 1.0 / (z * z)
        return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))) / z
    return eps * math.log(x) + (x + eps - 0.5) * math.log1p(eps / x) - eps + \
        (series(x + eps) - series(x)) - shift


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
_GOLDEN_BUDGET = 1e3
_BLOCK = 4096           # radii at a time on the array route, so that its temporaries stay small


# Phi's formulas, one body each for both routes (see the module docstring).  On
# the float route num takes numpy's results back to Python floats: arithmetic on
# numpy scalars would cost about 1 us a Phi.  The C library's exp and power differ
# from numpy's in the last place for some 5% of arguments, which the band's
# cancellation would carry up to 5e-14 into Phi, so neither route takes them.

def _golden_terms(p: StableParams, delta, s, log_v2, tails):
    # (Phi, 1 - Phi, kept) for -1/golden <= delta <= golden, from the reduced
    # two-term expansion of the Legendre function in 2/(1+t), t >= sqrt(5):
    #   Phi = v^(a-d) + T,  1 - Phi = (1 - v^(a-d)) - T,
    #   T = v^(a-d) (F1(s) - 1) + c |delta|^(a-1) v^(2-d-a) F2(s),
    # s = delta/(1+delta), v^2 = 1 + delta above the sphere, s = -delta, v = 1 below;
    # F1 = F(1-a/2, (d-a)/2; 2-a; .), F2 = F(a/2, (a+d)/2-1; a; .), c = series_c < 0;
    # tails = (F1 - 1, F2 - 1).  v^(a-d) F1 and f2 cancel, harder as d grows, and
    # each carries some d ulp, so Phi loses ~d ulp per unit of their excess over
    # Phi.  kept is false past _GOLDEN_BUDGET ulp (d <= 4 stays below 180), at
    # inf - inf (from d ~ 1e5) or past the tails' reach (NaN, from d = 5 on near
    # the band edges); there Phi is the sum of the zonal weights, ~d ulp in all
    d, a = p.d, p.alpha
    num = float if isinstance(delta, float) else np.asarray
    v_ad = num(np.exp(0.5 * (a - d) * log_v2))
    f1_tail = v_ad * tails[0]
    f2 = constants(p).series_c * num(np.power(abs(delta), a - 1.0)) * \
        num(np.exp(0.5 * (2.0 - d - a) * log_v2)) * (1.0 + tails[1])
    value = v_ad + (f1_tail + f2)
    kept = (abs(v_ad + f1_tail) + abs(f2) - abs(value)) * d <= _GOLDEN_BUDGET * abs(value)
    return value, -num(np.expm1(0.5 * (a - d) * log_v2)) - (f1_tail + f2), kept


def _t1_value(p: StableParams, delta, f):
    # Phi outside the golden-ratio band from its 2F1 value f around t = 1, whose
    # prefactor ((t+1)/(t-1))^((1-d/2)/2) |delta|^(a/2-1) r^(1-d/2) is |delta|^(a/2-1)
    # times r^(2-d) = (1 + delta)^((2-d)/2) above the sphere and 1 below
    d, a = p.d, p.alpha
    num = float if isinstance(delta, float) else np.asarray
    return constants(p).phi_at_origin * num(np.power(abs(delta), a / 2.0 - 1.0)) * \
        num(np.power(1.0 + delta * (delta > 0.0), (2.0 - d) / 2.0)) * f


def _zonal_phi(p: StableParams, delta):
    # Phi as the sum of the zonal weights at r^2 - 1 = delta
    return np.sum(polar_weights(p, delta / (1.0 + np.sqrt(1.0 + delta)))[1], axis=-1)


def _phi_golden(p: StableParams, delta: float) -> tuple[float, float]:
    # (Phi, 1 - Phi) for -1/golden <= delta <= golden
    s, log_v2 = (delta / (1.0 + delta), float(np.log1p(delta))) if delta > 0.0 else (-delta, 0.0)
    value, comp, kept = _golden_terms(p, delta, s, log_v2, constants(p).golden_tails(s))
    if kept:
        return value, comp
    value = float(_zonal_phi(p, delta))
    return value, 1.0 - value


def _phi_t1(p: StableParams, delta: float) -> float:
    # Phi outside the golden-ratio band
    arg = (1.0 + delta) / delta if delta < 0.0 else -1.0 / delta    # in (-1/golden, 0]
    return _t1_value(p, delta, gauss_2f1(p.alpha / 2.0, 1.0 - p.alpha / 2.0, p.d / 2.0, arg))


def _phi_pair(p: StableParams, delta: float) -> tuple[float, float]:
    # (Phi, 1 - Phi) at r^2 - 1 = delta, finite and >= -1
    if delta == 0.0:
        return 1.0, 0.0
    if -1.0 / _GOLDEN <= delta <= _GOLDEN:
        value, comp = _phi_golden(p, delta)
    else:
        value = _phi_t1(p, delta)
        comp = 1.0 - value
    if value > 1.0 or comp < 0.0:       # inside the sphere as alpha -> 2, Phi -> 1
        return 1.0, 0.0
    return value, comp


def _phi_pairs(p: StableParams, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # _phi_pair at every element of a flat array of finite delta >= -1
    d, a = p.d, p.alpha
    value, comp = np.ones_like(delta), np.zeros_like(delta)
    with np.errstate(over="ignore", invalid="ignore"):   # inf and nan as float arithmetic
        for i in range(0, delta.size, _BLOCK):
            dl, v, c = delta[i:i + _BLOCK], value[i:i + _BLOCK], comp[i:i + _BLOCK]
            band = (-1.0 / _GOLDEN <= dl) & (dl <= _GOLDEN) & (dl != 0.0)
            far = ~band & (dl != 0.0)
            if band.any():
                db = dl[band]
                s = np.where(db > 0.0, db / (1.0 + db), -db)
                vb, cb, kept = _golden_terms(p, db, s, np.log1p(np.fmax(db, 0.0)),
                                             constants(p).golden_tails.on_array(s))
                if not kept.all():
                    vb[~kept] = _zonal_phi(p, db[~kept])
                v[band], c[band] = vb, np.where(kept, cb, 1.0 - vb)
            if far.any():
                df = dl[far]
                arg = np.where(df < 0.0, (1.0 + df) / df, -1.0 / df)
                v[far] = _t1_value(p, df, _gauss_2f1_series(a / 2.0, 1.0 - a / 2.0, d / 2.0, arg))
                c[far] = 1.0 - v[far]
            clip = (v > 1.0) | (c < 0.0)
            v[clip], c[clip] = 1.0, 0.0
    return value, comp


def _refuse(x, ok, what: str) -> None:
    # DomainError naming the first element of x that fails a check, where ok
    # is the check's truth value at a number x or its mask over an array x
    if ok is True or np.all(ok):
        return
    raise DomainError(f"{what}, got {x[~ok][0] if np.ndim(x) else x}")


# Fewer radii than this take the float route, at 4-5 us a radius.  The array
# route costs about 50 us however few radii it gets outside the sphere, 100 us
# within 1e-3 of it and 280 us for radii spread over (0.05, 4), where band
# radii far from 1 take 80 Horner steps of the 2F1 tails: break-even at 16, 32
# and 64 radii
_ARRAY_MIN = 32
_DELTA_RANGE = "delta = r^2 - 1 must be finite and >= -1"
# each front end's kind for _radial: its part of _phi_pair, r^2 - 1 from its
# argument, and its value where that leaves the float range (2F1 is exactly 1)
_OF_RADIUS = (0, lambda r: (r - 1.0) * (r + 1.0),
              lambda p, r: constants(p).phi_at_origin * r ** (p.alpha - p.d))
_OF_OFFSET = (1, lambda rm1: rm1 * (rm1 + 2.0), lambda p, rm1: 1.0 - phi(p, 1.0 + rm1))
_OF_DELTA = (1, lambda delta: delta, None)


def _radial_input(x):
    # a float as it is, a number or 0-d array as a float, else a float array
    if isinstance(x, float):
        return x
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


def _radial(p: StableParams, x, kind: tuple):
    # kind = (part, delta_of, far): part 0 (Phi) or 1 (1 - Phi) of _phi_pair at
    # x with r^2 - 1 = delta_of(x), or far(p, v) at a float v whose delta leaves
    # the float range (refused if far is None), in x's shape, for params the
    # caller checked.  The one place a route is chosen: a float takes
    # _phi_pair, an array _phi_pairs, or the float route if under _ARRAY_MIN
    part, delta_of, far = kind
    if isinstance(x, float):
        delta = delta_of(x)
        if far is not None and math.isinf(delta):
            return far(p, x)
        if not -1.0 <= delta < math.inf:
            raise DomainError(f"{_DELTA_RANGE}, got {delta}")
        return _phi_pair(p, delta)[part]
    flat = x.ravel()
    if flat.size < _ARRAY_MIN:
        return np.array([_radial(p, v, kind) for v in flat.tolist()], float).reshape(x.shape)
    with np.errstate(over="ignore"):
        delta = delta_of(flat)
    out = np.empty_like(flat)
    beyond = np.isinf(delta) if far is not None else np.zeros(flat.size, dtype=bool)
    out[beyond] = [far(p, v) for v in flat[beyond].tolist()]
    near = delta[~beyond]
    _refuse(near, (-1.0 <= near) & (near < math.inf), _DELTA_RANGE)
    out[~beyond] = _phi_pairs(p, near)[part]
    return out.reshape(x.shape)


def phi_complement_delta(p: StableParams, delta: float) -> float:
    """1 - phi(sqrt(1 + delta)) with delta = r^2 - 1 supplied exactly."""
    p.require_hitting_range()
    return _radial(p, _radial_input(delta), _OF_DELTA)


def phi(p: StableParams, r: float) -> float:
    """Radial hitting probability phi(r) of the unit sphere, r >= 0.

    Returns exactly 1 on the sphere itself (the process started on the
    sphere hits it immediately).  r may be an array; the result has its
    shape (so for phi_complement, phi_complement_offset and
    phi_complement_delta).
    """
    r = _radial_input(r)
    p.require_hitting_range()
    _refuse(r, r >= 0.0, "radius must be nonnegative")
    return _radial(p, r, _OF_RADIUS)


def phi_complement(p: StableParams, r: float) -> float:
    """1 - phi(r), cancellation-free near the sphere."""
    r = _radial_input(r)
    _refuse(r, (r >= 0.0) | (r != r), "radius must be nonnegative")   # NaN: the delta check
    return phi_complement_offset(p, r - 1.0)


def phi_complement_offset(p: StableParams, rm1: float) -> float:
    """1 - phi(1 + rm1) from the offset rm1 = r - 1 supplied exactly.

    delta = r^2 - 1 is formed as rm1 (rm1 + 2), which keeps every digit of
    an offset far below the spacing of floats at 1; beyond the float
    range of delta the radius itself is used.  An offset below -1, a
    negative radius, is refused.
    """
    rm1 = _radial_input(rm1)
    p.require_hitting_range()
    # NaN goes on to the delta check
    _refuse(rm1, (rm1 >= -1.0) | (rm1 != rm1), "offset r - 1 must be >= -1")
    return _radial(p, rm1, _OF_OFFSET)


def hitting_probability(p: StableParams, x) -> float:
    """Probability that the process started at x ever hits the unit sphere."""
    x = as_point(x, p.d)
    return phi(p, norm(x))


# --- kernels --------------------------------------------------------------

_DEEP = 2.0 ** -100         # offsets |r - 1| below this take the three-panel rule
_EDGE = 20.0                # length in v of its first and last panels


def polar_weights(p: StableParams, rm1):
    """Zonal weights of the Poisson kernel at x = (1 + rm1) eta, |eta| = 1.

    With z = cos(psi) eta + sin(psi) omega, omega on the unit sphere of
    eta's tangent space, the Poisson integral of f at x is sum_j w_j times
    the mean of f over the ring at psi_j (Funk-Hecke), and sum_j w_j = Phi.
    psi = min(|r - 1|, 1) sinh(v) on Gauss-Legendre nodes in v keeps the
    kernel peak resolved however near the sphere x lies: 120 nodes up to
    d = 400, ceil(6 sqrt(d)) beyond.  Below |r - 1| = 2^-100, where v runs
    out to 747 at the least float, the nodes split into three panels: the
    first and last 20 in v, and a rule in exp((1 - alpha) v) between them,
    along which the weight is flat.  Returns (psi, w) with the nodes along
    a new last axis of rm1.
    """
    # w = Phi(0) |S^(d-2)|/|S^(d-1)| cosh(v) dv ((r+1)/b)^(alpha-1) b^(alpha-d)
    # (sin(psi)/m)^(d-2) g^(2-d-alpha), m = min(rho, 1), b = max(rho, 1), g =
    # |x - z| / rho, summed in logs so that no factor leaves the float range
    d, a = p.d, p.alpha
    rm1 = np.asarray(rm1, dtype=float)
    n = max(120, math.ceil(6.0 * math.sqrt(d)))
    log_c = math.log(constants(p).phi_at_origin / (2.0 * math.sqrt(math.pi))) - \
        _log_gamma_ratio(d / 2.0, -0.5)

    def zonal(rows, nodes):
        v, log_dv, psi, log_sin, log_g = nodes(p, rows, n)
        r, big = 1.0 + rows, np.maximum(np.abs(rows), 1.0)
        return psi, (log_c + log_dv + v + np.log1p(np.exp(-2.0 * v))
                     + (a - 1.0) * np.log((r + 1.0) / big) + (a - d) * np.log(big)
                     + (d - 2.0) * log_sin + (2.0 - d - a) * log_g)

    flat = rm1.reshape(-1, 1)
    deep = np.abs(flat[:, 0]) < _DEEP
    psi, log_w = np.empty((len(flat), n)), np.empty((len(flat), n))
    for rows, nodes in ((~deep, _polar_nodes), (deep, _deep_polar_nodes)):
        if rows.any():
            psi[rows], log_w[rows] = zonal(flat[rows], nodes)
    return psi.reshape(rm1.shape + (n,)), np.exp(log_w).reshape(rm1.shape + (n,))


def _polar_nodes(p: StableParams, rm1: np.ndarray, n: int):
    # (v, log dv, psi, log(sin(psi) / m), log g), Gauss-Legendre on 0 <= v <= vmax
    gl_x, gl_w = _leggauss(n)
    rho, r = np.abs(rm1), 1.0 + rm1
    width = np.minimum(rho, 1.0)
    vmax = np.arcsinh(math.pi / width)
    v = (gl_x + 1.0) / 2.0 * vmax
    psi = width * np.sinh(v)
    log_g = np.log(np.hypot(1.0, 2.0 * np.sqrt(r) * np.sin(psi / 2.0) / rho))
    return v, np.log(gl_w * vmax / 2.0), psi, np.log(np.sin(psi) / width), log_g


def _deep_polar_nodes(p: StableParams, rm1: np.ndarray, n: int):
    # the same for rho = |r - 1| < 2^-100, in logs: pi / rho, sinh(v) and 1 / rho
    # leave the float range near the least float.  The weight is C e^((1 - alpha) v)
    # up to terms in e^(-2v) and e^(2 (v - vmax)): flat in the middle panel's u
    rho, r = np.abs(rm1), 1.0 + rm1
    log_rho = np.log(rho)
    vmax = np.log(math.pi + np.hypot(math.pi, rho)) - log_rho      # arcsinh(pi / rho)
    n_in, n_mid = 11 * n // 20, n // 20          # 66, 6 and 48 nodes of 120
    x_in, w_in = _leggauss(n_in)
    x_mid, w_mid = _leggauss(n_mid)
    x_out, w_out = _leggauss(n - n_in - n_mid)
    b = 1.0 - p.alpha
    u_lo, u_hi = np.exp(b * (vmax - _EDGE)), math.exp(b * _EDGE)
    u = u_lo + (x_mid + 1.0) / 2.0 * (u_hi - u_lo)

    def panels(*parts):
        return np.concatenate([np.broadcast_to(q, (len(rho), q.shape[-1])) for q in parts],
                              axis=1)
    v = panels((x_in + 1.0) / 2.0 * _EDGE, np.log(u) / b,
               vmax - (1.0 - x_out) / 2.0 * _EDGE)
    log_dv = panels(np.log(w_in * _EDGE / 2.0), np.log(w_mid * (u_hi - u_lo) / 2.0 / (-b * u)),
                    np.log(w_out * _EDGE / 2.0))
    log_sinh = v - math.log(2.0) + np.log(-np.expm1(-2.0 * v))
    psi = np.exp(log_rho + log_sinh)
    log_g = 0.5 * np.logaddexp(0.0, np.log(r) + 2.0 * (
        log_sinh + np.log(np.sinc(psi / (2.0 * math.pi)))))
    return v, log_dv, psi, log_sinh + np.log(np.sinc(psi / math.pi)), log_g


def _kernel(p: StableParams, rm1, eta, z, c: float):
    # c |r^2 - 1|^(alpha-1) / |x - z|^(d+alpha-2) at x = (1 + rm1) eta,
    # broadcast: with r = 1 + rm1, r^2 - 1 = rm1 (r + 1) and |x - z|^2 =
    # rm1^2 + r |eta - z|^2 for unit eta and z, both over s^2 as
    # core.scaled_dist2 forms them; the value is homogeneous of degree
    # alpha - d in s.  c = Phi(0) gives the Poisson kernel, c = 1 the Martin
    # kernel.  Past the float range the value is inf (with the overflow flag
    # raised), which callers check.
    r = 1.0 + rm1
    dist2, s = scaled_dist2(rm1, eta, z, r)
    out = dist2 ** (-(p.d + p.alpha - 2.0) / 2.0)
    out *= c * abs(rm1 / s * ((r + 1.0) / s)) ** (p.alpha - 1.0)
    out *= s ** (p.alpha - p.d)
    return out


def _offsets(x):
    # (r - 1, x / r) for points x along the last axis; the origin keeps the
    # direction 0, which the kernel weighs with r = 0
    r = np.hypot.reduce(x, axis=-1)
    rm1 = r - 1.0
    if np.any(rm1 == 0.0):
        raise DomainError("x must lie off the unit sphere")
    return rm1, x / np.where(r > 0.0, r, 1.0)[..., None]


def poisson_kernel(p: StableParams, x, z):
    """Poisson kernel of the sphere complement w.r.t. normalized surface measure.

    x is a point (or broadcastable array of points) off the sphere, z a
    unit vector (or array of unit vectors).  Broadcasts over leading axes.
    Each point enters through its offset r - 1 and direction eta, and the
    kernel distance |x - z|^2 = (r - 1)^2 + r |eta - z|^2 is scaled by an
    exact power of four (``core.scaled_dist2``), so no point, however far
    or near, overflows on the way.  A value beyond the float range raises
    DomainError.
    """
    x = as_points(x, p.d, "points of the sphere Poisson kernel")
    z = as_points(z, p.d, "boundary arguments of the sphere Poisson kernel")
    require_unit(z, "boundary arguments of the sphere Poisson kernel")
    with np.errstate(over="ignore", invalid="ignore"):      # |x| past DBL_MAX: nan
        out = _kernel(p, *_offsets(x), z, constants(p).phi_at_origin)
    return finite_value(out, "the sphere Poisson kernel")


def _green_of_ratio(p: StableParams, a: float, b: float, q: float, xs: np.ndarray,
                    ys: np.ndarray, s: float) -> float:
    # A_(d,alpha) |x - y|^(alpha - d) (1 - Phi) at delta_w = a b q^2 / |xs - ys|^2,
    # xs = x/s, ys = y/s, with a power of two q >= 1 carrying what a, b cannot
    # hold; the distance has its own power of four t (core.scaled_dist2).
    dist2, t = map(float, scaled_dist2(0.0, xs, ys))   # |x - y|^2 / (s t)^2
    a, b = a / t * q, b / t * q
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
    delta_w = (1 - |x|^2)(1 - |y|^2) / |x - y|^2, fed straight into 1 - Phi.
    Each |x|^2 - 1 is formed over the square of the point's own power of
    four (``core.far_scale``), so a coordinate of 1.7e308 does not overflow
    and a near point does not go subnormal; the scales meet again as one
    exact power of two.  Where delta_w exceeds the float range, 1 - Phi is
    taken at r_w = sqrt(delta_w), formed from square roots.  Points closer
    than about 1e-154 have their difference scaled up by a power of four.
    """
    x = as_point(x, p.d)
    y = as_point(y, p.d)
    sx, sy = far_scale(x), far_scale(y)
    dx = float(np.sum((x / sx) ** 2)) - (1.0 / sx) ** 2    # (|x|^2 - 1)/sx^2
    dy = float(np.sum((y / sy) ** 2)) - (1.0 / sy) ** 2
    if dx == 0.0 or dy == 0.0:
        raise DomainError("green_function requires both points off the unit sphere")
    s = max(sx, sy)     # far_scale(x, y): (|x|^2 - 1)(|y|^2 - 1)/s^2 = dx dy min(sx, sy)^2
    return _green_of_ratio(p, dx, dy, min(sx, sy), x / s, y / s, s)


def martin_kernel(p: StableParams, x, z):
    """Martin kernel of the sphere complement, normalized at the origin.

    z is either a unit vector on the sphere or INFINITY; the infinity
    branch returns (1 - Phi(x)) / (1 - Phi(0)).  For finite z it is the
    Poisson ratio P(x, z) / P(0, z) = P(x, z) / Phi(0), formed with the
    constant left out of the scaled kernel, so it stays finite wherever
    the ratio does.  Broadcasts over arrays of finite boundary points.
    """
    kc = constants(p)
    x = as_point(x, p.d)
    r = norm(x)
    if r == 1.0:
        raise DomainError("x must lie off the unit sphere")
    if isinstance(z, Infinity):
        return phi_complement(p, r) / (1.0 - kc.phi_at_origin)
    z = as_points(z, p.d, "finite Martin boundary points")
    require_unit(z, "finite Martin boundary points")
    with np.errstate(over="ignore", invalid="ignore"):      # |x| past DBL_MAX: nan
        out = _kernel(p, *_offsets(x), z, 1.0)
    return finite_value(out, "the sphere Martin kernel")


def ball_poisson_kernel(p: StableParams, center, radius: float, x, y):
    """Poisson kernel of the ball B(center, radius) w.r.t. Lebesgue measure.

    Valid for every alpha in (0, 2); x must lie inside the open ball and
    y strictly outside the closed ball.  Broadcasts over arrays of y.
    """
    if not 0.0 < radius < math.inf:
        raise DomainError(f"ball radius must be positive and finite, got {radius}")
    c1 = ball_constant(p)
    a = as_points(center, p.d, "the ball center")
    x = as_points(x, p.d, "points inside the ball")
    y = as_points(y, p.d, "points outside the ball")
    # each squared distance over its own power of four, compared as lengths
    # so that no square overflows on the way
    in2, si = scaled_dist2(0.0, x, a)
    out2, so = scaled_dist2(0.0, y, a)
    dist2, sd = scaled_dist2(0.0, x, y)
    with np.errstate(over="ignore", invalid="ignore"):     # radius^2 past DBL_MAX
        if np.any(np.sqrt(in2) >= radius / si):
            raise DomainError("x must lie inside the open ball")
        if np.any(np.sqrt(out2) <= radius / so):
            raise DomainError("y must lie outside the closed ball")
        ratio = (radius * radius - in2 * si * si) / (out2 * so * so - radius * radius)
        val = c1 * ratio ** (p.alpha / 2.0) / (dist2 ** (p.d / 2.0) * sd ** p.d)
    return finite_value(val, "the ball Poisson kernel")
