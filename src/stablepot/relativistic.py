"""Hitting potentials and kernels for the relativistic alpha-stable process.

The radial part of the process is a Bessel process time-changed by a
tempered one-sided subordinator with potential density

    q_m(x) = exp(-m^(2/alpha) x) x^(alpha/2 - 1)
             E_(alpha/2, alpha/2)(m x^(alpha/2)),

and the lambda-potentials of the radial process are time integrals

    u_m^lambda(x, y) = Int_0^oo exp(-m^(2/alpha) s) s^(alpha/2-1)
                       f(s, x, y) E_(alpha/2, alpha/2)((m-lambda) s^(alpha/2)) ds

over the Bessel transition density f (lambda = 0 reproduces the
potential u_m directly, since the integrand then equals q_m f).  The
integrand behaves like s^((alpha-3)/2) near 0 on the diagonal and decays
like exp([(m-lambda)^(2/alpha) - m^(2/alpha)] s) s^(-d/2) at infinity,
so the integral converges only for alpha in (1, 2) on the diagonal, and
for lambda = 0 only in d >= 3; both failure modes raise
``DivergenceError``.

The integrand is evaluated in log form on whole arrays of log s, so that
s may lie beyond the float range (radii near 1e+-300 put the mass of the
integral near s = 1e+-600).  The quadrature splits at s0 = max(x, y)^2:
s = s0 w^(2/(alpha-1)) on w in (0, 1] absorbs the s^((alpha-3)/2)
endpoint, and s = s0 / v^2 on v in (0, 1] maps the tail.  A globally
adaptive Gauss-Kronrod (10, 21) rule integrates both pieces at once,
evaluating every new interval's nodes in one call per pass, and the sum
is kept relative to its largest term, so potentials beyond the float
range still give finite hitting ratios.

The hitting probability of the sphere of radius r is identically 1 in
d = 2 and u_m(|x|, r)/u_m(r, r) in d >= 3; the exponentially-discounted
variant is the ratio of lambda-potentials.  The hyperplane kernel of the
m-killed process is the Bessel-K density with constant C4.

Two facts are recorded here as documentation only (no numeric
observable): the sphere radius is a regular point of the radial process
exactly when alpha lies in (1, 2); and in one dimension the massive
process is pointwise recurrent for alpha in (1, 2) and transient for
alpha in (0, 1], so in d >= 2 it hits the hyperplane almost surely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StableParams, as_point, as_points, finite_value, norm, scaled_dist2
from .errors import ConvergenceError, DivergenceError, DomainError
from .specfun import (_log_mittag_leffler_scaled, bessel_i_scaled, bessel_k,
                      log_mittag_leffler)
from .sphere import _gamma_product

__all__ = [
    "RelativisticParams",
    "log_bessel_transition",
    "subordinator_potential",
    "log_subordinator_potential",
    "lambda_potential",
    "hitting_probability_sphere",
    "hitting_laplace_transform",
    "poisson_kernel_halfspace",
    "relativistic_constant",
]

@dataclass(frozen=True)
class RelativisticParams:
    """Base stable parameters plus mass m > 0 and killing rate lambda.

    The killing rate must satisfy 0 <= lam < m; lam = 0 selects the plain
    potential.
    """

    base: StableParams
    m: float
    lam: float = 0.0

    def __post_init__(self):
        if self.m <= 0.0:
            raise DomainError(f"mass must be positive, got {self.m}")
        if not math.isfinite(self.m):
            raise DomainError(f"mass must be finite, got {self.m}")
        if not (0.0 <= self.lam < self.m):
            raise DomainError(f"killing rate must satisfy 0 <= lam < m, got {self.lam}")

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def alpha(self) -> float:
        return self.base.alpha


_LOG2 = math.log(2.0)
_SMALL_Z = 1e-8      # below, (z/2)^nu / Gamma(nu+1) is exp(z) I_nu(z) to rounding
_LOG_BIG_Z = 690.0   # above, exp(z) I_nu(z) sqrt(2 pi z) is 1 to rounding


def _log_bessel_i_scaled(nu: float, log_z):
    """log(exp(-z) I_nu(z)) at z = exp(log_z), nu >= 0, with z past the float range."""
    log_z = np.asarray(log_z, dtype=float)
    z = np.exp(np.minimum(log_z, _LOG_BIG_Z))
    out = np.array(nu * (log_z - _LOG2) - math.lgamma(nu + 1.0) - z)
    mid = z >= _SMALL_Z
    if mid.any():
        lz, zm = log_z[mid], z[mid]
        out[mid] = np.log(bessel_i_scaled(nu, zm)) + 0.5 * (np.log(zm) - lz)
    return out


def _spread(r: float, log_t):
    """r^2 / 4t at t = exp(log_t), formed in logs (inf where it leaves the range)."""
    if r == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return np.exp(2.0 * math.log(r) - 2.0 * _LOG2 - log_t)


def _log_transition(d: int, log_t, x: float, y: float):
    """log f(t, x, y) at t = exp(log_t) for finite radii x, y >= 0."""
    if x == 0.0 or y == 0.0:
        return -d / 2.0 * (_LOG2 + log_t) - _spread(math.hypot(x, y), log_t)
    log_xy = math.log(x) + math.log(y) - _LOG2
    return (math.lgamma(d / 2.0) - _LOG2 - log_t + (1.0 - d / 2.0) * log_xy
            - _spread(abs(x - y), log_t)
            + _log_bessel_i_scaled(d / 2.0 - 1.0, log_xy - log_t))


def log_bessel_transition(d: int, t, x: float, y: float):
    """log of the radial Bessel transition density f(t, x, y), t > 0; arrays of t.

    Evaluated through the exponentially scaled Bessel I so that the
    (x - y)^2 / 4t Gaussian factor is explicit and nothing overflows.
    x = 0 or y = 0 is the small-argument limit (2t)^(-d/2) e^(-(x^2+y^2)/4t).
    """
    ta = np.asarray(t, dtype=float)
    if not np.all(ta > 0.0):
        raise DomainError(f"time must be positive, got {t}")
    if x < 0.0 or y < 0.0:
        raise DomainError("radii must be nonnegative")
    out = np.asarray(_log_transition(d, np.log(ta), x, y))
    return out if out.ndim else float(out)


def _mass_power(m: float, alpha: float) -> float:
    """m^(2/alpha), the tempering rate, or DomainError past the float range."""
    try:
        return m ** (2.0 / alpha)
    except OverflowError:
        raise DomainError(f"m^(2/alpha) leaves the float range at m={m}, "
                          f"alpha={alpha}") from None


def log_subordinator_potential(rp: RelativisticParams, x):
    """log q_m(x) for finite x > 0, finite where q_m is not; elementwise."""
    xa = np.asarray(x, dtype=float)
    if not np.all((xa > 0.0) & (xa < math.inf)):
        raise DomainError(f"the potential density needs finite x > 0, got {x}")
    a, m = rp.alpha, rp.m
    out = (-_mass_power(m, a) * xa + (a / 2.0 - 1.0) * np.log(xa)
           + log_mittag_leffler(a / 2.0, a / 2.0, m * xa ** (a / 2.0)))
    return out if out.ndim else float(out)


def subordinator_potential(rp: RelativisticParams, x):
    """Potential density q_m(x) of the tempered one-sided subordinator, elementwise."""
    out = np.exp(log_subordinator_potential(rp, x))
    return out if out.ndim else float(out)


def _log_time_integrand(rp: RelativisticParams, log_s, x: float, y: float):
    """log of the time integrand at s = exp(log_s), elementwise.

    exp(-m^(2/alpha) s) E((m-lambda) s^(alpha/2)) is formed as
    exp(-(m^(2/alpha) - (m-lambda)^(2/alpha)) s) times the scaled
    Mittag-Leffler function, so no terms of size s cancel (at lambda = 0
    the rate is 0 and the integrand stays finite for any s).
    """
    log_s = np.asarray(log_s, dtype=float)
    a, m, lam = rp.alpha, rp.m, rp.lam
    g = a / 2.0
    out = ((g - 1.0) * log_s + _log_transition(rp.d, log_s, x, y)
           + _log_mittag_leffler_scaled(g, g, math.log(m - lam) + g * log_s))
    rate = _mass_power(m, a) - _mass_power(m - lam, a)
    if rate > 0.0:
        with np.errstate(over="ignore"):
            out = out - rate * np.exp(log_s)
    return out


# Gauss-Kronrod (10, 21) on [-1, 1]: the nonnegative Kronrod nodes, their
# weights, and the weights of the Gauss nodes among them (odd positions)
_XK = np.array([0.0, 0.14887433898163122, 0.2943928627014602, 0.4333953941292472,
                0.5627571346686047, 0.6794095682990244, 0.7808177265864169,
                0.8650633666889845, 0.9301574913557082, 0.9739065285171717,
                0.9956571630258081])
_WK = np.array([0.1494455540029169, 0.14773910490133849, 0.14277593857706009,
                0.13470921731147334, 0.12349197626206584, 0.10938715880229764,
                0.0931254545836976, 0.07503967481091996, 0.054755896574351995,
                0.032558162307964725, 0.011694638867371874])
_WG = np.array([0.29552422471475287, 0.26926671930999635, 0.21908636251598204,
                0.1494513491505806, 0.06667134430868814])
_NODES = np.concatenate([-_XK[:0:-1], _XK])
_WK21 = np.concatenate([_WK[:0:-1], _WK])
_WG21 = np.zeros(21)
_WG21[1::2] = np.concatenate([_WG[::-1], _WG])
_START = 4           # intervals per piece on the first pass
_MAX_PASSES = 50     # bounds the bisection depth ...
_MAX_INTERVALS = 500  # ... and this the breadth (a smooth case needs 8 to 24)
_QUAD_TOL = 1e-10    # relative tolerance of the time quadrature


def _integrate_log(log_f, tol: float) -> float:
    """log of the integral of exp(log_f(u)) over u in (0, 2), to relative tol.

    Globally adaptive: each pass evaluates the nodes of every new interval
    in one call, then bisects the intervals whose error estimate is at
    least a quarter of the largest, until the summed estimate is at most
    tol times the integral.  Values are kept relative to exp(shift), the
    largest integrand value seen, so neither end of the float range is hit.
    """
    lo = np.linspace(0.0, 2.0, 2 * _START + 1)
    a, b = lo[:-1], lo[1:]
    vals = errs = np.empty(0)
    keep_a = keep_b = np.empty(0)
    shift = -math.inf
    for _ in range(_MAX_PASSES):
        half = 0.5 * (b - a)
        lf = log_f((0.5 * (a + b))[:, None] + half[:, None] * _NODES)
        top = lf.max()
        if top > shift:
            if shift > -math.inf:
                vals, errs = vals * math.exp(shift - top), errs * math.exp(shift - top)
            shift = top
        if shift == -math.inf:          # the integrand underflows everywhere
            return -math.inf
        f = np.exp(lf - shift)
        kron = f @ _WK21
        gauss = f @ _WG21
        # QUADPACK's scaling of |K - G| to the error of K
        mean = kron / 2.0
        asc = np.abs(f - mean[:, None]) @ _WK21
        err = np.abs(kron - gauss)
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(asc > 0.0, asc * np.minimum(1.0, (200.0 * err / asc) ** 1.5), err)
        vals = np.concatenate([vals, half * kron])
        errs = np.concatenate([errs, half * err])
        keep_a, keep_b = np.concatenate([keep_a, a]), np.concatenate([keep_b, b])
        total = vals.sum()                # > 0: the node at exp(shift) has weight
        if errs.sum() <= tol * total:
            return shift + math.log(total)
        split = errs >= 0.25 * errs.max()
        if len(errs) + split.sum() > _MAX_INTERVALS:
            break
        mid = 0.5 * (keep_a[split] + keep_b[split])
        a = np.concatenate([keep_a[split], mid])
        b = np.concatenate([mid, keep_b[split]])
        vals, errs = vals[~split], errs[~split]
        keep_a, keep_b = keep_a[~split], keep_b[~split]
    raise ConvergenceError(f"the time integral did not reach relative tolerance {tol} "
                           f"within {_MAX_PASSES} passes and {_MAX_INTERVALS} intervals")


def _log_potential(rp: RelativisticParams, x: float, y: float, quad_tol: float) -> float:
    """log u_m^lambda(x, y), finite where the potential itself leaves the float range."""
    if not (0.0 <= x < math.inf and 0.0 <= y < math.inf):
        raise DomainError(f"radii must be finite and nonnegative, got {x}, {y}")
    a = rp.alpha
    if rp.lam == 0.0 and rp.d == 2:
        raise DivergenceError(
            "the potential of the radial process is infinite in d = 2; "
            "use a positive killing rate")
    if x == y:
        if a <= 1.0:
            raise DivergenceError(
                f"alpha={a} <= 1: the potential blows up on the diagonal "
                "(the sphere is polar)")
        if x == 0.0:
            raise DivergenceError("the potential is infinite at x = y = 0")
    pw = 2.0 / (a - 1.0) if a > 1.0 else 4.0
    log_s0 = 2.0 * math.log(max(x, y))

    def log_f(u):
        inner = u < 1.0
        log_w = np.log(np.where(inner, u, 2.0 - u))      # w, or v on the tail
        log_s = log_s0 + np.where(inner, pw * log_w, -2.0 * log_w)
        log_jac = np.where(inner, math.log(pw) + (pw - 1.0) * log_w, _LOG2 - 3.0 * log_w)
        return _log_time_integrand(rp, log_s, x, y) + log_s0 + log_jac

    return _integrate_log(log_f, quad_tol)


def lambda_potential(rp: RelativisticParams, x: float, y: float,
                     quad_tol: float = _QUAD_TOL) -> float:
    """The radial potential u_m^lambda(x, y); u_m for lam = 0.

    ``quad_tol`` is the relative tolerance of the time quadrature.
    Raises ``DivergenceError`` in the regimes where the time integral is
    infinite: alpha <= 1 on the diagonal x = y, lam = 0 in d = 2, and the
    origin-diagonal x = y = 0.
    """
    with np.errstate(over="ignore"):
        return finite_value(np.exp(_log_potential(rp, x, y, quad_tol)), "the potential")


def hitting_probability_sphere(rp: RelativisticParams, r: float, x) -> float:
    """Probability that the relativistic process ever hits the sphere of radius r.

    Identically 1 in d = 2; the ratio u_m(|x|, r) / u_m(r, r) in d >= 3.
    Requires alpha in (1, 2) (the sphere is polar otherwise).
    """
    return _hitting_ratio(rp, r, x, 0.0)


def hitting_laplace_transform(rp: RelativisticParams, r: float, x, lam: float) -> float:
    """Exponentially discounted hitting functional of the radius-r sphere.

    For 0 < lam < m this is u_m^lambda(|x|, r) / u_m^lambda(r, r); it is
    nonincreasing in lam and tends to the plain hitting probability as
    lam -> 0 where that is defined.
    """
    if not (0.0 < lam < rp.m):
        raise DomainError(f"the transform needs 0 < lam < m, got lam={lam}")
    return _hitting_ratio(rp, r, x, lam)


def _hitting_ratio(rp: RelativisticParams, r: float, x, lam: float) -> float:
    """u_m^lam(|x|, r) / u_m^lam(r, r), 1 on the sphere and for lam = 0 in
    d = 2, formed from the logs so that neither potential has to lie in the
    float range; at most 1 (the potential peaks on the diagonal), which the
    quadrature's relative error could otherwise pass."""
    rp.base.require_hitting_range()
    if not 0.0 < r < math.inf:
        raise DomainError(f"sphere radius must be positive and finite, got {r}")
    rho = _radial_argument(rp, x)
    if rho == r or (lam == 0.0 and rp.d == 2):
        return 1.0
    shifted = RelativisticParams(rp.base, rp.m, lam)
    log_ratio = (_log_potential(shifted, rho, r, _QUAD_TOL)
                 - _log_potential(shifted, r, r, _QUAD_TOL))
    return math.exp(min(log_ratio, 0.0))


def _radial_argument(rp: RelativisticParams, x) -> float:
    if np.isscalar(x):
        if not 0.0 <= x < math.inf:
            raise DomainError(f"radius must be finite and nonnegative, got {x}")
        return float(x)
    return norm(as_point(x, rp.d))


def relativistic_constant(rp: RelativisticParams) -> float:
    """C4, the constant of the killed-process hyperplane kernel.

    Where a factor leaves the float range the product is taken in logs;
    a C4 outside the float range itself raises DomainError.
    """
    a, d, m = rp.alpha, rp.d, rp.m
    rp.base.require_hitting_range()
    return _gamma_product("C4", d, a, [], [(a + 1.0) / 2.0],
                          [(a - 1.0, 1.0), (m ** (1.0 / a) / 2.0, (d + a - 2.0) / 2.0),
                           (math.pi, (1.0 - d) / 2.0)])


def poisson_kernel_halfspace(rp: RelativisticParams, x, ybar):
    """Hitting density of the hyperplane for the process killed at rate m.

    C4 |x_d|^(alpha-1) K_((d+alpha-2)/2)(m^(1/alpha)|x-y|) / |x-y|^((d+alpha-2)/2).
    Integrates to strictly less than 1 (the kill may fire first); recovers
    the stable kernel as m -> 0.
    """
    c4 = relativistic_constant(rp)
    x = as_point(x, rp.d)
    xd = x[-1]
    if xd == 0.0:
        raise DomainError("x must lie off the hyperplane")
    y = as_points(ybar, rp.d - 1, "boundary points of the hyperplane")
    dist2, s = scaled_dist2(xd, x[:-1], y)       # |x - (ybar, 0)|^2 / s^2
    nu = (rp.d + rp.alpha - 2.0) / 2.0
    with np.errstate(over="ignore"):
        # K_nu at |x - y| and |x - y|^-nu = dist2^(-nu/2) s^-nu: far points
        # give K_nu = 0 and s^-nu -> 0; near ones overflow and are refused
        k = bessel_k(nu, rp.m ** (1.0 / rp.alpha) * np.sqrt(dist2) * s)
        out = c4 * abs(xd) ** (rp.alpha - 1.0) * k * dist2 ** (-nu / 2.0) * s ** -nu
    return finite_value(out, "the killed hitting density")
