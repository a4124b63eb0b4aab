"""Hitting potentials and kernels for the relativistic alpha-stable process.

The radial part of the process is a Bessel process time-changed by a
tempered one-sided subordinator with potential density

    q_m(x) = exp(-m^(2/alpha) x) x^(alpha/2 - 1)
             E_(alpha/2, alpha/2)(m x^(alpha/2)),

read, like the integrand below, from the scaled Mittag-Leffler table, and
the lambda-potentials of the radial process are time integrals

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
integral near s = 1e+-600).  Both special-function factors are read
from ``specfun``'s tables, in one reader call per pass: the
Mittag-Leffler factor from the table for (alpha/2, alpha/2), built once
per alpha, and the Bessel factor of f, h_nu(log z) = log(e^-z I_nu(z)) -
nu log(z/2) + lgamma(nu + 1) at z = xy/2s, from the table for order
nu = d/2 - 1, built in logs once per d, so that it underflows at no d.  The
Mittag-Leffler table is checked from order 0.015, so the potentials and
q_m take alpha >= 0.03 and raise DomainError below.  The
quadrature splits at s0 = max(x, y)^2: s = s0 w^(2/(alpha-1)) on w in
(0, 1] absorbs the s^((alpha-3)/2) endpoint, and s = s0 / v^2 on v in
(0, 1] maps the tail.  For alpha < 1.05, and for radii closer than
2 e^(-3.5/(alpha-1)) max(x, y), the inner map splits at s0 e^-80, since
it would squeeze the features of the integrand past the nodes of a pass;
in d = 2, where s0 times the rate of the exponential cutoff is below
e^-20, the tail starts on intervals e^-2 apart in v, since the integrand
is a v^(1-alpha) spike out to v ~ sqrt(s0 rate) there (see ``_pieces``).
The time integral is right to its fixed 1e-10 tolerance for alpha - 1 >= 1e-5
(tested against QUADPACK over log s down to alpha = 1.00001); closer to
1 the rounding of log s ~ 2/(alpha-1) below s0 e^-80 can keep a diagonal
potential from converging, which raises ``ConvergenceError``.  One globally adaptive Gauss-Kronrod
(10, 21) run integrates a batch of potentials: each pass evaluates the
nodes of every new interval of every unconverged potential in one call,
and each potential keeps its own shift, error sum and stopping test, so
a hitting ratio costs about one potential.  The sums are kept relative to
their largest term, so potentials beyond the float range still give
finite hitting ratios.  On the benchmark's evals a potential takes 1.2
passes and about 260 nodes: ``eval u-lambda`` about 0.21 ms at d = 2 and
0.20 ms at d = 3, and ``eval phi-rel`` at d = 3 about 0.24 ms, in-process
on a 2-core Xeon VM (the median over the benchmark sessions' evals of each
one's best of 8 runs).

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
from functools import lru_cache

import numpy as np

from .core import StableParams, as_number, as_point, as_points, finite_value, norm, scaled_dist2
from .errors import ConvergenceError, DivergenceError, DomainError
from .specfun import (_ML_GAMMA, _bessel_table, _log_mittag_leffler_scaled, _ml_table,
                      _read_tables, bessel_k)
from .sphere import _gamma_product

__all__ = [
    "RelativisticParams",
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
        m, lam = as_number(self.m, "mass m"), as_number(self.lam, "killing rate lam")
        if m <= 0.0:
            raise DomainError(f"mass must be positive, got {self.m}")
        if not math.isfinite(m):
            raise DomainError(f"mass must be finite, got {self.m}")
        if not (0.0 <= lam < m):
            raise DomainError(f"killing rate must satisfy 0 <= lam < m, got {self.lam}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "lam", lam)

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def alpha(self) -> float:
        return self.base.alpha


_LOG2 = math.log(2.0)


def _radius_logs(x: float, y: float) -> tuple[float, float]:
    """log(x y / 2) and log((x - y)^2 / 4) of radii x, y >= 0 (-inf where a
    factor is 0), formed so that neither leaves the float range."""
    def log(v):
        return math.log(v) if v > 0.0 else -math.inf
    return log(x) + log(y) - _LOG2, 2.0 * (log(abs(x - y)) - _LOG2)


def _log_transition_parts(d: int, log_t, radii) -> tuple:
    """log f(t, x, y) at t = exp(log_t), an array, less its Bessel factor
    h_nu(log z), and log z = log(x y / 2t), from the radius logs of finite
    radii x, y >= 0, which broadcast against it: log f is
    -(d/2)(log 2 + log t) - (x - y)^2 / 4t + h_nu(log z), nu = d/2 - 1."""
    log_xy, log_diff2 = radii
    with np.errstate(over="ignore"):
        return -d / 2.0 * (_LOG2 + log_t) - np.exp(log_diff2 - log_t), log_xy - log_t


def _mass_power(m: float, alpha: float) -> float:
    """m^(2/alpha), the tempering rate, or DomainError past the float range."""
    try:
        return m ** (2.0 / alpha)
    except OverflowError:
        raise DomainError(f"m^(2/alpha) leaves the float range at m={m}, "
                          f"alpha={alpha}") from None


def _require_ml_alpha(alpha: float) -> None:
    """The Mittag-Leffler factor has order alpha/2, which its table takes from 0.015."""
    if alpha < 2.0 * _ML_GAMMA[0]:
        raise DomainError(f"the Mittag-Leffler factor E_(alpha/2, alpha/2) needs "
                          f"alpha >= {2.0 * _ML_GAMMA[0]}, got alpha={alpha}")


def log_subordinator_potential(rp: RelativisticParams, x):
    """log q_m(x) for finite x > 0, finite where q_m is not; elementwise;
    alpha >= 0.03.  exp(-m^(2/alpha) x) E(m x^(alpha/2)) is the scaled
    Mittag-Leffler function that the time integrand reads, at log m +
    (alpha/2) log x, so no terms of size m^(2/alpha) x cancel: within 5e-14
    of mpmath for x in [1e-6, 1e12], and finite at any finite m."""
    _require_ml_alpha(rp.alpha)
    xa = np.asarray(x, dtype=float)
    if not np.all((xa > 0.0) & (xa < math.inf)):
        raise DomainError(f"the potential density needs finite x > 0, got {x}")
    g = rp.alpha / 2.0
    log_x = np.log(xa)
    out = (g - 1.0) * log_x + _log_mittag_leffler_scaled(g, g, math.log(rp.m) + g * log_x)
    return out if out.ndim else float(out)


def subordinator_potential(rp: RelativisticParams, x):
    """Potential density q_m(x) of the tempered one-sided subordinator, elementwise."""
    out = np.exp(log_subordinator_potential(rp, x))
    return out if out.ndim else float(out)


def _log_time_integrand(rp: RelativisticParams, log_s, radii):
    """log of the time integrand at s = exp(log_s), elementwise, from the
    ``_radius_logs`` of the radii, which broadcast against log_s.

    exp(-m^(2/alpha) s) E((m-lambda) s^(alpha/2)) is formed as
    exp(-(m^(2/alpha) - (m-lambda)^(2/alpha)) s) times the scaled
    Mittag-Leffler function, so no terms of size s cancel (at lambda = 0
    the rate is 0 and the integrand stays finite for any s).  Its table and
    the Bessel factor's are read in one pass.
    """
    log_s = np.asarray(log_s, dtype=float)
    a, m, lam = rp.alpha, rp.m, rp.lam
    g = a / 2.0
    rest, log_z = _log_transition_parts(rp.d, log_s, radii)
    ml, bessel = _read_tables((_ml_table(g, g), math.log(m - lam) + g * log_s),
                              (_bessel_table(rp.d / 2.0 - 1.0), log_z))
    out = (g - 1.0) * log_s + rest + bessel + ml
    rate = _mass_power(m, a) - _mass_power(m - lam, a)
    if rate > 0.0:
        with np.errstate(over="ignore"):
            out -= rate * np.exp(log_s)
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
_WKG = np.column_stack([_WK21, _WG21])
_MAX_PASSES = 50     # bounds the bisection depth ...
_MAX_INTERVALS = 500  # ... and this the breadth, per integral past its starting intervals
_QUAD_TOL = 1e-10    # relative tolerance of the time quadrature


def _integrate_log(log_f, intervals: np.ndarray, n: int, tol: float) -> np.ndarray:
    """log of each of n integrals of exp(log_f), to relative tol.

    ``intervals`` has a row per starting interval: midpoint, half-width,
    its integral, then parameters its subintervals inherit.  Each pass
    makes one call log_f(params, u) on the nodes u of every new interval
    of every unconverged integral.  Each integral then stops once its
    summed error estimate is at most tol times its value, or bisects its
    intervals whose estimate is at least a quarter of its largest, up to
    500 more than its starting ones.  Values are kept relative to
    exp(shift), the largest integrand value the integral has seen, so no
    end of the float range is hit; an integral whose first pass underflows
    everywhere is -inf.
    """
    # a row per interval: midpoint, half-width, integral, parameters, value, error
    rows = np.empty((len(intervals), intervals.shape[1] + 2))
    rows[:, :-2] = intervals
    val, err = rows.shape[1] - 2, rows.shape[1] - 1
    kept = rows[:0]
    budget = np.bincount(intervals[:, 2].astype(np.intp), minlength=n) + _MAX_INTERVALS
    shift = np.full(n, -math.inf)
    out = np.full(n, -math.inf)
    live = np.ones(n, dtype=bool)
    # -inf - -inf on an integral that underflows, and 0/0 in the error scaling
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(_MAX_PASSES):
            half, k = rows[:, 1], rows[:, 2].astype(np.intp)
            lf = log_f(rows[:, 3:val], rows[:, :1] + half[:, None] * _NODES)
            top = lf.max(axis=1)
            if not len(kept) or (top > shift[k]).any():   # a new largest value
                old = shift.copy()
                np.maximum.at(shift, k, top)
                kept[:, val:] *= np.exp(old - shift)[kept[:, 2].astype(np.intp), None]
                live &= shift > -math.inf
            f = np.exp(lf - shift[k, None])
            kg = f @ _WKG
            f -= 0.5 * kg[:, :1]
            asc = np.abs(f, out=f) @ _WK21
            # QUADPACK's scaling of |K - G| to the error of K: asc min(1, (200 |K - G| / asc)^1.5)
            np.multiply(half, kg[:, 0], out=rows[:, val])
            rows[:, err] = half * asc * np.fmin(
                1.0, (200.0 * np.abs(kg[:, 0] - kg[:, 1]) / asc) ** 1.5)
            kept = np.concatenate([kept, rows])
            ki = kept[:, 2].astype(np.intp)
            total = np.bincount(ki, kept[:, val], n)   # > 0: the node at exp(shift) has weight
            done = live & (np.bincount(ki, kept[:, err], n) <= tol * total)
            if done.any():
                out[done] = shift[done] + np.log(total[done])
                live &= ~done
            if not live.any():
                return out
            kept, ki = kept[live[ki]], ki[live[ki]]
            worst = np.zeros(n)
            np.maximum.at(worst, ki, kept[:, err])
            split = kept[:, err] >= 0.25 * worst[ki]
            halves, kept = kept[split], kept[~split]
            if len(kept) + 2 * len(halves) > budget[live].sum():
                break
            rows = np.repeat(halves, 2, axis=0)
            rows[:, 1] *= 0.5
            rows[0::2, 0] -= rows[0::2, 1]
            rows[1::2, 0] += rows[1::2, 1]
    raise ConvergenceError(f"the time integral did not reach relative tolerance {tol} within "
                           f"{_MAX_PASSES} passes and {_MAX_INTERVALS} intervals past its start")


# s < s0 maps to s = s0 w^p, p = 2/(alpha-1), absorbing the diagonal's
# s^((alpha-3)/2) endpoint.  That map squeezes a feature at log s0 - l into w
# within l/p of 1, or of 0 for l >> p, where a pass may not sample it: past
# p = 40 (alpha < 1.05) l ~ 10 is lost, and for p <= 40 the cutoff of
# exp(-(x - y)^2 / 4s) at radii closer than 2 e^(-1.75 p) max(x, y).
# There s = s0 w^40 on w in (e^-2, 1) instead, and s = s0 e^-80 w^p below:
# distinct float radii keep (x - y)^2 / 4s above 160 there, so below s0 e^-80
# the integrand is the diagonal's power law or nothing.
_POWER_CAP = 40.0
_FAR = 80.0
# s > s0 maps to s = s0 / v^2.  In d = 2 the integrand falls there only like
# s^((alpha-4)/2) up to s ~ 1/rate, a v^(1-alpha) spike on (sqrt(s0 rate), 1) that
# ends in the cutoff exp(-rate s0 / v^2), which a pass no longer resolves once
# s0 rate is small.  Below s0 rate = e^-20 the map's starting intervals are instead
# geometric, e^-2 apart from v = 1 down to past e^-3 sqrt(s0 rate), then one to 0,
# so that each holds a smooth piece of the spike or of the cutoff.
_LOG_TAIL_SPIKE = -20.0
_TAIL_STEP = 2.0


@lru_cache(maxsize=16)
def _pieces(pw: float, split: bool, tail_steps: int) -> tuple:
    """The time integral's starting intervals on the line of u, a row
    (midpoint, half-width, o, c0, c1, log|c1|) each, where its piece maps
    log s = log s0 + c0 + c1 log|u - o|; ``tail_steps`` geometric ones in the
    tail, or 0 for four even ones."""
    if tail_steps:                                               # s = s0 / v^2, v = u
        ends = np.exp(-_TAIL_STEP * np.arange(tail_steps, -1.0, -1.0))
        pieces = [(0.0, 0.0, -2.0, [0.0, *ends])]
    else:
        pieces = [(2.0, 0.0, -2.0, np.linspace(1.0, 2.0, 5))]   # s = s0 / v^2, v = 2 - u
    if not split:
        pieces.append((0.0, 0.0, pw, np.linspace(0.0, 1.0, 9)))
    else:
        w1 = math.exp(-_FAR / _POWER_CAP)
        pieces += [(0.0, 0.0, _POWER_CAP, np.linspace(w1, 1.0, 9)),
                   (w1 - 1.0, -_FAR, pw, [w1 - 1.0, w1])]
    return tuple((0.5 * (lo + hi), 0.5 * (hi - lo), o, c0, c1, math.log(abs(c1)))
                 for o, c0, c1, ends in pieces for lo, hi in zip(ends[:-1], ends[1:]))


def _log_potentials(rp: RelativisticParams, pairs, tol: float) -> np.ndarray:
    """log u_m^lambda(x, y) at each radius pair (x, y), all in one run of the
    integrator; finite where a potential itself leaves the float range."""
    a = rp.alpha
    _require_ml_alpha(a)
    for x, y in pairs:
        if not (0.0 <= x < math.inf and 0.0 <= y < math.inf):
            raise DomainError(f"radii must be finite and nonnegative, got {x}, {y}")
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
    rate = _mass_power(rp.m, a) - _mass_power(rp.m - rp.lam, a)
    rows = []
    for i, (x, y) in enumerate(pairs):
        log_s0, radii = 2.0 * math.log(max(x, y)), _radius_logs(x, y)
        split = pw > _POWER_CAP or -3.5 * pw > radii[1] - log_s0 > -math.inf
        log_spike = log_s0 + math.log(rate) if rp.d == 2 and rate > 0.0 else 0.0
        tail_steps = (math.ceil((3.0 - 0.5 * log_spike) / _TAIL_STEP)
                      if log_spike < _LOG_TAIL_SPIKE else 0)
        rows += [(mid, half, i, o, log_s0 + c0, c1, log_c1, *radii)
                 for mid, half, o, c0, c1, log_c1 in _pieces(pw, split, tail_steps)]
    intervals = np.array(rows)

    def log_f(params, u):
        o, log_s1, c1, log_c1, *radii = params.T[:, :, None]
        log_w = np.log(np.abs(u - o))
        log_s = log_s1 + c1 * log_w
        return _log_time_integrand(rp, log_s, radii) + log_s - log_w + log_c1

    return _integrate_log(log_f, intervals, len(pairs), tol)


def lambda_potential(rp: RelativisticParams, x: float, y: float) -> float:
    """The radial potential u_m^lambda(x, y); u_m for lam = 0.

    The time quadrature's relative tolerance is 1e-10, which holds for
    alpha - 1 >= 1e-5 (see the module docstring).  Off the diagonal alpha
    may lie below 1, down to 0.03.
    Raises ``DivergenceError`` in the regimes where the time integral is
    infinite: alpha <= 1 on the diagonal x = y, lam = 0 in d = 2, and the
    origin-diagonal x = y = 0.
    """
    x, y = as_number(x, "radius x"), as_number(y, "radius y")
    with np.errstate(over="ignore"):
        return finite_value(np.exp(_log_potentials(rp, [(x, y)], _QUAD_TOL)[0]), "the potential")


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
    lam = as_number(lam, "killing rate lam")
    if not (0.0 < lam < rp.m):
        raise DomainError(f"the transform needs 0 < lam < m, got lam={lam}")
    return _hitting_ratio(rp, r, x, lam)


def _hitting_ratio(rp: RelativisticParams, r: float, x, lam: float) -> float:
    """u_m^lam(|x|, r) / u_m^lam(r, r), 1 on the sphere and for lam = 0 in
    d = 2, formed from the logs so that neither potential has to lie in the
    float range; at most 1 (the potential peaks on the diagonal), which the
    quadrature's relative error could otherwise pass."""
    rp.base.require_hitting_range()
    r = as_number(r, "sphere radius")
    if not 0.0 < r < math.inf:
        raise DomainError(f"sphere radius must be positive and finite, got {r}")
    rho = _radial_argument(rp, x)
    if rho == r or (lam == 0.0 and rp.d == 2):
        return 1.0
    shifted = RelativisticParams(rp.base, rp.m, lam)
    log_u = _log_potentials(shifted, [(rho, r), (r, r)], _QUAD_TOL)
    if log_u[1] == -math.inf:
        # u(r, r) > 0, but far out (r = 1e308, lam > 0) the killing underflows
        # the integrand at every node: its mass lies at s ~ 1/rate << r^2
        raise ConvergenceError(f"the time quadrature finds no mass in u(r, r) at r={r}, "
                               f"lam={lam}")
    return math.exp(min(log_u[0] - log_u[1], 0.0))


def _radial_argument(rp: RelativisticParams, x) -> float:
    # one number (a 0-d array included) is a radius; a list, ragged too, a point
    if isinstance(x, (list, tuple)) or np.ndim(x):
        return norm(as_point(x, rp.d))
    rho = as_number(x, "radius")
    if not 0.0 <= rho < math.inf:
        raise DomainError(f"radius must be finite and nonnegative, got {x}")
    return rho


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
