"""Special functions underlying every closed-form kernel, on numpy and math alone.

Each is evaluated one way over the domain its callers reach, and states its
accuracy against 40-digit mpmath: Gauss 2F1 by its power series, with
``TailPair`` summing F - 1 free of cancellation for two triples at once in
Phi's golden band (as many of 80 terms as |s| needs, up to a reach it works
out from the coefficients: |s| ~ 0.65 at d = 2, 0.61 at d = 5 and 0.09 at
d = 400 for the sphere, and NaN past it, where from d = 5 on the sphere's
Phi is the sum of its zonal weights); e^-x I_nu(x) by its power series
below x = 30 (order 1/2 by its closed form), its large-x series from
max(30, nu^2) and a backward recurrence in the order between; K_nu(z) by
the trapezoid rule; the exact samplers' laws (incomplete beta and gamma,
normal CDF) by their continued fractions and series; the Mittag-Leffler
function as its log.

Bessel I and the Mittag-Leffler function come only in these forms, which
never overflow.  Two smooth functions are tabulated, each as polynomials
of degree 16 on panels of its log argument, built on first use from its
series and ending in edge panels that carry its exact outer forms:
log(e^(-t^(1/gamma)) E_(gamma,beta)(t)) below t^(1/gamma) = 45, once per
(gamma, beta), from the series summed in log space (17 panels and 1.0-1.5
ms at gamma = beta = 0.75 or 0.6), past which the one-term asymptotic form
is exact to 1e-19 relative; and the radial transition density's Bessel
factor h_nu = log(e^-z I_nu(z)) - nu log(z/2) + lgamma(nu + 1) over
log z, once per order, from the series and recurrence above taken in
logs (21-23 panels and about 0.6 ms at nu = 0, 1/2 and 1; 24 ms at
nu = 199).
``_read_tables`` evaluates any number of (table, argument) pairs in one
pass of some 25 array operations, elementwise.
``_log_mittag_leffler_scaled`` gives log(e^(-t^(1/gamma)) E(t)) from
log t, for callers whose t leaves the float range or who would cancel
the e^(t^(1/gamma)).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np

from .core import as_number
from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "gauss_2f1",
    "TailPair",
    "bessel_i_scaled",
    "bessel_k",
    "log_mittag_leffler",
    "regularized_beta_cdf",
]

_EPS = 2.0 ** -53
_TINY = 1e-300

# --- Gauss 2F1 ------------------------------------------------------------

_F21_REACH = 0.625      # the series' coefficients serve |s| <= 5/8, past Phi's 1/golden
_CAP = 5000            # the most terms, or levels of a fraction, any sum here takes


def _check_2f1(c: float, s: float) -> None:
    if c <= 0.0 and c == math.floor(c):
        raise PoleError(f"gauss_2f1 parameter c has a pole at nonpositive integer {c}")
    if not abs(s) < 1.0:
        raise DomainError(f"gauss_2f1 requires |s| < 1, got s={s}")


@lru_cache(maxsize=64)
def _f21_coefficients(a: float, b: float, c: float, reach: float) -> tuple:
    """The coefficients of F(a, b; c; s) - 1, highest power first, until the
    rest at |s| = reach, which shrink at least by reach times the larger of 1
    and the next ratio, is below 2^-53 of the sum of the terms' sizes."""
    coef, term, total = [], 1.0, 1.0
    for k in range(_CAP):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0))
        coef.append(term)
        size = abs(term) * reach ** (k + 1)
        total += size
        shrink = reach * max(1.0, abs((a + k + 1.0) * (b + k + 1.0)
                                      / ((c + k + 1.0) * (k + 2.0))))
        if shrink < 1.0 and size * shrink <= _EPS * total * (1.0 - shrink):
            return tuple(coef[::-1])
    raise ConvergenceError(f"the 2F1 series needs over {_CAP} terms at |s| = {reach}")


def _gauss_2f1_series(a: float, b: float, c: float, s, reach: float = _F21_REACH):
    """F(a, b; c; s) for |s| <= reach by Horner's rule, on a float or
    elementwise on an array with the same bits.  At s in [-1/golden, 0]
    (Phi's far route, d = 2 to 400) it is within 2.2e-16 of mpmath in at
    most 70 terms."""
    tail = 0.0
    for coef in _f21_coefficients(a, b, c, reach):
        tail = (tail + coef) * s
    return 1.0 + tail


def gauss_2f1(a: float, b: float, c: float, s: float) -> float:
    """Gauss hypergeometric F(a, b; c; s) for |s| < 1, from its power series.

    Below s = -5/8 Pfaff's transformation F = (1 - s)^-a F(a, c - b; c;
    s/(s - 1)) brings the argument into (0.38, 0.5).  Past s = 5/8 the
    series takes more terms (about 400 at s = 0.9); where it needs more
    than 5000 (s within ~0.007 of 1) it raises ConvergenceError.
    """
    _check_2f1(c, s)
    if s < -_F21_REACH:
        return (1.0 - s) ** -a * gauss_2f1(a, c - b, c, s / (s - 1.0))
    return _gauss_2f1_series(a, b, c, s, max(s, _F21_REACH))


_TAIL_TERMS = 80


class TailPair:
    """F(a, b; c; s) - 1 free of cancellation for two fixed triples (a, b, c):
    sum_(n >= 1) (a)_n (b)_n / ((c)_n n!) s^n for both by Horner's rule, in one
    pass over as many of 80 terms as |s| needs; NaN past their reach, which
    the sphere's golden band |s| <= 1/golden passes from d = 5 on, where its
    Phi is the sum of the zonal weights."""

    def __init__(self, first: tuple, second: tuple):
        a, b, c = np.array((first, second)).T[:, :, None]
        k = np.arange(_TAIL_TERMS + 1.0)
        rho = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        with np.errstate(over="ignore"):           # past the float range: no reach
            coef = np.cumprod(rho, axis=1)         # coef[:, j] multiplies s^(j+1)
        # reach[n - 1]: the largest |s| where the terms past s^n add at most 2^-53
        # of the first.  They shrink by rho_k |s|, rho_k -> 1, so with R the largest
        # of 1 and |rho_k|, k >= n, they add below |term_(n+1)| / (1 - R |s|), which
        # is within bounds at |s| = (K (1 - R K^(1/n)))^(1/n), K = 2^-53 |coef_1 /
        # coef_(n+1)|; more terms never need a smaller |s|.
        big = np.maximum(np.maximum.accumulate(np.abs(rho[:, :0:-1]), axis=1)[:, ::-1], 1.0)
        tol = 2.0 ** -53 * np.abs(coef[:, :1] / coef[:, 1:])
        reach = (tol * np.clip(1.0 - big * tol ** (1.0 / k[1:]), 0.0, None)) ** (1.0 / k[1:])
        self._reach = np.maximum.accumulate(reach, axis=1).min(axis=0).tolist()
        self._coef = coef[:, _TAIL_TERMS - 1::-1].T.tolist()   # s^80 first
        self._coef_columns = np.array(self._coef)[:, :, None]

    def __call__(self, s: float) -> tuple[float, float]:
        n = bisect_right(self._reach, abs(s)) + 1
        if n > _TAIL_TERMS:                        # past the reach, NaN included
            return math.nan, math.nan
        tail1 = tail2 = 0.0
        for c1, c2 in self._coef[_TAIL_TERMS - n:]:
            tail1 = (tail1 + c1) * s
            tail2 = (tail2 + c2) * s
        return tail1, tail2

    def on_array(self, s: np.ndarray) -> np.ndarray:
        """Both tails at every element of a flat array s, stacked on a new
        first axis: ``__call__``'s Horner steps, run on each element from its
        own first term, so every element sees the arithmetic of ``__call__``;
        NaN past the reach."""
        # an element of n terms joins at coefficient row 80 - n; sorted by that
        # row, the elements under way at each row are a prefix
        first = _TAIL_TERMS - 1 - np.searchsorted(self._reach, np.abs(s), side="right")
        past = first < 0
        first[past] = _TAIL_TERMS
        order = np.argsort(first, kind="stable")
        under_way = np.searchsorted(first[order], np.arange(_TAIL_TERMS), side="right")
        s_sorted = s[order]
        sorted_tails = np.zeros((2, s.size))
        for coef, m in zip(self._coef_columns, under_way.tolist()):
            if m:
                t = sorted_tails[:, :m]
                t += coef
                t *= s_sorted[:m]
        tails = np.empty_like(sorted_tails)
        tails[:, order] = sorted_tails
        tails[:, past] = math.nan
        return tails


# --- Legendre function of the first kind on (1, oo) ---------------------
#
# For mu = 1 - d/2, nu = -alpha/2 (integer d >= 2, alpha in (1, 2)), the
# expansion in 2/(1+t) for large t (near the sphere) has two terms; this
# is the prefactor of the first.

def legendre_f1(d: int, alpha: float, t: float) -> float:
    """First prefactor of the large-t expansion of P^(1-d/2)_(-alpha/2), t > 1;
    a value or factor beyond the float range raises DomainError."""
    if not 1.0 < t < math.inf:
        raise DomainError(f"the Legendre expansion term F1 needs finite t > 1, got {t}")
    try:
        pref = 2.0 ** (1.0 - alpha / 2.0) * math.gamma(alpha - 1.0) / (
            math.gamma(alpha / 2.0) * math.gamma((alpha + d) / 2.0 - 1.0))
        value = pref * (t + 1.0) ** (alpha / 2.0 - d / 4.0 - 0.5) * (t - 1.0) ** (d / 4.0 - 0.5)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise DomainError(f"the Legendre expansion term F1 leaves the float range at "
                          f"d={d}, alpha={alpha}, t={t}")
    return value


# --- modified Bessel functions ------------------------------------------

_BESSEL_I_SWITCH = 30.0  # power series below, large-x expansion above
_SERIES_TERMS = 64       # a power of two, past the 44 that x = 30 needs at nu = -1/2
_LOG2 = math.log(2.0)


@lru_cache(maxsize=16)
def _bessel_i_coefficients(nu: float) -> tuple[np.ndarray, np.ndarray]:
    """The power series' coefficients of (x^2)^k, a column of 64, and the
    ratios r_k of successive terms of the large-x series (times x), up to
    the first below 2^-53 at x = 30, or 40 if one before it grows there."""
    k = np.arange(_SERIES_TERMS - 1.0)
    series = np.cumprod(np.concatenate([[1.0], 0.25 / ((k + 1.0) * (k + 1.0 + nu))]))[:, None]
    k = np.arange(40.0)
    ratio = (2.0 * k + 1.0 - 2.0 * nu) * (2.0 * k + 1.0 + 2.0 * nu) / (8.0 * (k + 1.0))
    reach = np.maximum.accumulate(np.abs(ratio))
    small = np.cumprod(np.abs(ratio) / _BESSEL_I_SWITCH) < _EPS
    n = int(np.argmax(small)) if small.any() else len(k)
    n = n if reach[max(n - 1, 0)] <= _BESSEL_I_SWITCH else len(k)
    out = (series, ratio[:n])
    for arr in out:
        arr.setflags(write=False)
    return out


def _estrin(coef: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_k coef[k] q^k by Estrin's scheme: pairs of terms, then pairs of
    pairs in q^2, and so on, over 2^n rows of coefficients, or 2^n + 1, whose
    last joins the last pair.  Elementwise, so a scalar and the same q inside
    an array get the same bits."""
    n = len(coef) & -2
    a = coef[1:n:2] * q
    q = q * q
    if n < len(coef):
        a[-1] += coef[n] * q
    a += coef[0:n:2]
    while len(a) > 1:
        b = a[1::2] * q
        b += a[0::2]
        a = b
        if len(a) > 1:
            q = q * q
    return a[0]


def _bessel_i_recurrence(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-x) I_nu(x) = v 2^e at a flat array of x >= 30, nu > 1: exp(-x)
    I_nu0(x), nu0 = nu - floor(nu), times the ratios r_mu = I_(mu+1)/I_mu for
    mu = nu0 .. nu - 1, their product carried as a mantissa and a power of
    two so that it never underflows.  The ratios come from the backward
    recurrence r_(mu-1) = 1/(2 mu/x + r_mu) (DLMF 10.29.1), started from 0 at
    a mu where -log r_mu ~ asinh(mu/x) has summed, from nu on, past the 40
    that shrink the start's error below 2^-53 of r_nu; each x runs from its
    own start."""
    m = math.floor(nu)
    nu0 = nu - m
    start = m + np.ceil(np.maximum(np.sqrt(nu * nu + 91.0 * x) - nu, 46.0))
    r, prod, e = np.zeros_like(x), np.ones_like(x), np.zeros(x.shape, dtype=np.intp)
    for j in range(int(start.max(initial=0.0)), 0, -1):
        np.divide(1.0, 2.0 * (nu0 + j) / x + r, out=r, where=j <= start)
        if j <= m:
            prod *= r
            if j % 32 == 0:                       # each r is above 30/(2 mu + 32)
                prod, step = np.frexp(prod)
                e += step
    return _bessel_i_past_switch(nu0, x)[0] * prod, e


def _bessel_i_past_switch(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-x) I_nu(x) = v 2^e at a flat array of x >= 30: the large-x series
    in 1/x (DLMF 10.40.1), to 2^-53 or its smallest term, from x = nu^2 on,
    where every kept ratio |r_k| <= max(nu^2/2, 19.51) <= x, so its terms no
    longer grow or cancel; ``_bessel_i_recurrence`` below."""
    ratio = _bessel_i_coefficients(nu)[1]
    v, e = np.empty_like(x), np.zeros(x.shape, dtype=np.intp)
    high = x >= nu * nu
    if not high.all():
        v[~high], e[~high] = _bessel_i_recurrence(nu, x[~high])
    xb = x[high]
    terms = np.cumprod(ratio / xb[:, None], axis=1)
    v[high] = (1.0 + np.sum(terms, axis=1)) / (math.sqrt(2.0 * math.pi) * np.sqrt(xb))
    return v, e


def bessel_i_scaled(nu: float, x):
    """exp(-x) I_nu(x) for x >= 0, nu >= -1/2; never overflows; broadcasts over
    arrays of x.  NaN raises DomainError; x = 0 gives the limit, inf for nu < 0.

    Below x = 30 the power series (DLMF 10.25.2), all of its terms
    positive, is within 1.6e-15 of mpmath for nu up to 169.5; from 170 on
    (x/2)^nu / Gamma(nu + 1) is formed in logs, 1.4e-13 at nu = 200.  Above,
    the large-x series in 1/x, within 4.5e-16 from x = nu^2 on; between 30
    and nu^2 the backward recurrence in the order, within 3.2e-15 up to
    nu = 200 and 5e-15 at 1000.  Order 1/2 takes its closed form
    (1 - e^(-2x)) / sqrt(2 pi x), within 4.4e-16 where the series gives 1.2e-15.
    """
    xa = np.asarray(x, dtype=float)
    if not (xa >= 0.0).all():
        raise DomainError(f"bessel_i requires x >= 0, got {x}")
    if not nu >= -0.5:
        raise DomainError(f"bessel_i requires nu >= -1/2, got {nu}")
    if nu == 0.5:
        out = np.divide(-np.expm1(-2.0 * xa), math.sqrt(2.0 * math.pi) * np.sqrt(xa),
                        out=np.zeros_like(xa), where=xa > 0.0)
        return out if out.ndim else float(out)
    flat = xa.ravel()
    out = np.empty_like(flat)
    low = flat < _BESSEL_I_SWITCH
    xs = flat[low]
    s = _estrin(_bessel_i_coefficients(nu)[0], xs * xs)
    s *= np.exp(-xs)
    if nu:                          # (x/2)^nu / Gamma(nu + 1), in logs past Gamma's range
        with np.errstate(divide="ignore"):        # 0^nu for nu < 0: inf, the limit
            s *= (np.power(0.5 * xs, nu) / math.gamma(nu + 1.0) if nu < 170.0 else
                  np.exp(nu * np.log(0.5 * xs) - math.lgamma(nu + 1.0)))
    out[low] = s
    out[~low] = np.ldexp(*_bessel_i_past_switch(nu, flat[~low]))
    out = out.reshape(xa.shape)
    return out if out.ndim else float(out)


def bessel_k(nu: float, z):
    """Modified Bessel K_nu(z) for z > 0; broadcasts over arrays of z.

    The trapezoid rule on K_nu(z) = e^-z int_0^oo e^(-2z sinh^2(t/2))
    cosh(nu t) dt (DLMF 10.32.9), which converges exponentially (Trefethen &
    Weideman, SIAM Review 56, 2014): steps of min(0.2, 0.6/sqrt(z)), over
    max(1, |nu|/2.5), out to where 2z sinh^2(t/2) = 50 + 4|nu|.  For
    nu = (d + alpha - 2)/2, d = 2..5, and z in [1e-8, 600] it is within
    1.2e-15 of mpmath (scipy's kv: 5.3e-14); at nu = 10 and 20, 3e-14, and
    at nu = 200 to 400 with z in [300, 650], 2.4e-14.  A z so small that the
    log of the integrand, nu t - 2z sinh^2(t/2), peaks past 700 (K_nu(z)
    near e^700 and past), raises DomainError; z = inf gives 0.
    """
    za = np.asarray(z, dtype=float)
    z_min = float(za.min(initial=math.inf))
    if not z_min > 0.0:
        raise DomainError(f"bessel_k requires z > 0, got {z}")
    nu = abs(nu)
    slow = max(1.0, nu / 2.5)
    # the integrand's log peaks at t = asinh(nu/z), highest at the smallest z
    zc = min(z_min, 1e300)
    if nu * math.asinh(nu / zc) - (math.hypot(nu, zc) - zc) > 700.0:
        raise DomainError(f"K_{nu}(z) nears the float range at z={z_min}")
    # the last node grows as z falls: take the count from the smallest z, or
    # from the large-z bound 2 asinh(w/root) root/0.6 < 2 w/0.6
    w, r = math.sqrt(25.0 + 2.0 * nu), math.sqrt(zc)
    t_max = 2.0 * math.asinh(w / r)
    n = math.ceil(slow * max(t_max / min(0.2, 0.6 / r), 2.0 * w / 0.6))
    root = np.sqrt(np.minimum(za, 1e300))[..., None]
    h = np.minimum(0.2 / slow, (0.6 / slow) / root)
    t = h * np.arange(n + 1.0)
    g = np.sinh(0.5 * t)
    g *= root
    g *= g
    g *= -2.0
    t *= nu
    if nu * n * min(0.2, 0.6 / r) / slow > 700.0:
        # past nu t = 700 cosh(nu t) would overflow: cosh(nu t) = cosh(700)
        # e^(nu t - 700) to rounding there, and the excess joins the exponent
        g += np.maximum(t - 700.0, 0.0)
        np.minimum(t, 700.0, out=t)
    np.exp(g, out=g)
    g *= np.cosh(t, out=t)
    out = (g.sum(axis=-1) - 0.5) * h[..., 0] * np.exp(-za)
    return out if out.ndim else float(out)


# --- piecewise polynomial tables ------------------------------------------
#
# A table holds a smooth function h of x on [lo, hi] as polynomials of degree
# 16, one per panel.  It is built once: h is evaluated at the 17 Chebyshev
# points of each of 8 even panels of [lo, hi], and a panel is bisected until
# its two trailing Chebyshev coefficients are at most 2^-52 of the largest of
# 1 and the size of the terms that make up h on it (so of its rounding), or
# until its half-width is 2^-8.  Each panel's Chebyshev coefficients then
# become monomial ones in z = (x - mid) / half, in [-1, 1].  Two edge panels
# carry h's exact outer forms: a constant below lo (inverse half-width 0, so
# z = 0) and a line above hi, whose z is x 2^-900 and whose slope is scaled by
# 2^900 (both exact), so that z^2 and up vanish for any x the reader takes.
#
# ``_read_tables`` evaluates any number of tables, each at its own array, in
# one pass: a searchsorted per table, one gather of the panels' columns
# (midpoint, inverse half-width, coefficients) of all the tables side by
# side, and Estrin's scheme, in some 25 array operations.  Each step is
# elementwise, so a scalar and the same value inside an array get the same
# bits.

_POINTS = 17                        # per panel: degree 16
# the interpolation points cos(pi j / 34), j = 33, 31, .., 1 (ascending), and the
# matrix taking the values there to the coefficients of T_0 .. T_16 (a DCT).  Its
# angles are reduced mod 2 pi in integers: unreduced, the rounding of cos(16 theta)
# gave a constant 4e-16 of itself in T_16, past the bisection's bound
_ODD = np.arange(2 * _POINTS - 1, 0, -2)
_CHEB = np.cos(np.pi / (2 * _POINTS) * _ODD)
_DCT = np.cos(np.pi / (2 * _POINTS) * (np.multiply.outer(_ODD, np.arange(_POINTS))
                                       % (4 * _POINTS))) * (
    np.where(np.arange(_POINTS), 2.0, 1.0) / _POINTS)
# row k: the monomial coefficients of T_k, by T_k = 2 z T_(k-1) - T_(k-2), exactly
_MONOMIAL = np.eye(_POINTS)
for _k in range(2, _POINTS):
    _MONOMIAL[_k, 1:] = 2.0 * _MONOMIAL[_k - 1, :-1]
    _MONOMIAL[_k] -= _MONOMIAL[_k - 2]
_MIN_HALF = 2.0 ** -8               # bisection stops at this half-width
_HUGE = 1e250                       # the reader clips its arguments to +-1e250
_FAR = 2.0 ** -900                  # z = x 2^-900 on the upper edge panel


class _Table:
    """A built table: its panel edges lo .. hi, and a column per panel (the
    edge panels first and last) of its midpoint, its inverse half-width and
    its 17 monomial coefficients, lowest first.  Hashed by identity."""

    __slots__ = ("edges", "columns")


def _build_table(values, lo: float, hi: float, below: float, line: tuple) -> _Table:
    """The table of h on [lo, hi], values(x) giving h and the size of its
    terms at a (panels, 17) array of x; h = below under lo and
    line[0] + line[1] x over hi."""
    start = np.linspace(lo, hi, 9)
    todo, done = np.column_stack([start[:-1], start[1:]]), []
    while len(todo):
        mid, half = todo.mean(axis=1), 0.5 * (todo[:, 1] - todo[:, 0])
        h, size = values(mid[:, None] + half[:, None] * _CHEB)
        coef = h @ _DCT
        scale = np.maximum(size.max(axis=1), 1.0)
        ok = (np.abs(coef[:, -2:]).max(axis=1) <= 2.0 ** -52 * scale) | (half <= _MIN_HALF)
        done += zip(todo[ok, 0].tolist(), coef[ok])
        split, cut = todo[~ok], mid[~ok]
        todo = np.column_stack([split[:, 0], cut, cut, split[:, 1]]).reshape(-1, 2)
    done.sort(key=lambda panel: panel[0])
    edges = np.array([a for a, _ in done] + [hi])
    outer = np.zeros((2, _POINTS))
    outer[0, 0], outer[1, :2] = below, (line[0], line[1] / _FAR)
    coef = np.concatenate([outer[:1], np.array([c for _, c in done]) @ _MONOMIAL, outer[1:]])
    table = _Table()
    table.edges = edges
    table.columns = np.vstack([np.concatenate([[0.0], 0.5 * (edges[1:] + edges[:-1]), [0.0]]),
                               np.concatenate([[0.0], 2.0 / (edges[1:] - edges[:-1]), [_FAR]]),
                               coef.T])
    edges.setflags(write=False)
    table.columns.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _stacked(tables: tuple) -> tuple:
    """The columns of the tables side by side, and each table's first column."""
    first = np.cumsum([0] + [t.columns.shape[1] for t in tables[:-1]]).tolist()
    return first, np.concatenate([t.columns for t in tables], axis=1)


def _read_tables(*pairs) -> list:
    """h of each (table, x) pair at its array x, elementwise, in one pass.
    NaN reads the upper edge panel, and +-inf its edge form at +-1e250."""
    first, columns = _stacked(tuple(t for t, _ in pairs))
    xs = [np.asarray(x, dtype=float) for _, x in pairs]
    panel = np.concatenate([np.searchsorted(t.edges, x.ravel(), side="right") + f
                            for (t, _), x, f in zip(pairs, xs, first)])
    x = np.concatenate([x.ravel() for x in xs])
    np.minimum(np.maximum(x, -_HUGE, out=x), _HUGE, out=x)
    # take, unlike columns[:, panel], gathers into rows that Estrin's steps read
    # contiguously
    c = columns.take(panel, axis=1)
    h = _estrin(c[2:], (x - c[0]) * c[1])
    out, at = [], 0
    for x in xs:
        out.append(h[at:at + x.size].reshape(x.shape))
        at += x.size
    return out


# --- the Bessel factor of the radial transition density -------------------
#
# h_nu(u) = log(e^-z I_nu(z)) - nu log(z/2) + lgamma(nu + 1) at u = log z is
# 0 at z = 0, and tends to the log of the first term of the large-z series,
# -(nu + 1/2) u + nu log 2 + lgamma(nu + 1) - log(2 pi)/2.  Below u = -40 it is
# -z to within z^2, so 0 to within 4e-18; above u = 37 + 2 log max(1, 2 nu) the
# series' second term, (4 nu^2 - 1)/8z, is below 1.2e-17.  Between, the table
# is built in logs, so that nothing underflows however large nu: below z = 30
# from the power series' sum S (all terms positive), h = log S - z; above from
# e^-z I_nu(z) = v 2^e.

@lru_cache(maxsize=16)
def _bessel_table(nu: float) -> _Table:
    """The table of h_nu over u = log z, built once per order."""
    series = _bessel_i_coefficients(nu)[0]
    lgam = math.lgamma(nu + 1.0)

    def values(u):
        z = np.exp(u.ravel())
        low = z < _BESSEL_I_SWITCH
        h, size = np.empty_like(z), np.empty_like(z)
        zl = z[low]
        log_sum = np.log(_estrin(series, zl * zl))
        h[low], size[low] = log_sum - zl, log_sum + zl
        v, e = _bessel_i_past_switch(nu, z[~low])
        log_v, power = np.log(v) + e * _LOG2, nu * np.log(0.5 * z[~low])
        h[~low], size[~low] = log_v - power + lgam, np.abs(log_v) + np.abs(power) + lgam
        return h.reshape(u.shape), size.reshape(u.shape)

    return _build_table(values, -40.0, 37.0 + 2.0 * math.log(max(1.0, 2.0 * nu)), 0.0,
                        (nu * _LOG2 + lgam - 0.5 * math.log(2.0 * math.pi), -(nu + 0.5)))


# --- Mittag-Leffler ------------------------------------------------------
#
# E_(gamma,beta)(t) = sum_n t^n / Gamma(beta + gamma n).  With u = t^(1/gamma)
# the terms peak near gamma n = u - beta.  Past u = 45 (for beta <= 1) the
# one-term asymptotic form gamma^-1 t^((1-beta)/gamma) e^u is exact to 1e-19
# relative: its algebraic remainder is e^-u times a power of u, and for
# gamma <= 4 no other exponential enters it.  A larger beta moves the
# switch out with the power; for gamma > 4 the dropped exponentials
# e^(u cos(2 pi k/gamma)) move it out by 1/(1 - cos(2 pi/gamma)).
#
# Below the switch h(log t) = log E(t) - u is read from a table, one per
# (gamma, beta), built from the series summed in log space at each point;
# the size of its terms is the larger of |h| and u (the terms that cancel in
# h).  Below the table, where t Gamma(beta) / Gamma(beta + gamma) and u are
# both under 2^-54, h is -lgamma(beta) to within 2^-53; above it, h is the
# asymptotic form's -log gamma + (1 - beta) log t / gamma.

_ML_SWITCH = 45.0
_ML_LOG_TINY = -54.0 * math.log(2.0)
# the (gamma, beta) the table is checked on: within 5.1e-14 of mpmath down to
# gamma = 0.015 (at beta = gamma, 1e-5, 1 and 20).  Below it, at large beta,
# panels reach the 2^-8 half-width with trailing coefficients past the bound:
# 1.5e-13 at (0.01, 20).  A build grows as 1/gamma, to 0.2 s and 44 MB at
# (0.015, 20)
_ML_GAMMA = (0.015, 20.0)
_ML_BETA = (1e-5, 20.0)


def _ml_switch(gamma: float, beta: float) -> float:
    u = _ML_SWITCH + 2.0 * max(beta - 1.0, 0.0)
    if gamma > 4.0:
        u /= 1.0 - math.cos(2.0 * math.pi / gamma)
    return u


@lru_cache(maxsize=16)
def _ml_table(gamma: float, beta: float) -> _Table:
    """The table of h over log t, built once per (gamma, beta)."""
    if not (_ML_GAMMA[0] <= gamma <= _ML_GAMMA[1] and _ML_BETA[0] <= beta <= _ML_BETA[1]):
        raise DomainError(f"mittag_leffler requires gamma in {list(_ML_GAMMA)} and beta "
                          f"in {list(_ML_BETA)}, got {gamma}, {beta}")
    switch = _ml_switch(gamma, beta)
    n = np.arange(math.ceil((2.0 * switch + 40.0) / gamma) + 1.0)   # every term that can matter
    log_gamma = np.array([math.lgamma(v) for v in (beta + gamma * n).tolist()])

    def values(log_t):
        u = np.exp(log_t / gamma)
        logs = np.multiply.outer(log_t, n) - log_gamma   # the series, in log space
        top = logs.max(axis=-1)
        h = top + np.log(np.exp(logs - top[..., None]).sum(axis=-1)) - u
        return h, np.maximum(np.abs(h), u)

    lo = min(_ML_LOG_TINY + math.lgamma(beta + gamma) - math.lgamma(beta),
             gamma * _ML_LOG_TINY)
    return _build_table(values, lo, gamma * math.log(switch), -math.lgamma(beta),
                        (-math.log(gamma), (1.0 - beta) / gamma))


def _log_mittag_leffler_scaled(gamma: float, beta: float, log_t):
    """log(exp(-t^(1/gamma)) E_(gamma,beta)(t)) at t = exp(log_t), elementwise.

    Given log t, t itself may lie beyond the float range, and the scaled
    value never holds the e^u that would cancel against a caller's e^-u.
    """
    return _read_tables((_ml_table(gamma, beta), log_t))[0]


def log_mittag_leffler(gamma: float, beta: float, t):
    """log E_(gamma,beta)(t) for gamma in [0.015, 20], beta in [1e-5, 20] and
    t >= 0; broadcasts over arrays of t.

    Below the switch it is read from a table of the all-positive series,
    summed in log space; past it the asymptotic form takes over.  The
    result is finite even where E itself overflows; where its log does too
    (t^(1/gamma) past the float range, t = inf included) DomainError.
    """
    gamma, beta = as_number(gamma, "gamma"), as_number(beta, "beta")
    ta = np.asarray(t, dtype=float)
    if not np.all(ta >= 0.0):
        raise DomainError(f"mittag_leffler requires t >= 0, got {t}")
    with np.errstate(divide="ignore", over="ignore"):
        out = _log_mittag_leffler_scaled(gamma, beta, np.log(ta)) + ta ** (1.0 / gamma)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"log mittag_leffler leaves the float range at t={t}")
    return out if out.ndim else float(out)


# --- the samplers' laws: incomplete beta and gamma, normal CDF -------------
#
# Each continued fraction is summed from the bottom, at the depth where the
# modified Lentz method (Thompson & Barnett, J. Comput. Phys. 64, 1986)
# finds it converged at its slowest x, for every x: an x gets the same bits
# alone or in an array.

def _lentz_depth(parts) -> int:
    """Levels of a_1/(b_1 + a_2/(b_2 + ...)), parts yielding (a_n, b_n), at
    which the modified Lentz method finds it converged, plus two."""
    c, d = _TINY, 0.0
    for n, (an, bn) in enumerate(parts, 1):
        d = 1.0 / ((bn + an * d) or _TINY)
        c = (bn + an / c) or _TINY
        if abs(c * d - 1.0) <= _EPS:
            return n + 2
    raise ConvergenceError(f"a continued fraction did not converge in {_CAP} levels")


@lru_cache(maxsize=16)
def _beta_fraction(a: float, b: float) -> tuple:
    """The numerators of I_x(a, b) over x (DLMF 8.17.22), deepest first, as
    many as x = (a + 1)/(a + b + 2) needs, past which 1 - I_(1-x)(b, a) serves."""
    m = np.arange(1.0, _CAP // 2 + 1.0)
    e = np.empty(_CAP)
    e[0::2] = -(a + m - 1.0) * (a + b + m - 1.0) / ((a + 2.0 * m - 2.0) * (a + 2.0 * m - 1.0))
    e[1::2] = m * (b - m) / ((a + 2.0 * m - 1.0) * (a + 2.0 * m))
    depth = _lentz_depth(zip([1.0, *(e * ((a + 1.0) / (a + b + 2.0)))], [1.0] * _CAP))
    return tuple(e[depth - 1::-1].tolist())


def _beta_below(a: float, b: float, x):
    """I_x(a, b) below the hand-over, on a float or elementwise on an array."""
    f = 1.0
    for e in _beta_fraction(a, b):
        f = x / f * e + 1.0
    with np.errstate(divide="ignore"):          # log 0 at x = 0: the power 0
        return np.exp(a * np.log(x) + b * np.log1p(-x)
                      - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b)) / (a * f)


def regularized_beta_cdf(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) CDF; x in [0, 1] or an array.

    The continued fraction DLMF 8.17.22 for x <= (a + 1)/(a + b + 2), and
    1 - I_(1-x)(b, a) above.  On the suites' pairs (a, 1 - a) and (a, 1/2),
    a in [0.005, 0.5], it is within 5e-15 of mpmath, and (a, 1/2) stays so
    up to a = 0.995.  Where 1 - I_(1-x)(b, a) is small it cancels: (a, 1 - a)
    with a in [0.5, 0.95] is within 5e-14, and at a = 0.995 within 2e-13
    (scipy's betainc, which this replaces: 5e-16).
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta parameters must be positive, got a={a}, b={b}")
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0.0) & (xa <= 1.0)):
        raise DomainError(f"beta argument must lie in [0, 1], got {x}")
    flip = xa > (a + 1.0) / (a + b + 2.0)
    out = np.empty_like(xa)
    out[~flip] = _beta_below(a, b, xa[~flip])
    out[flip] = 1.0 - _beta_below(b, a, 1.0 - xa[flip])
    return out if out.ndim else float(out)


@lru_cache(maxsize=16)
def _gamma_rules(a: float) -> tuple[tuple, int]:
    """The coefficients of the series of P(a, x), highest power first, and the
    depth of the fraction of Q(a, x), each enough at x = a + 1."""
    x, coef = a + 1.0, [1.0]
    while coef[-1] * x ** (len(coef) - 1) > _EPS / 8.0:
        coef.append(coef[-1] / (a + len(coef)))
    depth = _lentz_depth((-(n - 1.0) * (n - 1.0 - a) if n > 1 else 1.0, x + 2.0 * n - 1.0 - a)
                         for n in range(1, _CAP))
    return tuple(coef[::-1]), depth


def _regularized_gamma(a: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(a, x) and Q(a, x) = 1 - P, the Gamma(a) CDF and its complement, for
    0 < a <= 1 at an array of x >= 0.

    Below x = a + 1 the series of P (DLMF 8.7.1) by Horner's rule, and
    Q = 1 - P; above, Legendre's continued fraction of Q (DLMF 8.9.2), and
    P = 1 - Q.  For a in [0.005, 0.5] and x in [1e-10, 60] P is within
    6e-16 of mpmath and Q within 4.5e-13 (it cancels where P nears 1,
    below x = a + 1 at small a).
    """
    coef, depth = _gamma_rules(a)
    x = np.asarray(x, dtype=float)
    p, q = np.empty_like(x), np.empty_like(x)
    low = x < a + 1.0
    v = x[low]
    s = np.full_like(v, coef[0])
    for c in coef[1:]:
        s *= v
        s += c
    s *= np.power(v, a) * np.exp(-v) / math.gamma(a + 1.0)
    p[low], q[low] = s, 1.0 - s
    v = np.minimum(x[~low], 1e300)             # x = inf: Q = 0
    va = v - a
    g = np.full_like(v, 2.0 * depth - 1.0)      # f_n - (x - a), f_depth first
    for n in range(depth - 1, 0, -1):
        g += va
        np.divide(n * (n - a), g, out=g)
        np.subtract(2.0 * n - 1.0, g, out=g)
    g = np.power(v, a) * np.exp(-v) / (math.gamma(a) * (g + va))
    q[~low], p[~low] = g, 1.0 - g
    return p, q


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF at an array of x: Q(1/2, x^2/2)/2 below 0 and
    (1 + P(1/2, x^2/2))/2 above.  It is within 1.4e-15 of mpmath for |x| <= 5;
    further out the rounding of x^2/2 grows through e^(-x^2/2), to 3.6e-15
    at x = -10 and 5.6e-14 at -37."""
    p, q = _regularized_gamma(0.5, 0.5 * x * x)
    return np.where(x < 0.0, 0.5 * q, 0.5 + 0.5 * p)
