"""Special functions underlying every closed-form kernel.

Gauss 2F1, the exponentially scaled modified Bessel function I, the
modified Bessel function K and the regularized incomplete beta are
``scipy.special``'s ``hyp2f1``, ``ive``, ``kv`` and ``betainc`` behind this
package's domain checks and typed errors.
Three pieces stay here, each for a measured reason: the F - 1 series
``TailPair``, because ``hyp2f1 - 1`` loses digits where F - 1 is small (it
sums as many of 80 terms as |s| needs, about 6 at 2e-3 and 22 at 0.19, up
to a reach it works out from the coefficients: |s| ~ 0.65 at d = 2, 0.61
at d = 5 and 0.09 at d = 400 for the sphere, and NaN past it, where from
d = 5 on the sphere's Phi is the sum of its zonal weights); the x >= 30
expansion of ``bessel_i_scaled``, because scipy's ``ive`` is NaN from
x ~ 1.1e9 on (orders 0, 1/2 and 1 take ``i0e``, a closed form and ``i1e``
instead, 5-10x faster than ``ive``); and the Mittag-Leffler function,
which scipy lacks, as its logarithm.  Bessel I and the Mittag-Leffler
function come only in these forms, which never overflow.

The Mittag-Leffler function takes arrays: below t^(1/gamma) = 45 it is
read from a table of Chebyshev interpolants in log t, built on first use
for each (gamma, beta) from its series summed in log space (16 panels and
1.4-1.7 ms at gamma = beta = 0.6 or 0.75), in a fixed number of array
operations per call; past it the one-term asymptotic form is exact to
1e-19 relative.
``_log_mittag_leffler_scaled`` gives log(e^(-t^(1/gamma)) E(t)) from
log t, for callers whose t leaves the float range or who would cancel
the e^(t^(1/gamma)).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np
from scipy import special as _sps

from .errors import DomainError, PoleError

__all__ = [
    "gauss_2f1",
    "TailPair",
    "bessel_i_scaled",
    "bessel_k",
    "log_mittag_leffler",
    "regularized_beta_cdf",
]

def _check_2f1(c: float, s: float) -> None:
    if c <= 0.0 and c == math.floor(c):
        raise PoleError(f"gauss_2f1 parameter c has a pole at nonpositive integer {c}")
    if not abs(s) < 1.0:
        raise DomainError(f"gauss_2f1 requires |s| < 1, got s={s}")


def gauss_2f1(a: float, b: float, c: float, s: float) -> float:
    """Gauss hypergeometric F(a, b; c; s) for |s| < 1."""
    _check_2f1(c, s)
    return float(_sps.hyp2f1(a, b, c, s))


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

_BESSEL_I_SWITCH = 30.0  # scipy below, asymptotic expansion above
_EXPANSION_TERMS = 40


@lru_cache(maxsize=16)
def _expansion_ratios(nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Ratios of successive terms of the large-x series (times x), and
    their running maximum: term k is below term k-1 while x >= the latter."""
    k = np.arange(_EXPANSION_TERMS)
    ratio = -(4.0 * nu * nu - (2.0 * k + 1.0) ** 2) / (8.0 * (k + 1.0))
    for arr in (ratio, reach := np.maximum.accumulate(np.abs(ratio))):
        arr.setflags(write=False)
    return ratio, reach


def _bessel_i_expansion(nu: float, x: np.ndarray) -> np.ndarray:
    """sqrt(2 pi x) exp(-x) I_nu(x) from the large-x series in 1/x,
    truncated at its smallest term; elementwise over x."""
    ratio, reach = _expansion_ratios(nu)
    terms = np.cumprod(ratio / x[:, None], axis=1)
    return 1.0 + np.sum(terms, axis=1, where=reach <= x[:, None])


# the orders of dimensions 2, 3 and 4 have forms good for every x, and faster than
# ive's; exp(-x) I_(1/2)(x) = (1 - exp(-2x)) / sqrt(2 pi x), 0 at x = 0
_IVE = {0.0: _sps.i0e, 1.0: _sps.i1e,
        0.5: lambda x: np.divide(-np.expm1(-2.0 * x), math.sqrt(2.0 * math.pi) * np.sqrt(x),
                                 out=np.zeros_like(x), where=x > 0.0)}


def _bessel_i_scaled(nu: float, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_nu(x) at an array of x >= 0, nu >= -1/2, unchecked."""
    if nu in _IVE:
        return np.asarray(_IVE[nu](x))
    big = x >= _BESSEL_I_SWITCH
    out = np.asarray(_sps.ive(nu, np.where(big, 0.0, x)))
    if big.any():
        xb = x[big]
        out[big] = _bessel_i_expansion(nu, xb) / np.sqrt(2.0 * math.pi * xb)
    return out


def bessel_i_scaled(nu: float, x):
    """exp(-x) I_nu(x) for x >= 0, nu >= -1/2; never overflows; broadcasts over arrays of x."""
    xa = np.asarray(x, dtype=float)
    if (xa < 0.0).any():
        raise DomainError(f"bessel_i requires x >= 0, got {x}")
    if nu < -0.5:
        raise DomainError(f"bessel_i requires nu >= -1/2, got {nu}")
    out = _bessel_i_scaled(nu, xa)
    if nu < 0.0:
        out[xa == 0.0] = math.inf   # scipy gives NaN for this limit
    return out if out.ndim else float(out)


def bessel_k(nu: float, z):
    """Modified Bessel K_nu(z) for z > 0; broadcasts over arrays of z."""
    if not np.all(np.asarray(z) > 0.0):
        raise DomainError(f"bessel_k requires z > 0, got {z}")
    out = _sps.kv(nu, z)
    return out if np.ndim(out) else float(out)


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
# Below the switch h(log t) = log E(t) - u is read from a table of
# Chebyshev interpolants of degree 16, one per panel of log t.  Each
# (gamma, beta) gets its own: the series is summed at the interpolation
# points of one panel spanning the range, and a panel is bisected until
# its two trailing coefficients are at most 2^-52 of the largest of 1,
# |h| and u on it (u is the size of the terms that cancel in h, and so
# of the series' rounding).  Below the table, where t Gamma(beta) /
# Gamma(beta + gamma) and u are both under 2^-54, h is -lgamma(beta) to
# within 2^-53.

_ML_SWITCH = 45.0
_ML_POINTS = 17                     # per panel: degree 16
# the interpolation points cos(pi j / 34), j = 33, 31, .., 1 (ascending), and the
# matrix taking the values there to the coefficients of T_0 .. T_16 (a DCT).  Its
# angles are reduced mod 2 pi in integers: unreduced, the rounding of cos(16 theta)
# gave a constant 4e-16 of itself in T_16, past the bisection's bound
_ML_ODD = np.arange(2 * _ML_POINTS - 1, 0, -2)
_ML_CHEB = np.cos(np.pi / (2 * _ML_POINTS) * _ML_ODD)
_ML_DCT = np.cos(np.pi / (2 * _ML_POINTS) * (np.multiply.outer(_ML_ODD, np.arange(_ML_POINTS))
                                             % (4 * _ML_POINTS))) * (
    np.where(np.arange(_ML_POINTS), 2.0, 1.0) / _ML_POINTS)
_ML_LOG_TINY = -54.0 * math.log(2.0)
_ML_MIN_HALF = 2.0 ** -8            # bisection stops at this half-width


def _ml_switch(gamma: float, beta: float) -> float:
    u = _ML_SWITCH + 2.0 * max(beta - 1.0, 0.0)
    if gamma > 4.0:
        u /= 1.0 - math.cos(2.0 * math.pi / gamma)
    return u


@lru_cache(maxsize=16)
def _ml_table(gamma: float, beta: float) -> tuple:
    """The Chebyshev table of h on [lo, hi]: lo, hi, the inner panel edges,
    the panels' midpoints and inverse half-widths, and their coefficients,
    a column of 17 per panel."""
    switch = _ml_switch(gamma, beta)
    n = np.arange(math.ceil((2.0 * switch + 40.0) / gamma) + 1.0)   # every term that can matter
    log_gamma = _sps.gammaln(beta + gamma * n)
    hi = gamma * math.log(switch)
    lo = min(_ML_LOG_TINY + math.lgamma(beta + gamma) - math.lgamma(beta),
             gamma * _ML_LOG_TINY)
    todo, done = np.array([[lo, hi]]), []
    while len(todo):
        mid, half = todo.mean(axis=1), 0.5 * (todo[:, 1] - todo[:, 0])
        log_t = mid[:, None] + half[:, None] * _ML_CHEB
        u = np.exp(log_t / gamma)
        logs = np.multiply.outer(log_t, n) - log_gamma   # the series, in log space
        top = logs.max(axis=-1)
        h = top + np.log(np.exp(logs - top[..., None]).sum(axis=-1)) - u
        coef = h @ _ML_DCT
        scale = np.maximum(np.maximum(np.abs(h), u).max(axis=1), 1.0)
        ok = (np.abs(coef[:, -2:]).max(axis=1) <= 2.0 ** -52 * scale) | (half <= _ML_MIN_HALF)
        done += zip(todo[ok, 0].tolist(), coef[ok])
        split, cut = todo[~ok], mid[~ok]
        todo = np.column_stack([split[:, 0], cut, cut, split[:, 1]]).reshape(-1, 2)
    done.sort(key=lambda panel: panel[0])
    edges = np.array([a for a, _ in done] + [hi])
    table = (edges[1:-1], 0.5 * (edges[1:] + edges[:-1]), 2.0 / (edges[1:] - edges[:-1]),
             np.array([c for _, c in done]).T.copy())
    for arr in table:
        arr.setflags(write=False)
    return (lo, hi, *table)


def _log_mittag_leffler_scaled(gamma: float, beta: float, log_t):
    """log(exp(-t^(1/gamma)) E_(gamma,beta)(t)) at t = exp(log_t), elementwise.

    Given log t, t itself may lie beyond the float range, and the scaled
    value never holds the e^u that would cancel against a caller's e^-u.
    """
    log_t = np.asarray(log_t, dtype=float)
    lo, hi, inner, mid, inv_half, coef = _ml_table(gamma, beta)
    with np.errstate(invalid="ignore"):           # 0 * inf at beta = 1
        asymptotic = -math.log(gamma) + (1.0 - beta) / gamma * log_t
    x = np.clip(log_t.ravel(), lo, hi)
    panel = np.searchsorted(inner, x)               # NaN: the last panel
    z = (x - mid[panel]) * inv_half[panel]
    # Clenshaw's recurrence down the gathered columns: elementwise ufuncs only,
    # so a scalar t and the same t inside an array get the same bits
    c = coef[:, panel]
    z2, b1, b2 = z + z, c[-1], 0.0
    for k in range(_ML_POINTS - 2, 0, -1):
        b1, b2 = c[k] + z2 * b1 - b2, b1
    h = (c[0] + z * b1 - b2).reshape(log_t.shape)
    h[log_t < lo] = -math.lgamma(beta)              # t = 0 too
    return np.where(log_t <= hi, h, asymptotic)     # NaN: the asymptotic form's NaN


def log_mittag_leffler(gamma: float, beta: float, t):
    """log E_(gamma,beta)(t) for gamma, beta > 0 and t >= 0; broadcasts over arrays of t.

    Below the switch it is read from a Chebyshev table of the all-positive
    series, summed in log space; past it the asymptotic form takes over.
    The result stays finite even where E itself overflows.
    """
    if gamma <= 0.0 or beta <= 0.0:
        raise DomainError(f"mittag_leffler requires gamma, beta > 0, got {gamma}, {beta}")
    ta = np.asarray(t, dtype=float)
    if not np.all(ta >= 0.0):
        raise DomainError(f"mittag_leffler requires t >= 0, got {t}")
    with np.errstate(divide="ignore", over="ignore"):
        out = _log_mittag_leffler_scaled(gamma, beta, np.log(ta)) + ta ** (1.0 / gamma)
    return out if out.ndim else float(out)


# --- regularized incomplete beta -----------------------------------------

def regularized_beta_cdf(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) CDF; x in [0, 1] or an array."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta parameters must be positive, got a={a}, b={b}")
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0.0) & (xa <= 1.0)):
        raise DomainError(f"beta argument must lie in [0, 1], got {x}")
    out = _sps.betainc(a, b, xa)
    return out if np.ndim(out) else float(out)
