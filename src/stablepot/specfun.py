"""Special functions underlying every closed-form kernel.

Gauss 2F1, the exponentially scaled modified Bessel function I, the
modified Bessel function K and the regularized incomplete beta are
``scipy.special``'s ``hyp2f1``, ``ive``, ``kv`` and ``betainc`` behind this
package's domain checks and typed errors.
Three pieces stay here, each for a measured reason: the F - 1 series
``TailPair``, because ``hyp2f1 - 1`` loses digits where F - 1 is small (it
sums as many of 80 terms as |s| needs, about 6 at 2e-3 and 22 at 0.19, up
to a reach it works out from the coefficients: |s| ~ 0.66 at d = 2, 0.09
at d = 400 for the sphere); the x >= 30 expansion of ``bessel_i_scaled``,
because scipy's ``ive`` is NaN from x ~ 1.1e9 on; and the Mittag-Leffler
function, which scipy lacks, as its logarithm.  Bessel I and the
Mittag-Leffler function come only in these forms, which never overflow.

The Mittag-Leffler function takes arrays: below t^(1/gamma) = 45 its
series is summed in log space as one block per band of arguments, with
the term count set by the band's largest t^(1/gamma); past it the
one-term asymptotic form is exact to 1e-19 relative.
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

_LOG_HUGE = 709.0   # exp() overflows above this


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
    pass over as many of 80 terms as |s| needs; past their reach, hyp2f1 - 1."""

    def __init__(self, first: tuple, second: tuple):
        self.params = (first, second)
        a, b, c = np.array(self.params).T[:, :, None]
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
        # NaN and |s| >= 1 land past the reach, where _check_2f1 refuses them
        n = bisect_right(self._reach, abs(s)) + 1
        if n > _TAIL_TERMS:
            for _, _, c in self.params:
                _check_2f1(c, s)
            return tuple(float(_gauss_2f1_minus_one_array(*abc, np.array([s]))[0])
                         for abc in self.params)
        tail1 = tail2 = 0.0
        for c1, c2 in self._coef[_TAIL_TERMS - n:]:
            tail1 = (tail1 + c1) * s
            tail2 = (tail2 + c2) * s
        return tail1, tail2

    def on_array(self, s: np.ndarray) -> np.ndarray:
        """Both tails at every element of a flat array s, finite with |s| < 1,
        stacked on a new first axis: ``__call__``'s Horner steps, run on each
        element from its own first term, so every element sees the arithmetic
        of ``__call__``; past the reach, hyp2f1 - 1."""
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
        if past.any():
            tails[:, past] = [_gauss_2f1_minus_one_array(*abc, s[past]) for abc in self.params]
        return tails


def _libm_map(fn, x: np.ndarray, *args) -> np.ndarray:
    # fn, a function of floats such as math.exp or pow, at every element of x
    # (and of args), rounded as the C library rounds it: numpy's own exp, log1p
    # and power differ in the last place for some 5% of arguments
    return np.fromiter(map(fn, x.tolist(), *args), float, count=x.size)


def _gauss_2f1_minus_one_array(a: float, b: float, c: float, s: np.ndarray) -> np.ndarray:
    # F(a, b; c; s) - 1 at every element of s, |s| < 1, by hyp2f1, which
    # takes an a below ~1e-13 for 0: so F(a, b; 2a; s) (the sphere's F1 as
    # alpha -> 2) by the quadratic transformation (1 - s/2)^(-b)
    # F(b/2, b/2 + 1/2; a + 1/2; (s/(2 - s))^2) (DLMF 15.8.13), with a
    # prefactor past the float range taken as inf
    if c != 2.0 * a:
        return _sps.hyp2f1(a, b, c, s) - 1.0
    log_pref = -b * _libm_map(math.log1p, -s / 2.0)
    pref = _libm_map(math.exp, np.minimum(log_pref, _LOG_HUGE))
    pref[log_pref >= _LOG_HUGE] = math.inf
    with np.errstate(invalid="ignore"):
        return pref * _sps.hyp2f1(b / 2.0, b / 2.0 + 0.5, a + 0.5, (s / (2.0 - s)) ** 2) - 1.0


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


def bessel_i_scaled(nu: float, x):
    """exp(-x) I_nu(x) for x >= 0, nu >= -1/2; never overflows; broadcasts over arrays of x."""
    xa = np.asarray(x, dtype=float)
    if (xa < 0.0).any():
        raise DomainError(f"bessel_i requires x >= 0, got {x}")
    if nu < -0.5:
        raise DomainError(f"bessel_i requires nu >= -1/2, got {nu}")
    big = xa >= _BESSEL_I_SWITCH
    out = np.asarray(_sps.ive(nu, np.where(big, 0.0, xa)))
    if nu < 0.0:
        out[xa == 0.0] = math.inf   # scipy gives NaN for this limit
    if big.any():
        xb = xa[big]
        out[big] = _bessel_i_expansion(nu, xb) / np.sqrt(2.0 * math.pi * xb)
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

_ML_SWITCH = 45.0


def _ml_switch(gamma: float, beta: float) -> float:
    u = _ML_SWITCH + 2.0 * max(beta - 1.0, 0.0)
    if gamma > 4.0:
        u /= 1.0 - math.cos(2.0 * math.pi / gamma)
    return u


def _log_mittag_leffler_scaled(gamma: float, beta: float, log_t):
    """log(exp(-t^(1/gamma)) E_(gamma,beta)(t)) at t = exp(log_t), elementwise.

    Given log t, t itself may lie beyond the float range, and the scaled
    value never holds the e^u that would cancel against a caller's e^-u.
    """
    log_t = np.asarray(log_t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):   # 0 * log 0 at beta = 1
        u = np.exp(log_t / gamma)
        out = np.array(-math.log(gamma) + (1.0 - beta) / gamma * log_t)
    # the terms needed grow with u: sum each band of u with its own count
    for lo, hi in ((-1.0, 4.0), (4.0, 16.0), (16.0, _ml_switch(gamma, beta))):
        band = (lo < u) & (u <= hi)
        if not band.any():
            continue
        # from gamma n = 2u + 40 on, a term is below e^-50 of the sum
        n = np.arange(math.ceil((2.0 * u[band].max() + 40.0) / gamma) + 1)
        log_gamma = _sps.gammaln(beta + gamma * n)
        with np.errstate(invalid="ignore"):      # 0 * log 0 at t = 0
            logs = np.multiply.outer(log_t[band], n) - log_gamma
        logs[:, 0] = -log_gamma[0]               # t^0 = 1, also at t = 0
        top = logs.max(axis=1)
        out[band] = top + np.log(np.exp(logs - top[:, None]).sum(axis=1)) - u[band]
    return out


def log_mittag_leffler(gamma: float, beta: float, t):
    """log E_(gamma,beta)(t) for gamma, beta > 0 and t >= 0; broadcasts over arrays of t.

    Below the switch the all-positive series is summed in log space; past
    it the asymptotic form takes over.  The result stays finite even where
    E itself overflows.
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
