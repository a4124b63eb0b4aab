"""Special functions underlying every closed-form kernel.

Gauss 2F1, the modified Bessel functions I and K and the regularized
incomplete beta are ``scipy.special``'s ``hyp2f1``, ``ive``, ``kv`` and
``betainc`` behind this package's domain checks and typed errors.
Three pieces stay here, each for a measured reason: ``gauss_2f1_tail``
(F - 1 as a fixed 80-term series, about 1e-15 relative for |s| <= 0.618),
because ``hyp2f1 - 1`` loses digits where F - 1 is small; the x >= 30
expansion of ``bessel_i_scaled``, because scipy's ``ive`` is NaN from
x ~ 1.1e9 on; and the Mittag-Leffler function, which scipy lacks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _sps

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "gauss_2f1",
    "gauss_2f1_tail",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_k",
    "mittag_leffler",
    "log_mittag_leffler",
    "regularized_beta_cdf",
]

_LOG_HUGE = 709.0   # exp() overflows above this
_REL_TOL = 1e-13    # truncation of the Bessel I expansion and Mittag-Leffler series
_MAX_TERMS = 10_000  # Mittag-Leffler series term cap


def _check_not_nonpositive_integer(x: float, what: str) -> None:
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"{what} has a pole at nonpositive integer {x}")


def _check_2f1(c: float, s: float) -> None:
    _check_not_nonpositive_integer(c, "gauss_2f1 parameter c")
    if not abs(s) < 1.0:
        raise DomainError(f"gauss_2f1 requires |s| < 1, got s={s}")


def gauss_2f1(a: float, b: float, c: float, s: float) -> float:
    """Gauss hypergeometric F(a, b; c; s) for |s| < 1."""
    _check_2f1(c, s)
    return float(_sps.hyp2f1(a, b, c, s))


_TAIL_POWERS = np.arange(1.0, 81.0)   # the 80 series terms s^1 ... s^80
_TAIL_MAX_S = 0.618                   # where 80 terms reach double precision


@lru_cache(maxsize=64)
def _tail_coefficients(a: float, b: float, c: float) -> np.ndarray:
    n = _TAIL_POWERS - 1.0
    coef = np.cumprod((a + n) * (b + n) / ((c + n) * (n + 1.0)))
    coef.setflags(write=False)
    return coef


def gauss_2f1_tail(a: float, b: float, c: float, s: float) -> float:
    """F(a, b; c; s) - 1 free of cancellation: for |s| <= 0.618 the series
    sum_(n=1..80) (a)_n (b)_n / ((c)_n n!) s^n, beyond it hyp2f1 - 1."""
    _check_2f1(c, s)
    if abs(s) > _TAIL_MAX_S:
        return float(_sps.hyp2f1(a, b, c, s)) - 1.0
    return float(_tail_coefficients(a, b, c) @ s ** _TAIL_POWERS)


# --- Legendre function of the first kind on (1, oo) ---------------------
#
# For mu = 1 - d/2, nu = -alpha/2 (integer d >= 2, alpha in (1, 2)), the
# expansion in 2/(1+t) for large t (near the sphere) has two terms; this
# is the prefactor of the first.

def legendre_f1(d: int, alpha: float, t: float) -> float:
    """First prefactor of the large-t expansion of P^(1-d/2)_(-alpha/2)."""
    pref = 2.0 ** (1.0 - alpha / 2.0) * math.gamma(alpha - 1.0) / (
        math.gamma(alpha / 2.0) * math.gamma((alpha + d) / 2.0 - 1.0))
    return pref * (t + 1.0) ** (alpha / 2.0 - d / 4.0 - 0.5) * (t - 1.0) ** (d / 4.0 - 0.5)


# --- modified Bessel functions ------------------------------------------

_BESSEL_I_SWITCH = 30.0  # scipy below, asymptotic expansion above


def bessel_i_scaled(nu: float, x: float) -> float:
    """exp(-x) I_nu(x) for x >= 0, nu >= -1/2; never overflows."""
    if x < 0.0:
        raise DomainError(f"bessel_i requires x >= 0, got {x}")
    if nu < -0.5:
        raise DomainError(f"bessel_i requires nu >= -1/2, got {nu}")
    if x == 0.0 and nu < 0.0:
        return math.inf   # scipy gives NaN for this limit
    if x < _BESSEL_I_SWITCH:
        return float(_sps.ive(nu, x))
    # large-x expansion, truncated at the smallest term
    mu4 = 4.0 * nu * nu
    total = term = prev = 1.0
    for k in range(40):
        term *= -(mu4 - (2 * k + 1) ** 2) / (8.0 * x * (k + 1.0))
        if abs(term) > prev:
            break
        prev = abs(term)
        total += term
        if abs(term) <= _REL_TOL * abs(total):
            break
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel I_nu(x); signals overflow where exp(x) is unrepresentable."""
    scaled = bessel_i_scaled(nu, x)
    if x > _LOG_HUGE and scaled > 0.0:
        raise OverflowError(f"bessel_i({nu}, {x}) overflows; use bessel_i_scaled")
    return scaled * math.exp(x)


def bessel_k(nu: float, z):
    """Modified Bessel K_nu(z) for z > 0; broadcasts over arrays of z."""
    if not np.all(np.asarray(z) > 0.0):
        raise DomainError(f"bessel_k requires z > 0, got {z}")
    out = _sps.kv(nu, z)
    return out if np.ndim(out) else float(out)


# --- Mittag-Leffler ------------------------------------------------------

def log_mittag_leffler(gamma: float, beta: float, t: float) -> float:
    """log E_(gamma,beta)(t) for gamma, beta > 0 and t >= 0.

    The all-positive series sum_n t^n / Gamma(beta + gamma n) is
    accumulated in log space (streaming log-sum-exp), so the result stays
    finite even when E itself overflows.  When the dominant series index
    ~ t^(1/gamma)/gamma would exceed the term cap, the large-t form
    gamma^-1 t^((1-beta)/gamma) exp(t^(1/gamma)) takes over; at that
    point its relative error is far below double precision.
    """
    if gamma <= 0.0 or beta <= 0.0:
        raise DomainError(f"mittag_leffler requires gamma, beta > 0, got {gamma}, {beta}")
    if t < 0.0:
        raise DomainError(f"mittag_leffler requires t >= 0, got {t}")
    if t == 0.0:
        return -math.lgamma(beta)
    log_t = math.log(t)
    peak = (t ** (1.0 / gamma) - beta) / gamma
    if peak + 60.0 * math.sqrt(max(peak, 1.0)) > _MAX_TERMS:
        return -math.log(gamma) + (1.0 - beta) / gamma * log_t + t ** (1.0 / gamma)
    running_max = -math.inf
    acc = 0.0
    log_tol = math.log(_REL_TOL) - 5.0
    for n in range(_MAX_TERMS):
        a = n * log_t - math.lgamma(beta + gamma * n)
        if a > running_max:
            acc = acc * math.exp(running_max - a) + 1.0
            running_max = a
        else:
            acc += math.exp(a - running_max)
        if n > peak and a - (running_max + math.log(acc)) < log_tol:
            return running_max + math.log(acc)
    raise ConvergenceError(
        f"mittag_leffler({gamma}, {beta}, {t}) did not converge in {_MAX_TERMS} terms")


def mittag_leffler(gamma: float, beta: float, t: float) -> float:
    """Two-parameter Mittag-Leffler E_(gamma,beta)(t); overflow raised explicitly."""
    lv = log_mittag_leffler(gamma, beta, t)
    if lv > _LOG_HUGE:
        raise OverflowError(f"E_({gamma},{beta})({t}) overflows; use log_mittag_leffler")
    return math.exp(lv)


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
