"""Scalar special functions underlying every closed-form kernel.

Everything here is self-contained on top of the Python ``math`` module:
Gauss hypergeometric series, the Legendre function of the first kind on
(1, oo) for the order/degree family (1 - d/2, -alpha/2), modified Bessel
functions I and K, the two-parameter Mittag-Leffler function and the
regularized incomplete beta.  Accuracy is driven by a ``SeriesControl``
(relative tolerance + term cap); defaults target ~1e-13 relative error
on the parameter ranges the kernels use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "log_gamma",
    "gamma_sign",
    "gauss_2f1",
    "gauss_2f1_tail",
    "legendre_p",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_k",
    "mittag_leffler",
    "log_mittag_leffler",
    "regularized_beta_cdf",
]

_LOG_TINY = -745.0  # exp() underflows to 0.0 below this
_LOG_HUGE = 709.0   # exp() overflows above this


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for the series/quadrature routines."""

    rel_tol: float = 1e-13
    max_terms: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_terms < 16:
            raise DomainError(f"max_terms must be >= 16, got {self.max_terms}")


DEFAULT_CONTROL = SeriesControl()


def _check_not_nonpositive_integer(x: float, what: str) -> None:
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"{what} has a pole at nonpositive integer {x}")


def log_gamma(x: float) -> float:
    """log|Gamma(x)| for real x off the poles at 0, -1, -2, ..."""
    _check_not_nonpositive_integer(x, "log_gamma")
    return math.lgamma(x)


def gamma_sign(x: float) -> float:
    """Sign of Gamma(x): +1 for x > 0, alternating on (-n-1, -n)."""
    _check_not_nonpositive_integer(x, "gamma_sign")
    if x > 0.0:
        return 1.0
    return 1.0 if math.floor(x) % 2 == 0 else -1.0


def gauss_2f1(a: float, b: float, c: float, s: float,
              control: SeriesControl = DEFAULT_CONTROL) -> float:
    """Gauss hypergeometric F(a, b; c; s) by direct series, |s| < 1.

    Pochhammer symbols are carried by the term ratio
    t_{n+1}/t_n = (a+n)(b+n) s / ((c+n)(n+1)).
    """
    return 1.0 + gauss_2f1_tail(a, b, c, s, control)


def gauss_2f1_tail(a: float, b: float, c: float, s: float,
                   control: SeriesControl = DEFAULT_CONTROL) -> float:
    """F(a, b; c; s) - 1, i.e. the series summed from n = 1.

    Splitting off the n = 0 term keeps callers that need F - 1 near s = 0
    free of cancellation.
    """
    _check_not_nonpositive_integer(c, "gauss_2f1 parameter c")
    if abs(s) >= 1.0:
        raise DomainError(f"gauss_2f1 series requires |s| < 1, got s={s}")
    if s == 0.0:
        return 0.0
    term = 1.0
    total = 0.0
    small = 0
    for n in range(control.max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * s
        total += term
        if abs(term) <= control.rel_tol * (abs(total) + 1.0):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"gauss_2f1({a}, {b}; {c}; {s}) did not converge in {control.max_terms} terms")


# --- Legendre function of the first kind on (1, oo) ---------------------
#
# Restricted to the family mu = 1 - d/2, nu = -alpha/2 with integer d >= 2
# and alpha in (1, 2).  Two complementary hypergeometric expansions are
# used: one in the variable 2/(1+t) (accurate for large t, i.e. near the
# sphere), one in (1-t)/2 (accurate for t near 1, i.e. far from the
# sphere).  They are switched at t = sqrt(5), where both series variables
# equal 1/golden-ratio and converge geometrically at the same rate.

_T_SWITCH = math.sqrt(5.0)


def _gamma_one_minus(alpha: float) -> float:
    # Gamma(1 - alpha) < 0 for alpha in (1, 2); reflection keeps it finite.
    return math.pi / (math.sin(math.pi * (1.0 - alpha)) * math.gamma(alpha))


def legendre_f1(d: int, alpha: float, t: float) -> float:
    """First prefactor of the large-t expansion of P^(1-d/2)_(-alpha/2)."""
    pref = 2.0 ** (1.0 - alpha / 2.0) * math.gamma(alpha - 1.0) / (
        math.gamma(alpha / 2.0) * math.gamma((alpha + d) / 2.0 - 1.0))
    return pref * (t + 1.0) ** (alpha / 2.0 - d / 4.0 - 0.5) * (t - 1.0) ** (d / 4.0 - 0.5)


def legendre_f2(d: int, alpha: float, t: float) -> float:
    """Second prefactor of the large-t expansion (negative for alpha in (1,2))."""
    pref = 2.0 ** (alpha / 2.0) * _gamma_one_minus(alpha) / (
        math.gamma(1.0 - alpha / 2.0) * math.gamma((d - alpha) / 2.0))
    return pref * (t + 1.0) ** (0.5 - d / 4.0 - alpha / 2.0) * (t - 1.0) ** (d / 4.0 - 0.5)


def _legendre_params(mu: float, nu: float) -> tuple[int, float]:
    d = 2.0 * (1.0 - mu)
    alpha = -2.0 * nu
    if abs(d - round(d)) > 1e-12 or round(d) < 2:
        raise DomainError(f"order mu={mu} is outside the supported family 1 - d/2, d >= 2")
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"degree nu={nu} is outside the supported family -alpha/2, alpha in (1,2)")
    return int(round(d)), alpha


def legendre_p(mu: float, nu: float, t: float,
               control: SeriesControl = DEFAULT_CONTROL) -> float:
    """Legendre P^mu_nu(t) on t > 1 for mu = 1 - d/2, nu = -alpha/2.

    For t >= sqrt(5) the two-term hypergeometric expansion in 2/(1+t) is
    used; below, the equivalent expansion in (1-t)/2,

        P^mu_nu(t) = ((t+1)/(t-1))^(mu/2)
                     * F(-nu, nu+1; 1-mu; (1-t)/2) / Gamma(1-mu),

    which stays accurate as t -> 1+.
    """
    d, alpha = _legendre_params(mu, nu)
    if t <= 1.0:
        raise DomainError(f"legendre_p requires t > 1, got t={t}")
    if t >= _T_SWITCH:
        s = 2.0 / (1.0 + t)
        return (legendre_f1(d, alpha, t) * gauss_2f1(1.0 - alpha / 2.0, (d - alpha) / 2.0,
                                                     2.0 - alpha, s, control)
                + legendre_f2(d, alpha, t) * gauss_2f1(alpha / 2.0, (d + alpha) / 2.0 - 1.0,
                                                       alpha, s, control))
    halo = ((t + 1.0) / (t - 1.0)) ** (mu / 2.0)
    return halo * gauss_2f1(-nu, nu + 1.0, 1.0 - mu, (1.0 - t) / 2.0, control) / math.gamma(1.0 - mu)


# --- modified Bessel functions ------------------------------------------

_BESSEL_I_SWITCH = 30.0  # series below, asymptotic above; overlap validated


def bessel_i_scaled(nu: float, x: float,
                    control: SeriesControl = DEFAULT_CONTROL) -> float:
    """exp(-x) I_nu(x) for x >= 0, nu >= -1/2; never overflows."""
    if x < 0.0:
        raise DomainError(f"bessel_i requires x >= 0, got {x}")
    if nu < -0.5:
        raise DomainError(f"bessel_i requires nu >= -1/2, got {nu}")
    if x < _BESSEL_I_SWITCH:
        if x == 0.0:
            return 1.0 if nu == 0.0 else 0.0
        term = math.exp(nu * math.log(x / 2.0) - math.lgamma(nu + 1.0))
        total = 0.0
        q = x * x / 4.0
        for k in range(control.max_terms):
            total += term
            term *= q / ((k + 1.0) * (nu + k + 1.0))
            if term <= control.rel_tol * total:
                return (total + term) * math.exp(-x)
        raise ConvergenceError(f"bessel_i series stalled at nu={nu}, x={x}")
    # large-x expansion, truncated at the smallest term
    mu4 = 4.0 * nu * nu
    total = 1.0
    term = 1.0
    prev = 1.0
    for k in range(40):
        term *= -(mu4 - (2 * k + 1) ** 2) / (8.0 * x * (k + 1.0))
        if abs(term) > prev:
            break
        prev = abs(term)
        total += term
        if abs(term) <= control.rel_tol * abs(total):
            break
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i(nu: float, x: float,
             control: SeriesControl = DEFAULT_CONTROL) -> float:
    """Modified Bessel I_nu(x); signals overflow where exp(x) is unrepresentable."""
    scaled = bessel_i_scaled(nu, x, control)
    if x > _LOG_HUGE and scaled > 0.0:
        raise OverflowError(f"bessel_i({nu}, {x}) exceeds the double range; "
                            "use bessel_i_scaled")
    return scaled * math.exp(x)


def bessel_k(nu: float, z: float,
             control: SeriesControl = DEFAULT_CONTROL) -> float:
    """Modified Bessel K_nu(z), z > 0, from the exponential integral form

        K_nu(z) = 2^(-nu-1) z^nu Int_0^oo exp(-t - z^2/(4t)) t^(-nu-1) dt.

    The substitution t = exp((pi/2) sinh(w)) makes the integrand decay
    doubly exponentially on both ends, so the trapezoid rule in w is
    spectrally accurate; the step is halved until the value settles to
    ``control.rel_tol``.
    """
    if z <= 0.0:
        raise DomainError(f"bessel_k requires z > 0, got {z}")
    q = z * z / 4.0

    def node(w: float) -> float:
        lt = (math.pi / 2.0) * math.sinh(w)
        if lt > _LOG_HUGE:
            return 0.0
        e = -math.exp(lt) - q * math.exp(-lt) - nu * lt
        if e < _LOG_TINY:
            return 0.0
        return math.exp(e) * (math.pi / 2.0) * math.cosh(w)

    def sweep(h: float) -> float:
        total = node(0.0)
        w = h
        while w < 700.0:
            v = node(w)
            total += v
            w += h
            if v <= total * 1e-18 and w > 3.0:
                break
        w = -h
        while w > -700.0:
            v = node(w)
            total += v
            w -= h
            if v <= total * 1e-18 and w < -3.0:
                break
        return total * h

    h = 0.5
    prev = sweep(h)
    for _ in range(8):
        h /= 2.0
        cur = sweep(h)
        if abs(cur - prev) <= control.rel_tol * abs(cur):
            prev = cur
            break
        prev = cur
    return 2.0 ** (-nu - 1.0) * z ** nu * prev


# --- Mittag-Leffler ------------------------------------------------------

def log_mittag_leffler(gamma: float, beta: float, t: float,
                       control: SeriesControl = DEFAULT_CONTROL) -> float:
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
    if peak + 60.0 * math.sqrt(max(peak, 1.0)) > control.max_terms:
        return -math.log(gamma) + (1.0 - beta) / gamma * log_t + t ** (1.0 / gamma)
    running_max = -math.inf
    acc = 0.0
    log_tol = math.log(control.rel_tol) - 5.0
    for n in range(control.max_terms):
        a = n * log_t - math.lgamma(beta + gamma * n)
        if a > running_max:
            acc = acc * math.exp(running_max - a) + 1.0
            running_max = a
        else:
            acc += math.exp(a - running_max)
        if n > peak and a - (running_max + math.log(acc)) < log_tol:
            return running_max + math.log(acc)
    raise ConvergenceError(
        f"mittag_leffler({gamma}, {beta}, {t}) did not converge in {control.max_terms} terms")


def mittag_leffler(gamma: float, beta: float, t: float,
                   control: SeriesControl = DEFAULT_CONTROL) -> float:
    """Two-parameter Mittag-Leffler E_(gamma,beta)(t); overflow raised explicitly."""
    lv = log_mittag_leffler(gamma, beta, t, control)
    if lv > _LOG_HUGE:
        raise OverflowError(f"mittag_leffler({gamma}, {beta}, {t}) overflows; "
                            "use log_mittag_leffler")
    return math.exp(lv)


# --- regularized incomplete beta -----------------------------------------

def _beta_cf(a: float, b: float, x: float, control: SeriesControl) -> float:
    # modified Lentz continued fraction for the incomplete beta
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, control.max_terms):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < control.rel_tol:
            return h
    raise ConvergenceError(f"incomplete beta continued fraction stalled at ({a}, {b}, {x})")


def regularized_beta_cdf(a: float, b: float, x: float,
                         control: SeriesControl = DEFAULT_CONTROL) -> float:
    """Regularized incomplete beta I_x(a, b) = Beta(a, b) CDF at x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta parameters must be positive, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"beta argument must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x, control) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x, control) / b
