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
``DivergenceError``.  The quadrature splits at s = 1 with a power-law
substitution on (0, 1] (absorbing the s^((alpha-3)/2) endpoint) and an
exponential (or inverse-square, when lambda = 0) substitution on
[1, oo), leaving smooth integrands for adaptive quadrature.

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
from scipy import integrate

from .core import StableParams, as_point, coerce_full_point, norm
from .errors import DivergenceError, DomainError
from .specfun import bessel_i_scaled, bessel_k, log_mittag_leffler

__all__ = [
    "RelativisticParams",
    "bessel_transition",
    "log_bessel_transition",
    "radial_reference_density",
    "subordinator_potential",
    "log_subordinator_potential",
    "lambda_potential",
    "hitting_probability_sphere",
    "hitting_laplace_transform",
    "poisson_kernel_halfspace",
    "relativistic_constant",
]

_LOG_TINY = -745.0


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
        if not (0.0 <= self.lam < self.m):
            raise DomainError(f"killing rate must satisfy 0 <= lam < m, got {self.lam}")

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def alpha(self) -> float:
        return self.base.alpha


def log_bessel_transition(d: int, t: float, x: float, y: float) -> float:
    """log of the radial Bessel transition density f(t, x, y), t > 0.

    Evaluated through the exponentially scaled Bessel I so that the
    (x - y)^2 / 4t Gaussian factor is explicit and nothing overflows.
    x = 0 or y = 0 is the small-argument limit (2t)^(-d/2) e^(-(x^2+y^2)/4t).
    """
    if t <= 0.0:
        raise DomainError(f"time must be positive, got {t}")
    if x < 0.0 or y < 0.0:
        raise DomainError("radii must be nonnegative")
    if x == 0.0 or y == 0.0:
        return -d / 2.0 * math.log(2.0 * t) - (x * x + y * y) / (4.0 * t)
    z = x * y / (2.0 * t)
    return (math.lgamma(d / 2.0) - math.log(2.0 * t)
            + (1.0 - d / 2.0) * math.log(x * y / 2.0)
            - (x - y) ** 2 / (4.0 * t)
            + math.log(bessel_i_scaled(d / 2.0 - 1.0, z)))


def bessel_transition(rp_or_d, t: float, x: float, y: float) -> float:
    """Radial Bessel transition density f(t, x, y); symmetric in (x, y)."""
    d = rp_or_d.d if isinstance(rp_or_d, RelativisticParams) else int(rp_or_d)
    lv = log_bessel_transition(d, t, x, y)
    return math.exp(lv) if lv > _LOG_TINY else 0.0


def radial_reference_density(d: int, y: float) -> float:
    """Density of the radial reference measure, 2^(1-d/2) y^(d-1) / Gamma(d/2).

    This is the speed measure against which the transition density
    integrates to one (the |B_t| law in R^d is f(t, x, y) times this).
    """
    if y < 0.0:
        raise DomainError("radius must be nonnegative")
    return 2.0 ** (1.0 - d / 2.0) * y ** (d - 1) / math.gamma(d / 2.0)


def log_subordinator_potential(rp: RelativisticParams, x: float) -> float:
    """log q_m(x) for x > 0 (stays finite where q_m itself would not)."""
    if x <= 0.0:
        raise DomainError(f"the potential density needs x > 0, got {x}")
    a, m = rp.alpha, rp.m
    return (-m ** (2.0 / a) * x + (a / 2.0 - 1.0) * math.log(x)
            + log_mittag_leffler(a / 2.0, a / 2.0, m * x ** (a / 2.0)))


def subordinator_potential(rp: RelativisticParams, x: float) -> float:
    """Potential density q_m(x) of the tempered one-sided subordinator."""
    return math.exp(log_subordinator_potential(rp, x))


def _log_time_integrand(rp: RelativisticParams, s: float, x: float, y: float) -> float:
    a = rp.alpha
    g = a / 2.0
    return (-rp.m ** (2.0 / a) * s + (g - 1.0) * math.log(s)
            + log_bessel_transition(rp.d, s, x, y)
            + log_mittag_leffler(g, g, (rp.m - rp.lam) * s ** g))


def lambda_potential(rp: RelativisticParams, x: float, y: float,
                     quad_tol: float = 1e-11) -> float:
    """The radial potential u_m^lambda(x, y); u_m for lam = 0.

    Raises ``DivergenceError`` in the regimes where the time integral is
    infinite: alpha <= 1 on the diagonal x = y, lam = 0 in d = 2, and the
    origin-diagonal x = y = 0.
    """
    if x < 0.0 or y < 0.0:
        raise DomainError("radii must be nonnegative")
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

    def log_g(s: float) -> float:
        return _log_time_integrand(rp, s, x, y)

    # (0, 1]: s = w^p with p = 2/(alpha-1) flattens the diagonal endpoint
    pw = 2.0 / (a - 1.0) if a > 1.0 else 4.0

    def inner(w: float) -> float:
        if w <= 0.0:
            return 0.0
        s = w ** pw
        lv = log_g(s) + math.log(pw) + (pw - 1.0) * math.log(w)
        return math.exp(lv) if lv > _LOG_TINY else 0.0

    v1, _ = integrate.quad(inner, 0.0, 1.0, limit=200, epsabs=quad_tol, epsrel=1e-10)

    if rp.lam > 0.0:
        rate = rp.m ** (2.0 / a) - (rp.m - rp.lam) ** (2.0 / a)

        def outer(v: float) -> float:
            if v <= 0.0:
                return 0.0
            s = 1.0 - math.log(v) / rate
            lv = log_g(s) - math.log(rate * v)
            return math.exp(lv) if lv > _LOG_TINY else 0.0
    else:
        def outer(v: float) -> float:
            if v <= 0.0:
                return 0.0
            s = v ** -2.0
            lv = log_g(s) + math.log(2.0) - 3.0 * math.log(v)
            return math.exp(lv) if lv > _LOG_TINY else 0.0

    v2, _ = integrate.quad(outer, 0.0, 1.0, limit=200, epsabs=quad_tol, epsrel=1e-10)
    return v1 + v2


def hitting_probability_sphere(rp: RelativisticParams, r: float, x) -> float:
    """Probability that the relativistic process ever hits the sphere of radius r.

    Identically 1 in d = 2; the ratio u_m(|x|, r) / u_m(r, r) in d >= 3.
    Requires alpha in (1, 2) (the sphere is polar otherwise).
    """
    rp.base.require_hitting_range()
    if r <= 0.0:
        raise DomainError(f"sphere radius must be positive, got {r}")
    rho = _radial_argument(rp, x)
    if rp.d == 2:
        return 1.0
    if rho == r:
        return 1.0
    zero = RelativisticParams(rp.base, rp.m, 0.0)
    return lambda_potential(zero, rho, r) / lambda_potential(zero, r, r)


def hitting_laplace_transform(rp: RelativisticParams, r: float, x, lam: float) -> float:
    """Exponentially discounted hitting functional of the radius-r sphere.

    For 0 < lam < m this is u_m^lambda(|x|, r) / u_m^lambda(r, r); it is
    nonincreasing in lam and tends to the plain hitting probability as
    lam -> 0 where that is defined.
    """
    rp.base.require_hitting_range()
    if not (0.0 < lam < rp.m):
        raise DomainError(f"the transform needs 0 < lam < m, got lam={lam}")
    if r <= 0.0:
        raise DomainError(f"sphere radius must be positive, got {r}")
    rho = _radial_argument(rp, x)
    shifted = RelativisticParams(rp.base, rp.m, lam)
    if rho == r:
        return 1.0
    return lambda_potential(shifted, rho, r) / lambda_potential(shifted, r, r)


def _radial_argument(rp: RelativisticParams, x) -> float:
    if np.isscalar(x):
        if x < 0.0:
            raise DomainError("radius must be nonnegative")
        return float(x)
    return norm(as_point(x, rp.d))


def relativistic_constant(rp: RelativisticParams) -> float:
    """C4, the constant of the killed-process hyperplane kernel."""
    a, d, m = rp.alpha, rp.d, rp.m
    rp.base.require_hitting_range()
    return ((a - 1.0) * (m ** (1.0 / a) / 2.0) ** ((d + a - 2.0) / 2.0)
            / (math.pi ** ((d - 1.0) / 2.0) * math.gamma((a + 1.0) / 2.0)))


def poisson_kernel_halfspace(rp: RelativisticParams, x, ybar):
    """Hitting density of the hyperplane for the process killed at rate m.

    C4 |x_d|^(alpha-1) K_((d+alpha-2)/2)(m^(1/alpha)|x-y|) / |x-y|^((d+alpha-2)/2).
    Integrates to strictly less than 1 (the kill may fire first); recovers
    the stable kernel as m -> 0.
    """
    c4 = relativistic_constant(rp)
    x = coerce_full_point(x, rp.d)
    xd = x[-1]
    if xd == 0.0:
        raise DomainError("x must lie off the hyperplane")
    y = np.asarray(ybar, dtype=float)
    if y.shape[-1] != rp.d - 1:
        raise DomainError(f"boundary points have length {rp.d - 1}")
    diff = x[:-1] - y
    dist = np.sqrt(np.sum(diff * diff, axis=-1) + xd * xd)
    nu = (rp.d + rp.alpha - 2.0) / 2.0
    scale = rp.m ** (1.0 / rp.alpha)
    out = c4 * abs(xd) ** (rp.alpha - 1.0) * bessel_k(nu, scale * dist) / dist ** nu
    return out if np.ndim(out) else float(out)
