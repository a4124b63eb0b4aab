"""Exact samplers of hitting events, the walk-on-balls chain, and GOF tests.

All randomness flows through counter-based Philox streams keyed by
(seed, stream_id), so identical keys reproduce identical draws and
distinct stream ids are independent.  The samplers are one-shot
constructions from the closed forms:

* ball exit from the center: uniform direction times a radius R with
  1/R^2 ~ Beta(alpha/2, 1 - alpha/2);
* hyperplane hit: T0 = x_d^2 / (2 G) with G ~ Gamma((alpha-1)/2), then a
  Brownian displacement sqrt(T0) N(0, I_(d-1)) of the foot point;
* walk-on-balls: repeated scaled ball exits until an eps-shell of the
  sphere is reached (HIT), the escape radius is passed (ESCAPE), or the
  step budget runs out (INCONCLUSIVE, counted, never hidden).

Gamma variates with shape < 1 come from a vectorized squeeze-accept
rejection (valid precisely for shape < 1) that the test suite validates
against the regularized incomplete gamma before anything trusts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import StableParams, as_point
from .errors import DomainError
from .report import write_csv
from . import sphere

__all__ = [
    "RngStream",
    "EmpiricalSample",
    "WalkConfig",
    "WalkResult",
    "gamma_small_shape",
    "sample_ball_exit_center",
    "sample_halfplane_hit",
    "walk_on_balls_hitting",
    "GOFResult",
    "ks_test",
    "KS_CRITICAL",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream_id) pins the sequence."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = [self.seed & _MASK64, self.stream_id & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))


@dataclass
class EmpiricalSample:
    """Monte Carlo draws plus the metadata that reproduces them exactly."""

    draws: np.ndarray
    meta: dict

    @property
    def n(self) -> int:
        return self.draws.shape[0]

    def to_csv(self, path) -> None:
        """One draw per row; '#'-prefixed header lines carry the metadata."""
        write_csv(path, self.meta, self.draws if self.draws.ndim > 1 else self.draws[:, None])


@dataclass(frozen=True)
class WalkConfig:
    """Termination parameters of the walk-on-balls chain."""

    eps_shell: float = 1e-4
    r_max: float = 1e3
    kappa: float = 1.0
    max_steps: int = 100_000

    def __post_init__(self):
        if not (0.0 < self.eps_shell < 1.0 < self.r_max):
            raise DomainError("need 0 < eps_shell < 1 < r_max")
        if not (0.0 < self.kappa <= 1.0):
            raise DomainError("the ball-radius safety factor lies in (0, 1]")
        if self.max_steps < 1:
            raise DomainError("max_steps must be positive")


def gamma_small_shape(shape: float, rng: np.random.Generator,
                      size: int) -> np.ndarray:
    """Gamma(shape, 1) variates for 0 < shape < 1 by squeeze-accept rejection."""
    if not (0.0 < shape < 1.0):
        raise DomainError(f"this sampler covers shape in (0, 1), got {shape}")
    out = np.empty(size)
    filled = 0
    b = 1.0 + shape / math.e
    while filled < size:
        m = (size - filled) * 2 + 16
        u = rng.random(m)
        v = rng.random(m)
        prop = b * u
        small = prop <= 1.0
        with np.errstate(all="ignore"):
            x = np.where(small, prop ** (1.0 / shape), -np.log((b - prop) / shape))
            accept = np.where(small, v <= np.exp(-x), v <= x ** (shape - 1.0))
        x = x[accept]
        take = min(len(x), size - filled)
        out[filled:filled + take] = x[:take]
        filled += take
    return out


def _uniform_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.standard_normal((n, d))
    z /= np.sqrt(np.add.reduce(z * z, axis=1))[:, None]     # as np.linalg.norm forms it
    return z


def sample_ball_exit_center(p: StableParams, rng: np.random.Generator,
                            size: int = 1, return_radial: bool = False):
    """Exit points of the unit ball for the process started at its center.

    Direction uniform on the sphere by isotropy; radius R > 1 with
    1/R^2 ~ Beta(alpha/2, 1 - alpha/2).  Valid for every alpha in (0, 2).

    With ``return_radial`` the Beta complement 1 - 1/R^2 is returned
    alongside the points, at full precision: for alpha near 2 a visible
    fraction of exits sits within an ulp of the sphere, where the radius
    coordinate alone can no longer resolve the law.
    """
    if size < 1:
        raise DomainError("need at least one draw")
    g1 = gamma_small_shape(p.alpha / 2.0, rng, size)
    g2 = gamma_small_shape(1.0 - p.alpha / 2.0, rng, size)
    w = g1 / (g1 + g2)
    radius = 1.0 / np.sqrt(w)
    pts = radius[:, None] * _uniform_directions(rng, size, p.d)
    if return_radial:
        return pts, g2 / (g1 + g2)
    return pts


def sample_halfplane_hit(p: StableParams, x, rng: np.random.Generator,
                         size: int = 1,
                         return_time: bool = False):
    """Exact draws of the position where the process first meets the hyperplane.

    The hitting time of zero for the auxiliary radial motion is
    T0 = x_d^2 / (2 G) with G ~ Gamma((alpha-1)/2); conditionally on T0
    the foot point diffuses as a (d-1)-dimensional Brownian motion.  The
    draws lie exactly on the hyperplane (only the d-1 coordinates are
    returned).
    """
    p.require_hitting_range()
    x = as_point(x, p.d)
    xd = float(x[-1])
    if xd == 0.0:
        raise DomainError("the start point must lie off the hyperplane")
    if not math.isfinite(xd * xd):
        raise DomainError("the start point lies too far off the hyperplane: "
                          "x_d^2 leaves the float range")
    if size < 1:
        raise DomainError("need at least one draw")
    g = gamma_small_shape((p.alpha - 1.0) / 2.0, rng, size)
    steps = rng.standard_normal((size, p.d - 1))
    # a tail draw of G below about 1e-308 (or rounded to 0, which alpha
    # near 1 reaches) puts T0 past the float range: it rounds to inf, and
    # its position to +-inf
    with np.errstate(over="ignore", divide="ignore"):
        t0 = xd * xd / (2.0 * g)
        hits = x[:-1][None, :] + np.sqrt(t0)[:, None] * steps
    if return_time:
        return hits, t0
    return hits


@dataclass
class WalkResult:
    """Estimate of the sphere-hitting probability from the walk-on-balls chain."""

    estimate: float
    stderr: float
    bias_budget: float
    hits: int
    escapes: int
    inconclusive: int
    n: int
    bias_terms: dict = field(default_factory=dict)

    @classmethod
    def from_counts(cls, hits: int, escapes: int, inconclusive: int, n: int,
                    shell: float, escape_sup: float) -> "WalkResult":
        """The estimate hits/n, its binomial standard error, and the bias
        budget shell * estimate + escape_sup * escapes/n + inconclusive/n."""
        est = hits / n
        stderr = math.sqrt(max(est * (1.0 - est), 1e-300) / n)
        budget = shell * est + escape_sup * (escapes / n) + inconclusive / n
        return cls(est, stderr, budget, hits, escapes, inconclusive, n,
                   {"shell": shell, "escape_sup": escape_sup})

    def merge(self, other: "WalkResult") -> "WalkResult":
        """Combine disjoint-stream counters; associative and order-free."""
        return WalkResult.from_counts(
            self.hits + other.hits, self.escapes + other.escapes,
            self.inconclusive + other.inconclusive, self.n + other.n,
            *(max(self.bias_terms.get(k, 0.0), other.bias_terms.get(k, 0.0))
              for k in ("shell", "escape_sup")))


def _shell_complement_sup(p: StableParams, eps: float) -> float:
    # sup of 1 - Phi over the eps-shell: the two one-sided values bound it
    return max(sphere.phi_complement(p, 1.0 - eps), sphere.phi_complement(p, 1.0 + eps))


def _far_field_sup(p: StableParams, r_max: float, n_grid: int = 64) -> float:
    # sup of Phi over [r_max, 10 r_max] on a grid; radial monotonicity far
    # out is not a stated fact, so the window is scanned rather than assumed
    rs = np.geomspace(r_max, 10.0 * r_max, n_grid)
    return float(np.max(sphere.phi(p, rs)))


def walk_on_balls_hitting(p: StableParams, x, cfg: WalkConfig, n: int,
                          rng: np.random.Generator) -> WalkResult:
    """Estimate the sphere-hitting probability by chained exact ball exits.

    Each step jumps from the current point z by rho * (unit ball exit)
    with rho = kappa |1 - |z||; the ball is contained in the sphere
    complement, so the chain has the exact harmonic-measure law.  The
    bias budget charges (1 - inf_shell Phi) against declared hits,
    sup Phi over [r_max, 10 r_max] against escapes, and the full
    inconclusive fraction.
    """
    p.require_hitting_range()
    x = as_point(x, p.d)
    if n < 1:
        raise DomainError("need at least one walker")
    pos = np.tile(x, (n, 1))      # the live walkers, in their original order
    hits = escapes = 0
    for _ in range(cfg.max_steps):
        with np.errstate(over="ignore"):    # a radius past the float range escapes
            radii = np.linalg.norm(pos, axis=1)
        dist = np.abs(radii - 1.0)
        hit = dist < cfg.eps_shell
        esc = (radii > cfg.r_max) & ~hit
        hits += int(hit.sum())
        escapes += int(esc.sum())
        live = ~(hit | esc)
        pos = pos[live]
        if len(pos) == 0:
            break
        pos += (cfg.kappa * dist[live])[:, None] * sample_ball_exit_center(p, rng, len(pos))
    return WalkResult.from_counts(hits, escapes, len(pos), n,
                                  _shell_complement_sup(p, cfg.eps_shell),
                                  _far_field_sup(p, cfg.r_max))


# --- goodness of fit ---------------------------------------------------------

KS_CRITICAL = {0.05: 1.3581, 0.01: 1.6276}   # Kolmogorov distribution quantiles


@dataclass
class GOFResult:
    """Outcome of a goodness-of-fit test at the 0.05 and 0.01 levels."""

    test: str
    statistic: float
    critical: dict
    passed: dict
    n: int

    @property
    def passed_at_01(self) -> bool:
        return self.passed[0.01]


def ks_test(draws: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> GOFResult:
    """One-sample Kolmogorov-Smirnov test against a monotone reference CDF."""
    xs = np.sort(np.asarray(draws, dtype=float).ravel())
    n = len(xs)
    if n < 8:
        raise DomainError("the KS test needs at least 8 draws")
    f = np.asarray(cdf(xs), dtype=float)
    if np.any(np.diff(f) < -1e-12):
        raise DomainError("the reference CDF must be monotone")
    grid = np.arange(1, n + 1) / n
    stat = float(max(np.max(np.abs(grid - f)), np.max(np.abs(grid - 1.0 / n - f))))
    crit = {lvl: c / math.sqrt(n) for lvl, c in KS_CRITICAL.items()}
    return GOFResult("KS", stat, crit, {lvl: stat < c for lvl, c in crit.items()}, n)
