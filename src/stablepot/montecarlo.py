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
against the regularized incomplete gamma before anything trusts it.  A
round evaluates only the proposals it is likely to keep, and on a Philox
stream draws only those too: Philox is counter-based, so the uniforms a
round never reads are jumped over.  Stream and draws stay those of
drawing and evaluating the whole round (the tests keep that form as an
oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.random  # noqa: F401 -- numpy loads it on first use; here no sampler pays it mid-run

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
    max_steps: int = 100_000

    def __post_init__(self):
        if not (0.0 < self.eps_shell < 1.0 < self.r_max):
            raise DomainError("need 0 < eps_shell < 1 < r_max")
        if not 10.0 * self.r_max < math.inf:
            raise DomainError(f"the far-field window [r_max, 10 r_max] leaves the float "
                              f"range, got r_max={self.r_max}")
        if self.max_steps < 1:
            raise DomainError("max_steps must be positive")


# rounds of fewer proposals are drawn whole: there the state read and the
# two jumps (about 6 µs) cost more than the draws they skip
_JUMP_MIN = 2048


def gamma_small_shape(shape: float, rng: np.random.Generator,
                      size: int) -> np.ndarray:
    """Gamma(shape, 1) variates for 0 < shape < 1 by squeeze-accept rejection.

    The GS rejection of Ahrens and Dieter: a round stands for m = 2 need + 16
    uniforms u, then m uniforms v, and proposes prop = (1 + shape/e) u.  It
    evaluates a prefix of k = need/A + 3 sqrt(need) + 16 proposals, A the
    exact acceptance Gamma(shape + 1)/(1 + shape/e) (0.72 at worst), and
    the rest of the round only if that falls short.  On a Philox stream a
    round of m >= _JUMP_MIN draws only u[:k] and v[:k] and jumps the
    counter over the rest; if the prefix falls short, the stream is put
    back and the whole round drawn.  Every other round draws it whole.
    Either way the draws and the stream after each round are those of
    drawing and evaluating the whole round.
    """
    if not (0.0 < shape < 1.0):
        raise DomainError(f"this sampler covers shape in (0, 1), got {shape}")
    if size < 1:
        raise DomainError("need at least one draw")
    out = np.empty(size)
    filled = 0
    b = 1.0 + shape / math.e
    acceptance = math.gamma(shape + 1.0) / b
    bitgen = rng.bit_generator
    philox = isinstance(bitgen, np.random.Philox)
    with np.errstate(all="ignore"):             # prop^(1/shape) may underflow
        while filled < size:
            need = size - filled
            m = 2 * need + 16
            k = min(m, int(need / acceptance + 3.0 * math.sqrt(need)) + 16)
            state = bitgen.state if philox and m >= _JUMP_MIN else None
            if state and not state["has_uint32"]:   # a jump would drop a buffered 32-bit half
                unread = 4 - state["buffer_pos"]    # draws left in the current block of 4
                prop = rng.random(k)                # k >= 16 draws run past that block
                _skip(bitgen, m - k, (unread - k) % 4)
                v = rng.random(k)
                _skip(bitgen, m - k, (unread - m - k) % 4)
                prop *= b
                x = _gs_accepted(shape, b, prop, v)
                if len(x) >= need:
                    out[filled:] = x[:need]
                    return out
                bitgen.state = state                # fell short: draw the whole round
            prop, v = rng.random(m), rng.random(m)
            prop *= b
            for lo, hi in ((0, k), (k, m)):
                x = _gs_accepted(shape, b, prop[lo:hi], v[lo:hi])[:size - filled]
                out[filled:filled + len(x)] = x
                filled += len(x)
                if filled == size:
                    break
    return out


def _skip(bitgen: np.random.Philox, n: int, unread: int) -> None:
    # advance a Philox stream by n draws, the first `unread` of them still in
    # its buffer: one counter step is a block of 4 draws, and a jump drops
    # the buffer, so the draws past the last whole block are read and dropped
    if n <= unread:
        bitgen.random_raw(n)
        return
    blocks, rest = divmod(n - unread, 4)
    bitgen.advance(blocks)
    bitgen.random_raw(rest)


def _gs_accepted(shape: float, b: float, prop: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
    # The accepted variates of the proposals prop against v, in order.  Every
    # proposal takes the prop <= 1 branch, x = prop^(1/shape) accepted when
    # v <= exp(-x); the few with prop > 1 are then redone on their indices
    # alone: x = -log((b - prop)/shape) accepted when v <= x^(shape - 1).
    # The caller ignores floating-point errors.
    x = prop ** (1.0 / shape)
    scratch = np.negative(x)
    keep = v <= np.exp(scratch, out=scratch)
    big = np.flatnonzero(prop > 1.0)
    if big.size:
        x_big = -np.log((b - prop[big]) / shape)
        x[big] = x_big
        keep[big] = v[big] <= x_big ** (shape - 1.0)
    return x.compress(keep)


def _row_norms(z: np.ndarray) -> np.ndarray:
    # |z| row by row with the bits of np.linalg.norm(z, axis=1): numpy sums a
    # row shorter than 8 in order, so the squares add column by column, which
    # avoids a reduction over short rows; longer rows sum pairwise
    if z.shape[1] >= 8:
        return np.sqrt(np.add.reduce(z * z, axis=1))
    s = z[:, 0] * z[:, 0]
    for j in range(1, z.shape[1]):
        s += z[:, j] * z[:, j]
    return np.sqrt(s, out=s)


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
    pts = rng.standard_normal((size, p.d))     # uniform directions, scaled in place
    pts /= _row_norms(pts)[:, None]
    pts *= radius[:, None]
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


_FAR_FIELD_GRID = 64


def _far_field_sup(p: StableParams, r_max: float) -> float:
    # sup of Phi over [r_max, 10 r_max] on a grid; radial monotonicity far
    # out is not a stated fact, so the window is scanned rather than assumed
    rs = np.geomspace(r_max, 10.0 * r_max, _FAR_FIELD_GRID)
    return float(np.max(sphere.phi(p, rs)))


def walk_on_balls_hitting(p: StableParams, x, cfg: WalkConfig, n: int,
                          rng: np.random.Generator) -> WalkResult:
    """Estimate the sphere-hitting probability by chained exact ball exits.

    Each step jumps from the current point z by rho * (unit ball exit)
    with rho = |1 - |z||, the largest ball contained in the sphere
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
            dist = _row_norms(pos)
        esc = dist > cfg.r_max
        dist -= 1.0
        np.abs(dist, out=dist)
        hit = dist < cfg.eps_shell
        esc &= ~hit
        n_hit, n_esc = int(np.count_nonzero(hit)), int(np.count_nonzero(esc))
        if n_hit or n_esc:                  # compact only when a walker left
            hits += n_hit
            escapes += n_esc
            live = np.flatnonzero(~(hit | esc))
            pos, dist = pos.take(live, axis=0), dist.take(live)
            if len(pos) == 0:
                break
        step = sample_ball_exit_center(p, rng, len(pos))
        step *= dist[:, None]
        pos += step
    return WalkResult.from_counts(hits, escapes, len(pos), n,
                                  _shell_complement_sup(p, cfg.eps_shell),
                                  _far_field_sup(p, cfg.r_max))


# --- goodness of fit ---------------------------------------------------------

KS_CRITICAL = {0.05: 1.3581, 0.01: 1.6276}   # Kolmogorov distribution quantiles
_KS_BLOCK = 8192   # sorted draws per reference-CDF call


@dataclass
class GOFResult:
    """Outcome of a goodness-of-fit test at the 0.05 and 0.01 levels."""

    test: str
    statistic: float
    critical: dict
    passed: dict
    n: int


def ks_test(draws: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> GOFResult:
    """One-sample Kolmogorov-Smirnov test against a monotone reference CDF;
    ``cdf`` must be elementwise, as it is called on sorted blocks of draws."""
    xs = np.sort(np.asarray(draws, dtype=float).ravel())
    n = len(xs)
    if n < 8:
        raise DomainError("the KS test needs at least 8 draws")
    stat, last = 0.0, -math.inf
    for lo in range(0, n, _KS_BLOCK):
        f = np.asarray(cdf(xs[lo:lo + _KS_BLOCK]), dtype=float)
        if np.any(np.diff(f, prepend=last) < -1e-12):
            raise DomainError("the reference CDF must be monotone")
        grid = np.arange(lo + 1, lo + len(f) + 1) / n
        # np.max keeps a NaN gap, as one whole-array maximum would
        stat = float(np.max([stat, np.max(np.abs(grid - f)), np.max(np.abs(grid - 1.0 / n - f))]))
        last = f[-1]
    crit = {lvl: c / math.sqrt(n) for lvl, c in KS_CRITICAL.items()}
    return GOFResult("KS", stat, crit, {lvl: stat < c for lvl, c in crit.items()}, n)
