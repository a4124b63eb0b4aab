"""Quadrature, Poisson/Martin integrals, Hardy norms and boundary probes.

Boundary data come in two forms: a ``DiscreteMeasure`` (finite signed
atomic measure) or a ``BoundaryFunction`` (evaluable density).  A
``HarmonicRepresentation`` bundles boundary data with a constant part:

    sphere space:      u = P[mu] + c (1 - Phi)
    halfspace space:   u = M[mu] + c |x_d|^(alpha-1)   ("martin" flavor)
                       u = P[f]  + c |x_d|^(alpha-1)   ("poisson" flavor)

Representations are evaluated in batches by one function per geometry,
``sphere_values`` (points as exact r - 1 plus unit directions) and
``halfspace_values`` (points as foot point plus height); every per-point
entry point, slice norm, majorant and Fatou probe goes through them.

Surface measure on the sphere is realized by a trapezoid rule (d = 2) or
a Gauss-Legendre x trapezoid product rule (d = 3); Lebesgue measure on
the hyperplane by a per-axis tangent compactification with
double-exponential node placement, which keeps full accuracy for the
heavy-tailed kernels (decay exponents barely above the dimension).

Hardy norms are schedule suprema of slice L^p norms; divergence is a
reported state, never an exception.  The pointwise fractional Laplacian
is a principal-value quadrature with a symmetrized inner annulus, and
the Fatou probes walk nontangential cones down to the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Literal

import numpy as np

from .core import StableParams, as_point, basis_last, norm, require_unit
from .errors import DomainError, IntegrabilityError, RepresentationError
from . import halfspace, sphere

__all__ = [
    "DiscreteMeasure",
    "BoundaryFunction",
    "QuadratureGrid",
    "HarmonicRepresentation",
    "sphere_quadrature",
    "hyperplane_quadrature",
    "sphere_values",
    "halfspace_values",
    "poisson_integral_sphere",
    "poisson_integral_halfspace",
    "representation_value",
    "omega_integral_probe",
    "omega_norm",
    "default_schedule",
    "HardyNormEstimate",
    "hardy_norm",
    "prob_hardy_norm",
    "majorant",
    "PVResult",
    "fractional_laplacian",
    "FatouProbe",
    "fatou_probe",
]

SPHERE = "SPHERE"
HALFSPACE = "HALFSPACE"


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# --- boundary data ---------------------------------------------------------

@dataclass
class DiscreteMeasure:
    """Finite signed atomic measure on the sphere or on R^(d-1)."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if self.atoms.shape[0] != self.weights.shape[0]:
            raise DomainError("each atom needs exactly one weight")
        if not np.all(np.isfinite(self.atoms)) or not np.all(np.isfinite(self.weights)):
            raise DomainError("atoms and weights must be finite")
        uniq = np.unique(self.atoms, axis=0)
        if uniq.shape[0] != self.atoms.shape[0]:
            raise DomainError("atoms must be distinct")

    @property
    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    def absolute(self) -> "DiscreteMeasure":
        """The total-variation measure |mu| (Hahn split collapsed)."""
        return DiscreteMeasure(self.atoms.copy(), np.abs(self.weights))


@dataclass
class BoundaryFunction:
    """Evaluable scalar function on the boundary.

    ``evaluator`` receives an (m, k) array of boundary points and returns
    an (m,) array.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.evaluator(np.atleast_2d(pts)), dtype=float)
        return vals

    def value_at(self, pt) -> float:
        return float(self(np.atleast_2d(np.asarray(pt, dtype=float)))[0])


@dataclass
class QuadratureGrid:
    """Discrete surrogate of a boundary measure: nodes, weights, kind tag."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    tail_bound: float = 0.0

    def integrate(self, values: np.ndarray) -> float:
        # np.dot performs a fixed pairwise reduction: bit-stable per grid
        return float(np.dot(self.weights, values))


@dataclass
class HarmonicRepresentation:
    """Boundary datum (measure or density) plus constant part."""

    space: Literal["SPHERE", "HALFSPACE"]
    measure: DiscreteMeasure | None = None
    density: BoundaryFunction | None = None
    constant: float = 0.0
    flavor: Literal["poisson", "martin"] = "poisson"
    _integrability_checked: bool = field(default=False, repr=False)

    def __post_init__(self):
        if self.space not in (SPHERE, HALFSPACE):
            raise RepresentationError(f"unknown space {self.space!r}")
        if self.measure is not None and self.density is not None:
            raise RepresentationError("supply a measure or a density, not both")
        if self.flavor not in ("poisson", "martin"):
            raise RepresentationError(f"unknown flavor {self.flavor!r}")
        if self.space == SPHERE and self.flavor == "martin":
            raise RepresentationError("the sphere representation has no martin flavor")


# --- quadrature ------------------------------------------------------------

def sphere_quadrature(p: StableParams, resolution: int) -> QuadratureGrid:
    """Normalized surface measure on the unit sphere, d in {2, 3}.

    d = 2: midpoint trapezoid on the circle (spectral for smooth
    integrands); d = 3: Gauss-Legendre in the polar cosine times a
    trapezoid in azimuth with 2 x resolution nodes.
    """
    if resolution < 8:
        raise DomainError(f"resolution must be >= 8, got {resolution}")
    if p.d == 2:
        theta = 2.0 * math.pi * (np.arange(resolution) + 0.5) / resolution
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(resolution, 1.0 / resolution)
        return QuadratureGrid(nodes, weights, "SPHERE_TRAPEZOID")
    if p.d == 3:
        mu, wmu = _leggauss(resolution)
        n_az = 2 * resolution
        phi_az = 2.0 * math.pi * (np.arange(n_az) + 0.5) / n_az
        sin_th = np.sqrt(1.0 - mu * mu)
        nodes = np.empty((resolution * n_az, 3))
        weights = np.empty(resolution * n_az)
        cp, sp = np.cos(phi_az), np.sin(phi_az)
        for i in range(resolution):
            rows = slice(i * n_az, (i + 1) * n_az)
            nodes[rows, 0] = sin_th[i] * cp
            nodes[rows, 1] = sin_th[i] * sp
            nodes[rows, 2] = mu[i]
            weights[rows] = 0.5 * wmu[i] / n_az
        return QuadratureGrid(nodes, weights, "SPHERE_PRODUCT_GL")
    raise DomainError(f"sphere quadrature supports d in {{2, 3}}, got d={p.d}")


_TAIL_TOL = 1e-14           # endpoint share the tangent-map rule aims for


def _line_rule(n: int, decay_q: float, scale: float,
               center: float) -> tuple[np.ndarray, np.ndarray]:
    # y = center + scale * tan(pi u / 2), u = tanh((pi/2) sinh(w)),
    # trapezoid in w; endpoint contributions scale like eps^(decay_q - 1).
    # The reach is capped where y approaches the double-precision range.
    need = -math.log(_TAIL_TOL) / max(decay_q - 1.0, 1e-3)
    big_t = min(math.asinh(max(need, 40.0) * 2.0 / math.pi), 6.0)
    w = np.linspace(-big_t, big_t, n)
    h = w[1] - w[0]
    sh = (math.pi / 2.0) * np.sinh(w)
    abs_sh = np.abs(sh)
    eps = 2.0 * np.exp(-2.0 * abs_sh) / (1.0 + np.exp(-2.0 * abs_sh))   # 1 - |u|
    half = 0.5 * math.pi * eps
    y = np.sign(w) * scale / np.tan(half)
    y[np.abs(w) < 1e-300] = 0.0
    # log-assembled weight: h * (pi/2) cosh(w) / cosh(sh)^2 * scale (pi/2) / sin(half)^2
    log_cosh_sh = abs_sh + np.log1p(np.exp(-2.0 * abs_sh)) - math.log(2.0)
    log_wt = (math.log(h * scale) + 2.0 * math.log(math.pi / 2.0)
              + np.log(np.cosh(w)) - 2.0 * log_cosh_sh - 2.0 * np.log(np.sin(half)))
    return center + y, np.exp(log_wt)


def hyperplane_quadrature(p: StableParams, resolution: int, decay_exponent: float,
                          center=None, scale: float = 1.0) -> QuadratureGrid:
    """Lebesgue measure on R^(d-1) through a compactifying tangent map.

    ``decay_exponent`` is the algebraic decay the integrand is declared
    to have; it must exceed d - 1 for integrability and controls how far
    into the tails the node placement reaches.  ``center``/``scale``
    relocate the dense part of the rule (pass the foot point and height
    of a kernel peak to resolve it).  The reported ``tail_bound`` is the
    residual integral of |y|^(-decay_exponent) beyond the largest node,
    per unit coefficient.
    """
    k = p.d - 1
    if k not in (1, 2):
        raise DomainError(f"hyperplane quadrature supports d in {{2, 3}}, got d={p.d}")
    if decay_exponent <= k:
        raise DomainError(
            f"decay exponent {decay_exponent} does not dominate the boundary "
            f"dimension {k}; the integral cannot converge")
    if resolution < 8:
        raise DomainError(f"resolution must be >= 8, got {resolution}")
    if center is None:
        center = np.zeros(k)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (k,):
        raise DomainError(f"center must have length {k}")
    if scale <= 0.0:
        raise DomainError("scale must be positive")
    if k == 1:
        y, wt = _line_rule(resolution, decay_exponent, scale, center[0])
        nodes = y[:, None]
        weights = wt
        ymax = float(np.max(np.abs(y)))
        tail = 2.0 * ymax ** (1.0 - decay_exponent) / (decay_exponent - 1.0)
    else:
        y1, w1 = _line_rule(resolution, decay_exponent, scale, center[0])
        y2, w2 = _line_rule(resolution, decay_exponent, scale, center[1])
        g1, g2 = np.meshgrid(y1, y2, indexing="ij")
        nodes = np.stack([g1.ravel(), g2.ravel()], axis=1)
        weights = np.outer(w1, w2).ravel()
        ymax = float(np.max(np.abs(nodes)))
        tail = 2.0 * math.pi * ymax ** (2.0 - decay_exponent) / (decay_exponent - 2.0) \
            if decay_exponent > 2.0 else math.inf
    return QuadratureGrid(nodes, weights, "HYPERPLANE_TAN_MAP", tail_bound=tail)


# --- reference-measure integrals -------------------------------------------

_SHELL_EDGES = np.array([0.0, 1.0, 1e1, 1e2, 1e3, 1e5, 1e8, 1e12, np.inf])
_PROBE_NODES = 241          # per axis, for the reference-measure probe


def _shell_test(p: StableParams, nodes: np.ndarray,
                contrib: np.ndarray) -> tuple[bool, np.ndarray]:
    # Decade-shell sums of the nonnegative contributions, outermost last,
    # and whether the outermost shell marks a divergent tail: it must hold
    # at least half the next one's mass and twice the share rho that the
    # reference measure's own |ybar|^(-(d + alpha - 2)) tail puts there
    # (rho is 0.01 at alpha = 1.5, 0.66 at alpha = 1.1).
    with np.errstate(over="ignore"):
        radii = np.sqrt(np.sum(nodes ** 2, axis=1))
    inc = np.array([contrib[(radii >= lo) & (radii < hi)].sum()
                    for lo, hi in zip(_SHELL_EDGES[:-1], _SHELL_EDGES[1:])])
    if not inc[-1] > 1e-12 * max(inc.sum(), 1e-300):
        return False, inc
    s = p.alpha - 1.0                   # the reference decay beyond dimension d - 1
    lo, mid, reach = _SHELL_EDGES[-3], _SHELL_EDGES[-2], float(radii.max())
    rho = (mid ** -s - reach ** -s) / (lo ** -s - mid ** -s)
    return bool(inc[-1] >= max(0.5, 2.0 * rho) * inc[-2]), inc


def omega_integral_probe(p: StableParams, f: Callable[[np.ndarray], np.ndarray],
                         weight: Literal["omega", "lebesgue"] = "omega"
                         ) -> tuple[float, bool, np.ndarray]:
    """Integrate f against the reference measure with a divergence probe.

    ``weight="omega"`` integrates f d(omega_alpha), ``"lebesgue"`` plain
    f d(ybar).  Returns (value, diverges, shell_increments).  The
    increments are the contributions from decade shells in |ybar|; an
    outermost shell heavier than the reference measure's own tail marks
    the integral divergent.
    """
    q = p.d + p.alpha - 2.0 if weight == "omega" else p.d - 1.0 + 1e-3

    def one_pass(n):
        grid = hyperplane_quadrature(p, n, decay_exponent=q)
        with np.errstate(all="ignore"):
            vals = np.asarray(f(grid.nodes), dtype=float)
            if weight == "omega":
                vals = vals * halfspace.omega_alpha_density(p, grid.nodes)
            contrib = grid.weights * vals
        return contrib, grid.nodes

    contrib, nodes = one_pass(_PROBE_NODES)
    diverges, inc = _shell_test(p, nodes, np.abs(contrib))
    if not np.all(np.isfinite(contrib)):
        # the integrand blows up on a node: divergent at an interior point
        return math.inf, True, inc
    total = float(contrib.sum())
    scale = np.abs(contrib).sum()
    if not diverges and scale > 0.0:
        # refinement probe: an integrable singularity keeps the value put,
        # a divergence at an interior point keeps growing with the mesh
        coarse, _ = one_pass(_PROBE_NODES // 2 + 1)
        ctot = np.abs(coarse).sum()
        if np.all(np.isfinite(coarse)) and ctot > 0.0 and scale > 1.3 * ctot:
            diverges = True
    return total, diverges, inc


def _ensure_halfspace_integrable(p: StableParams, rep: HarmonicRepresentation) -> None:
    # the poisson flavor needs |f| integrable against omega_alpha, the
    # martin flavor plain Lebesgue integrability (finite total variation)
    if rep._integrability_checked or rep.density is None:
        return
    f = rep.density
    weight = "omega" if rep.flavor == "poisson" else "lebesgue"
    _, diverges, _ = omega_integral_probe(p, lambda pts: np.abs(f(pts)), weight=weight)
    if diverges:
        raise IntegrabilityError(
            "boundary density fails the reference-measure integrability condition")
    rep._integrability_checked = True


# --- evaluating representations ---------------------------------------------

_SPHERE_PEAK_NODES = 400    # peak-adapted rule on the circle
_LINE_CORE_NODES = 200      # peak-adapted rule on the line, |v| <= _LINE_CORE_V
_LINE_TAIL_NODES = 60       # and on each tail beyond it
_LINE_CORE_V = 8.0
_BLOCK = 1 << 15            # kernel elements per block: a block stays in cache


def _default_sphere_grid(p: StableParams) -> QuadratureGrid:
    return sphere_quadrature(p, 1024 if p.d == 2 else 64)


def _row_blocks(m: int, n: int):
    step = max(1, _BLOCK // n)
    return (slice(i, i + step) for i in range(0, m, step))


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (m, k) squared distances between the rows of a and b, coordinate by
    # coordinate so that nearby points keep their full relative accuracy;
    # beyond the float range they are inf, where every kernel vanishes
    with np.errstate(over="ignore"):
        return sum((a[:, j, None] - b[None, :, j]) ** 2 for j in range(a.shape[1]))


def sphere_values(p: StableParams, rep: HarmonicRepresentation, r_minus_one,
                  dirs) -> np.ndarray:
    """Values of u = P[mu or f] + c (1 - Phi) at the points (1 + r_minus_one) dirs.

    Points are given by their exact offset r - 1 from the sphere and
    their unit directions, so kernel distances are assembled as
    (r - 1)^2 + r |eta - z|^2 and never through absolute coordinates.
    The density rule follows d: in d = 2 its nodes cluster at each
    kernel peak via psi = |r - 1| sinh(v), which stays exact however
    close the point sits to the circle; in d = 3 it is the default
    surface grid, with the Gram term eta.z from one matrix product.
    ``dirs`` has shape (m, d); returns one value per point.
    """
    if rep.space != SPHERE:
        raise RepresentationError("sphere_values needs a SPHERE representation")
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if dirs.shape[1] != p.d:
        raise DomainError(f"directions must have length d={p.d}")
    rm1 = np.broadcast_to(np.asarray(r_minus_one, dtype=float), dirs.shape[:1])
    require_unit(dirs, "evaluation directions")
    if np.any(rm1 == 0.0):
        raise DomainError("evaluation point lies on the sphere")
    if np.any(rm1 < -1.0):
        raise DomainError("radius must be nonnegative")
    r = 1.0 + rm1
    delta = rm1 * (r + 1.0)               # r^2 - 1, exact in rm1
    vals = np.zeros(len(rm1))
    if rep.measure is not None:
        require_unit(rep.measure.atoms, "sphere atoms")
        dist2 = rm1[:, None] ** 2 + r[:, None] * _sq_dist(dirs, rep.measure.atoms)
        vals += sphere.poisson_kernel_dist2(p, delta[:, None], dist2) @ rep.measure.weights
    if rep.density is not None:
        rule = _sphere_peak_rule if p.d == 2 else _sphere_grid_rule
        vals += rule(p, rep.density, rm1, dirs)
    if rep.constant:
        uniq, inv = np.unique(delta, return_inverse=True)
        comp = np.array([sphere.phi_complement_delta(p, float(dl)) for dl in uniq])
        vals += rep.constant * comp[inv]
    return vals


def _sphere_grid_rule(p: StableParams, f: BoundaryFunction, rm1: np.ndarray,
                      dirs: np.ndarray) -> np.ndarray:
    g = _default_sphere_grid(p)
    wf = g.weights * f(g.nodes)
    r = 1.0 + rm1
    delta = rm1 * (r + 1.0)
    out = np.empty(len(rm1))
    for rows in _row_blocks(len(rm1), len(wf)):
        dist2 = dirs[rows] @ g.nodes.T            # eta.z
        dist2 *= -2.0
        dist2 += 2.0                               # |eta - z|^2
        np.maximum(dist2, 0.0, out=dist2)
        dist2 *= r[rows, None]
        dist2 += rm1[rows, None] ** 2
        out[rows] = sphere.poisson_kernel_dist2(p, delta[rows, None], dist2) @ wf
    return out


def _sphere_peak_rule(p: StableParams, f: BoundaryFunction, rm1: np.ndarray,
                      dirs: np.ndarray) -> np.ndarray:
    # the nodes sit at angle psi from each direction; everything but the
    # density depends on r - 1 alone, so it is built once per distinct radius
    gl_x, gl_w = _leggauss(_SPHERE_PEAK_NODES)
    uniq, inv = np.unique(rm1, return_inverse=True)
    rm = uniq[:, None]
    width = np.minimum(np.abs(rm), 1.0)
    vmax = np.arcsinh(math.pi / width)
    v = gl_x * vmax
    psi = width * np.sinh(v)
    r = 1.0 + rm
    dist2 = rm * rm + 4.0 * r * np.sin(psi / 2.0) ** 2
    jac = width * np.cosh(v) / (2.0 * math.pi)      # sigma = dtheta / 2pi
    wk = gl_w * vmax * sphere.poisson_kernel_dist2(p, rm * (r + 1.0), dist2) * jac
    cos_psi, sin_psi = np.cos(psi)[inv], np.sin(psi)[inv]
    ex, ey = dirs[:, :1], dirs[:, 1:]
    nodes = np.column_stack([(ex * cos_psi - ey * sin_psi).ravel(),
                             (ey * cos_psi + ex * sin_psi).ravel()])
    return np.sum(wk[inv] * f(nodes).reshape(cos_psi.shape), axis=1)


def halfspace_values(p: StableParams, rep: HarmonicRepresentation, xbar,
                     t) -> np.ndarray:
    """Values of a halfspace representation at the points (xbar, t).

    The "poisson" flavor integrates the hitting density, the "martin"
    flavor the Martin kernel; either adds c |t|^(alpha-1).  Density parts
    are first checked against the reference measure; a divergent check
    raises IntegrabilityError.  The density rule follows d: in d = 2 its
    nodes |t| sinh(v) sit around each foot point, which also resolves
    density features far wider than the kernel peak; in d = 3 it is a
    tangent-map grid centered at the foot point and scaled to its
    height.  Kernel distances come from the node offsets themselves, so
    small heights never collapse onto the foot point.  ``xbar`` has
    shape (m, d-1); returns one value per point.
    """
    if rep.space != HALFSPACE:
        raise RepresentationError("halfspace_values needs a HALFSPACE representation")
    xbar = np.atleast_2d(np.asarray(xbar, dtype=float))
    if xbar.shape[1] != p.d - 1:
        raise DomainError(f"foot points must have length d-1={p.d - 1}")
    t = np.broadcast_to(np.asarray(t, dtype=float), xbar.shape[:1])
    if np.any(t == 0.0):
        raise DomainError("evaluation point lies on the hyperplane")
    martin = rep.flavor == "martin"
    vals = np.zeros(len(t))
    if rep.measure is not None:
        atoms = rep.measure.atoms
        dist2 = _sq_dist(xbar, atoms) + t[:, None] ** 2
        kern = halfspace.poisson_kernel_dist2(p, t[:, None], dist2)
        if martin:
            kern = kern / halfspace.omega_alpha_density(p, atoms)
        vals += kern @ rep.measure.weights
    if rep.density is not None:
        _ensure_halfspace_integrable(p, rep)
        uniq, inv = np.unique(np.abs(t), return_inverse=True)
        rule = _line_peak_rule if p.d == 2 else _hyperplane_grid_rule
        weights, offsets = rule(p, uniq)
        n = weights.shape[1]
        for rows in _row_blocks(len(t), n):
            y = (xbar[rows, None, :] + offsets[inv[rows]]).reshape(-1, p.d - 1)
            dens = rep.density(y)
            if martin:
                dens = dens / halfspace.omega_alpha_density(p, y)
            vals[rows] += np.sum(weights[inv[rows]] * dens.reshape(-1, n), axis=1)
    if rep.constant:
        vals += rep.constant * np.abs(t) ** (p.alpha - 1.0)
    return vals


def _hyperplane_grid_rule(p: StableParams, heights: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    # per height: kernel x weight and node offsets of the tangent-map grid
    # scaled to that height (the grid is affine in its center and scale)
    ref = hyperplane_quadrature(p, 241 if p.d == 2 else 161, p.d + p.alpha - 2.0)
    t = heights[:, None]
    dist2 = t * t * (np.sum(ref.nodes ** 2, axis=1) + 1.0)
    weights = halfspace.poisson_kernel_dist2(p, t, dist2) * ref.weights * t ** (p.d - 1)
    return weights, t[:, :, None] * ref.nodes


def _line_peak_rule(p: StableParams, heights: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    # per height: kernel x weight and node offsets |t| sinh(v) on the line.
    # In d = 2 the kernel weight is c3 cosh(v)^(1 - alpha) dv at every
    # height.  Gauss-Legendre covers |v| <= 8; each tail runs in
    # u = exp(-(alpha - 1)(|v| - 8)) on (0, 1), where that weight is smooth.
    core_x, core_w = _leggauss(_LINE_CORE_NODES)
    tail_x, tail_w = _leggauss(_LINE_TAIL_NODES)
    a1 = p.alpha - 1.0
    u = (tail_x + 1.0) / 2.0
    tail_v = _LINE_CORE_V - np.log(u) / a1
    tail_dv = tail_w / (2.0 * a1 * u)
    v = np.concatenate([-tail_v[::-1], _LINE_CORE_V * core_x, tail_v])
    dv = np.concatenate([tail_dv[::-1], _LINE_CORE_V * core_w, tail_dv])
    av = np.abs(v)
    log_cosh = av + np.log1p(np.exp(-2.0 * av)) - math.log(2.0)
    weights = sphere.constants(p).c3 * np.exp(-a1 * log_cosh) * dv
    offsets = heights[:, None] * np.sinh(v)
    return np.broadcast_to(weights, offsets.shape), offsets[:, :, None]


def representation_value(p: StableParams, rep: HarmonicRepresentation, x) -> float:
    """Evaluate a representation at one point."""
    x = as_point(x, p.d)
    if rep.space == SPHERE:
        r = norm(x)
        eta = x / r if r > 0.0 else basis_last(p.d)   # any direction at the origin
        return float(sphere_values(p, rep, r - 1.0, eta)[0])
    return float(halfspace_values(p, rep, x[:-1], x[-1])[0])


def poisson_integral_sphere(p: StableParams, rep: HarmonicRepresentation, x) -> float:
    """Evaluate u = P[mu or f] + c (1 - Phi) at a point off the sphere."""
    if rep.space != SPHERE:
        raise RepresentationError("poisson_integral_sphere needs a SPHERE representation")
    return representation_value(p, rep, x)


def poisson_integral_halfspace(p: StableParams, rep: HarmonicRepresentation, x) -> float:
    """Evaluate a halfspace representation at a point off the hyperplane."""
    if rep.space != HALFSPACE:
        raise RepresentationError("poisson_integral_halfspace needs a HALFSPACE representation")
    return representation_value(p, rep, x)


# --- Hardy norms -------------------------------------------------------------

@dataclass
class HardyNormEstimate:
    """Schedule supremum of slice norms plus divergence diagnostics."""

    value: float
    slices: list[tuple[float, float]]
    sup_at: float
    increasing_at_boundary: bool
    increasing_at_infinity: bool
    diverges: bool


def default_schedule(space: str, depth: int = 24) -> np.ndarray:
    """Geometric slice schedule accumulating at the boundary and at infinity."""
    ks = np.arange(1, depth + 1, dtype=float)
    if space == SPHERE:
        rs = np.concatenate([2.0 ** -ks, 1.0 - 2.0 ** -ks, 1.0 + 2.0 ** -ks, 2.0 ** ks])
        return np.unique(rs[rs > 0])
    ts = np.concatenate([2.0 ** -ks, 2.0 ** ks])
    return np.unique(np.concatenate([ts, -ts]))


def _slice_points(space: str, p: StableParams, grid: QuadratureGrid, s: float) -> np.ndarray:
    if space == SPHERE:
        return s * grid.nodes
    t_col = np.full((grid.nodes.shape[0], 1), s)
    return np.concatenate([grid.nodes, t_col], axis=1)


def _slice_norm(space: str, p: StableParams, values: np.ndarray,
                grid: QuadratureGrid, pexp: float) -> float:
    if math.isinf(pexp):
        return float(np.max(np.abs(values)))  # grid max: lower bound of ess sup
    with np.errstate(over="ignore"):
        contrib = grid.weights * np.abs(values) ** pexp
    if space == HALFSPACE and _shell_test(p, grid.nodes, contrib)[0]:
        return math.inf
    return float(np.sum(contrib)) ** (1.0 / pexp)


def hardy_norm(p: StableParams, space: str, u, pexp: float,
               schedule: np.ndarray | None = None,
               grid: QuadratureGrid | None = None) -> HardyNormEstimate:
    """Schedule supremum of ||u_s||_p over slices s (radii or heights).

    ``u`` is either a vectorized callable on (m, d) arrays of points or a
    HarmonicRepresentation (evaluated efficiently slice by slice).  The
    estimate reports whether the running sup is still increasing at the
    schedule ends; a genuine blow-up toward the boundary is flagged as
    ``diverges`` rather than raised.
    """
    if space not in (SPHERE, HALFSPACE):
        raise DomainError(f"unknown space {space!r}")
    if pexp < 1.0:
        raise DomainError("the slice exponent must be >= 1")
    if schedule is None:
        schedule = default_schedule(space)
    rep = u if isinstance(u, HarmonicRepresentation) else None
    builder = None
    if grid is None:
        if space == SPHERE:
            grid = _default_sphere_grid(p)
        else:
            # slice integrands peak at the boundary support with width |t|;
            # the grid follows the slice so the peak stays resolved
            center, spread = _halfspace_support(p, rep)
            builder = lambda t: hyperplane_quadrature(
                p, 241, p.d + p.alpha - 2.0, center=center,
                scale=max(abs(t), spread))
    slices: list[tuple[float, float]] = []
    for s in np.asarray(schedule, dtype=float):
        g = builder(s) if builder is not None else grid
        if rep is None:
            values = np.asarray(u(_slice_points(space, p, g, s)), dtype=float)
        elif space == SPHERE:
            # the slice radius enters as the exact s - 1
            values = sphere_values(p, rep, s - 1.0, g.nodes)
        else:
            values = halfspace_values(p, rep, g.nodes, s)
        slices.append((float(s), _slice_norm(space, p, values, g, pexp)))
    return _summarize_schedule(space, slices)


def _halfspace_support(p: StableParams,
                       rep: HarmonicRepresentation | None) -> tuple[np.ndarray, float]:
    if rep is not None and rep.measure is not None and rep.density is None:
        center = rep.measure.atoms.mean(axis=0)
        spread = float(np.max(np.linalg.norm(rep.measure.atoms - center, axis=1)))
        return center, spread
    return np.zeros(p.d - 1), 1.0


def _summarize_schedule(space: str, slices: list[tuple[float, float]]) -> HardyNormEstimate:
    svals = np.array([v for _, v in slices])
    spts = np.array([s for s, _ in slices])
    value = float(np.max(svals))
    sup_at = float(spts[int(np.argmax(svals))])
    if space == SPHERE:
        inner = [(abs(s - 1.0), v) for s, v in slices]
    else:
        inner = [(abs(s), v) for s, v in slices]
    inner.sort(key=lambda t: -t[0])   # by decreasing distance to the boundary
    seq = [v for _, v in inner]
    inc_boundary = _tail_increasing(seq)
    outer = sorted(((abs(s), v) for s, v in slices), key=lambda t: t[0])
    inc_inf = _tail_increasing([v for _, v in outer])
    diverges = bool(np.any(np.isinf(svals)))
    if inc_boundary and len(seq) >= 4:
        half = seq[len(seq) // 2]
        if half > 0 and seq[-1] / half > 1.5:
            diverges = True
    return HardyNormEstimate(value=value, slices=slices, sup_at=sup_at,
                             increasing_at_boundary=inc_boundary,
                             increasing_at_infinity=inc_inf, diverges=diverges)


def _tail_increasing(seq: list[float], k: int = 3) -> bool:
    tail = [v for v in seq if math.isfinite(v)][-(k + 1):]
    if len(tail) < 2:
        return False
    return all(b > a for a, b in zip(tail, tail[1:]))


# --- closed-form Hardy norms and majorants -----------------------------------

def _sphere_density_norm(p: StableParams, f: BoundaryFunction, pexp: float) -> float:
    g = _default_sphere_grid(p)
    return float(np.sum(g.weights * np.abs(f(g.nodes)) ** pexp)) ** (1.0 / pexp)


def omega_norm(p: StableParams, f: BoundaryFunction, pexp: float) -> float:
    """L^p norm against the reference harmonic measure on the hyperplane."""
    val, diverges, _ = omega_integral_probe(p, lambda pts: np.abs(f(pts)) ** pexp)
    if diverges:
        return math.inf
    return val ** (1.0 / pexp)


def prob_hardy_norm(p: StableParams, rep: HarmonicRepresentation, pexp: float) -> float:
    """Exit-moment Hardy norm from the closed-form identities.

    sphere, p = 1:     Phi(0) ||mu|| + |c| (1 - Phi(0))
    sphere, p > 1:     [Phi(0) ||f||_p^p + |c|^p (1 - Phi(0))]^(1/p)
    halfspace, p = 1:  ||mu|| + |c|
    halfspace, p > 1:  ||f||_(p, omega)   (requires constant part 0)

    Returns inf if a density integral diverges; that is the signature of
    a function outside the space.
    """
    if pexp < 1.0:
        raise DomainError("the exponent must be >= 1")
    if rep.space == SPHERE:
        kc = sphere.constants(p)
        phi0 = kc.phi_at_origin
        if pexp == 1.0:
            tv = rep.measure.total_variation if rep.measure is not None else 0.0
            if rep.density is not None:
                tv += _sphere_density_norm(p, rep.density, 1.0)
            return phi0 * tv + abs(rep.constant) * (1.0 - phi0)
        if rep.measure is not None:
            raise RepresentationError(
                "p > 1 norms need a density part; atomic measures lie outside L^p")
        fp = _sphere_density_norm(p, rep.density, pexp) ** pexp \
            if rep.density is not None else 0.0
        return (phi0 * fp + abs(rep.constant) ** pexp * (1.0 - phi0)) ** (1.0 / pexp)
    # halfspace
    if pexp == 1.0:
        tv = 0.0
        if rep.measure is not None:
            if rep.flavor != "martin":
                # P[mu] = M[nu] with nu(dy) = omega-density x mu; fold it in
                dens = halfspace.omega_alpha_density(p, rep.measure.atoms)
                tv += float(np.sum(np.abs(rep.measure.weights) * np.atleast_1d(dens)))
            else:
                tv += rep.measure.total_variation
        if rep.density is not None:
            if rep.flavor == "poisson":
                tv_d = omega_norm(p, rep.density, 1.0)
            else:
                val, diverges, _ = omega_integral_probe(
                    p, lambda pts: np.abs(rep.density(pts)), weight="lebesgue")
                tv_d = math.inf if diverges else val
            if math.isinf(tv_d):
                return math.inf
            tv += tv_d
        return tv + abs(rep.constant)
    if rep.measure is not None:
        raise RepresentationError(
            "p > 1 norms need a density part; atomic measures lie outside L^p")
    if rep.constant != 0.0:
        return math.inf   # the constant profile has no finite exit p-moment
    if rep.density is None:
        return 0.0
    if rep.flavor != "poisson":
        raise RepresentationError("p > 1 norms take the hitting-density flavor")
    return omega_norm(p, rep.density, pexp)


def majorant(p: StableParams, rep: HarmonicRepresentation, pexp: float, x) -> float:
    """Minimal harmonic majorant of |u|^pexp evaluated at x (closed form).

    For pexp = 1 the boundary datum is replaced by its total-variation
    version; for pexp > 1 the density is raised to the power pointwise.
    """
    if pexp < 1.0:
        raise DomainError("the exponent must be >= 1")
    if pexp == 1.0:
        abs_rep = HarmonicRepresentation(
            space=rep.space,
            measure=rep.measure.absolute() if rep.measure is not None else None,
            density=BoundaryFunction(lambda pts, f=rep.density: np.abs(f(pts)))
            if rep.density is not None else None,
            constant=abs(rep.constant),
            flavor=rep.flavor,
        )
        return representation_value(p, abs_rep, x)
    if rep.measure is not None:
        raise RepresentationError("p > 1 majorants need a density part")
    pow_rep = HarmonicRepresentation(
        space=rep.space,
        density=BoundaryFunction(lambda pts, f=rep.density: np.abs(f(pts)) ** pexp)
        if rep.density is not None else None,
        constant=abs(rep.constant) ** pexp,
        flavor=rep.flavor,
    )
    if rep.space == HALFSPACE and rep.constant != 0.0:
        raise RepresentationError(
            "p > 1 halfspace majorants require a vanishing constant part")
    return representation_value(p, pow_rep, x)


# --- pointwise fractional Laplacian ------------------------------------------

@dataclass
class PVResult:
    """Principal-value fractional Laplacian with an a-posteriori error budget."""

    value: float
    error_estimate: float
    local_scale: float


def fractional_laplacian(p: StableParams, u, x, eps: float = 1e-4,
                         rmax: float = 1e4, growth_exponent: float = 0.0,
                         n_angle: int = 256, n_radial: int = 192) -> PVResult:
    """Pointwise fractional Laplacian of u at x by principal-value quadrature.

    Only d = 2 is supported.  The annulus eps <= |h| <= 1 is integrated
    with the symmetrized increment (u(x+h) + u(x-h) - 2u(x))/2, which
    turns the principal value into an absolutely convergent integral for
    C^2 functions; the remaining eps-ball contributes
    c2 eps^(2-alpha)/(2-alpha) at leading order and is added back from a
    curvature estimate of the innermost rings, with the residual priced
    into the error estimate.  [1, rmax] is integrated directly; the tail
    beyond rmax is bounded analytically from ``growth_exponent`` (the
    declared growth |u(y)| = O(|y|^g), g < alpha) and also reported in
    the error estimate.  The default rmax is 1e4 rather than 1e3:
    growth exponents near alpha - 1 make the truncated tail scale like
    rmax^(-alpha), and 1e3 leaves it above the per-mille accuracy the
    harmonicity probes target.

    ``local_scale`` is the integral of the absolute integrand, the
    natural magnitude against which a residual should be judged.
    """
    if p.d != 2:
        raise DomainError("the PV fractional Laplacian is implemented for d = 2")
    if growth_exponent >= p.alpha:
        raise IntegrabilityError(
            f"declared growth {growth_exponent} >= alpha={p.alpha}: "
            "the tail integral does not converge")
    if not (0.0 < eps < 1.0 < rmax):
        raise DomainError("need 0 < eps < 1 < rmax")
    if n_angle % 2:
        raise DomainError("n_angle must be even so that the direction set is symmetric")
    a = p.alpha
    coef = sphere.constants(p).a_d_neg_alpha
    x = as_point(x, 2)
    u0 = float(np.asarray(u(x[None, :]))[0])
    theta = 2.0 * math.pi * (np.arange(n_angle) + 0.5) / n_angle
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    gl_x, gl_w = _leggauss(n_radial)

    def ring_values(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts_p = x[None, None, :] + rho[:, None, None] * dirs[None, :, :]
        pts_m = x[None, None, :] - rho[:, None, None] * dirs[None, :, :]
        up = np.asarray(u(pts_p.reshape(-1, 2))).reshape(len(rho), n_angle)
        um = np.asarray(u(pts_m.reshape(-1, 2))).reshape(len(rho), n_angle)
        return up, um

    # inner annulus in log-radius
    s_in = (gl_x + 1.0) / 2.0 * (-math.log(eps)) + math.log(eps)
    w_in = gl_w / 2.0 * (-math.log(eps))
    rho_in = np.exp(s_in)
    up, um = ring_values(rho_in)
    g_in = (up + um) / 2.0 - u0
    radial_in = w_in * rho_in ** (-a)     # rho^{-2-alpha} * rho (polar) * rho (log map)
    inner = float(np.einsum("s,st->", radial_in, g_in)) * (2.0 * math.pi / n_angle)
    inner_abs = float(np.einsum("s,st->", radial_in, np.abs(g_in))) * (2.0 * math.pi / n_angle)

    # eps-ball: the symmetrized increment is c2(theta) rho^2 + O(rho^4) for
    # locally C^4 u, so the [0, eps) piece integrates to
    # c2 eps^(2-alpha)/(2-alpha) per direction; c2 is read off the two
    # innermost rings and their disagreement prices the correction
    c2_a = g_in[0] / rho_in[0] ** 2
    c2_b = g_in[1] / rho_in[1] ** 2
    ball_factor = eps ** (2.0 - a) / (2.0 - a) * (2.0 * math.pi / n_angle)
    ball = float(np.sum(c2_a)) * ball_factor
    err_ball = abs(float(np.sum(c2_a - c2_b))) * ball_factor

    # outer annulus [1, rmax]
    s_out = (gl_x + 1.0) / 2.0 * math.log(rmax)
    w_out = gl_w / 2.0 * math.log(rmax)
    rho_out = np.exp(s_out)
    up, _ = ring_values(rho_out)
    g_out = up - u0
    radial_out = w_out * rho_out ** (-a)
    outer = float(np.einsum("s,st->", radial_out, g_out)) * (2.0 * math.pi / n_angle)
    outer_abs = float(np.einsum("s,st->", radial_out, np.abs(g_out))) * (2.0 * math.pi / n_angle)

    # error budget: eps-ball correction residual + analytic tail beyond rmax
    rim = float(np.max(np.abs(g_out[-1])))
    err_tail = 2.0 * math.pi * rim * rmax ** (-a) / (a - growth_exponent)
    return PVResult(value=coef * (inner + outer + ball),
                    error_estimate=coef * (err_ball + err_tail),
                    local_scale=coef * (inner_abs + outer_abs))


# --- Fatou probes -------------------------------------------------------------

@dataclass
class FatouProbe:
    """Deviations |u(x_k) - target| along a nontangential cone, both sides."""

    deviations: np.ndarray        # (depth, 2): boundary distance 2^-k, two sides
    target: float

    @property
    def running_max_tail(self) -> np.ndarray:
        flat = self.deviations.max(axis=1)
        return np.maximum.accumulate(flat[::-1])[::-1]


def fatou_probe(p: StableParams, rep: HarmonicRepresentation, y, beta: float,
                depth: int, rng: np.random.Generator | None = None) -> FatouProbe:
    """Approach the boundary point y inside the cone of aperture beta.

    Probe points sit at boundary distance 2^-k with randomized tangential
    offsets up to 90% of the cone constraint, on both sides of the
    surface.  The target is the density of the boundary datum with
    respect to the reference boundary measure (surface measure on the
    sphere, the harmonic reference measure on the hyperplane), evaluated
    at y; purely atomic data at off-atom points target 0.  Returns
    |u(x_k) - target|.
    """
    if beta <= 0.0:
        raise DomainError("the cone aperture must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    spread = math.sqrt((1.0 + beta) ** 2 - 1.0) * 0.9
    y = np.atleast_1d(np.asarray(y, dtype=float))
    target = 0.0
    if rep.density is not None:
        target = rep.density.value_at(y)
        if rep.space == HALFSPACE and rep.flavor == "martin":
            # a Lebesgue density g corresponds to g / (omega density)
            # with respect to the reference measure
            target /= float(halfspace.omega_alpha_density(p, y))
    if rep.space == SPHERE:
        y = as_point(y, p.d) / norm(y)
    offsets, bases = [], []
    for k in range(1, depth + 1):
        delta = 2.0 ** -k
        for sgn in (-1.0, 1.0):
            offsets.append(sgn * delta)
            bases.append(_cone_base(rep.space, p, y, delta, spread, rng))
    offsets, bases = np.array(offsets), np.array(bases)
    # the exact boundary distance goes straight into the kernel algebra;
    # coordinates would absorb it near the ulp
    if rep.space == SPHERE:
        vals = sphere_values(p, rep, offsets, bases)
    else:
        vals = halfspace_values(p, rep, bases, offsets)
    devs = np.abs(vals - target).reshape(depth, 2)
    return FatouProbe(deviations=devs, target=target)


def _cone_base(space: str, p: StableParams, y: np.ndarray, delta: float,
               spread: float, rng: np.random.Generator) -> np.ndarray:
    # direction (sphere) or foot point (hyperplane) of one probe point
    if space == SPHERE:
        eta = spread * delta * (2.0 * rng.random() - 1.0)
        return y * math.cos(eta) + _tangent_direction(y, rng) * math.sin(eta)
    if p.d == 2:
        return y + spread * delta * (2.0 * rng.random() - 1.0)
    offset = rng.standard_normal(y.shape[0])
    nrm = np.linalg.norm(offset)
    offset = offset / nrm if nrm > 0 else offset
    return y + spread * delta * rng.random() * offset


def _tangent_direction(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if len(y) == 2:
        return np.array([-y[1], y[0]])
    v = rng.standard_normal(len(y))
    v -= np.dot(v, y) * y
    n = np.linalg.norm(v)
    if n == 0.0:
        return _tangent_direction(y, rng)
    return v / n
