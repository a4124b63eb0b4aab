"""Quadrature, Poisson/Martin integrals, Hardy norms and boundary probes.

Boundary data come in two forms: a ``DiscreteMeasure`` (finite signed
atomic measure) or a ``BoundaryFunction`` (evaluable density).  A
``HarmonicRepresentation`` bundles boundary data with a constant part:

    sphere space:      u = P[mu] + c (1 - Phi)
    halfspace space:   u = M[mu] + c |x_d|^(alpha-1)   ("martin" flavor)
                       u = P[f]  + c |x_d|^(alpha-1)   ("poisson" flavor)

Representations are evaluated in batches by one function per geometry,
``sphere_values`` (points as exact r - 1 plus unit directions) and
``halfspace_values`` (points as foot point plus height).  The one
per-point entry, ``representation_value``, and every slice norm, majorant
and Fatou probe go through them; no value depends on how the points are
batched.

Density parts are integrated by one peak-adapted polar rule per
geometry: geodesic polar coordinates around each evaluation direction on
the sphere, with the zonal weights of ``sphere.polar_weights``, polar
coordinates around each foot point on the hyperplane.  Their rings and
``sphere_quadrature`` are one product rule on S^(k-1) in every d, refused
past 2^22 nodes.  Slice grids on the hyperplane are polar as well.

Hardy norms are schedule suprema of slice L^p norms; divergence is a
reported state, never an exception.  The pointwise fractional Laplacian
is a principal-value quadrature with a symmetrized inner annulus, and
the Fatou probes walk nontangential cones down to the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Literal

import numpy as np
from scipy.special import roots_jacobi

from .core import (StableParams, as_point, basis_last, norm, require_finite,
                   require_unit, sphere_area, _leggauss)
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
    "representation_value",
    "omega_integral_probe",
    "omega_norm",
    "default_schedule",
    "HardyNormEstimate",
    "hardy_norm",
    "hardy_norms",
    "radial_profile",
    "prob_hardy_norm",
    "majorant",
    "PVResult",
    "fractional_laplacian",
    "FatouProbe",
    "fatou_probe",
]

SPHERE = "SPHERE"
HALFSPACE = "HALFSPACE"


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
    """Discrete surrogate of a boundary measure: nodes and weights."""

    nodes: np.ndarray
    weights: np.ndarray
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
    _integrability_checked: set[StableParams] = field(default_factory=set, repr=False)

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

def _sphere_rule(d: int, k: int, n: int, radial: int = 1) -> tuple[np.ndarray, np.ndarray]:
    # Normalized surface measure on S^(k-1): +-1 for k = 1, else the circle's
    # midpoint trapezoid lifted to {(sqrt(1 - t^2) y, t)} on n Gauss-Jacobi
    # nodes t per dimension (Legendre over 2n on the circle at k = 3).  Its 1/m
    # divides last: w_t / 2 times 1/m would move the last bit of some weights.
    # Refused, naming the caller's d, below 8 nodes per level or past the budget
    if k > 1 and n < 8:
        raise DomainError(f"the sphere rule in d={d} needs resolution >= 8, got {n}")
    count = radial * (2 if k == 1 else n if k == 2 else 2 * n ** (k - 1))
    if count > _MAX_NODES:
        raise DomainError(f"{count} nodes in d={d} exceed the budget of {_MAX_NODES}")
    if k == 1:
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    m = n if k == 2 else 2 * n
    theta = 2.0 * math.pi * (np.arange(m) + 0.5) / m
    nodes, weights = np.stack([np.cos(theta), np.sin(theta)], axis=1), np.ones(m)
    for j in range(3, k + 1):
        t, wt = _leggauss(n) if j == 3 else roots_jacobi(n, (j - 3) / 2.0, (j - 3) / 2.0)
        lifted = (np.sqrt(1.0 - t * t)[:, None, None] * nodes).reshape(-1, j - 1)
        nodes = np.concatenate([lifted, np.repeat(t, len(weights))[:, None]], axis=1)
        weights = np.outer(wt * (0.5 if j == 3 else 1.0 / wt.sum()), weights).ravel()
    return nodes, weights / m


def sphere_quadrature(p: StableParams, resolution: int) -> QuadratureGrid:
    """Normalized surface measure on the unit sphere, in every d.

    d = 2: midpoint trapezoid (spectral for smooth integrands); d >= 3:
    Gauss-Jacobi in each coordinate above the circle (Gauss-Legendre at
    d = 3) times a 2 x resolution trapezoid.  A resolution below 8, or a
    grid past 2^22 nodes, raises DomainError.
    """
    return QuadratureGrid(*_sphere_rule(p.d, p.d, resolution))


def _ring(p: StableParams, radial: int) -> tuple[np.ndarray, np.ndarray]:
    # the density rules' directions on S^(d-2), 64 around each circle in d = 3 and
    # 4, under 8 per level from d = 11; times ``radial``, one point's node count
    return _sphere_rule(p.d, p.d - 1, _RING_NODES // max(p.d - 2, 1), radial)


_TAIL_TOL = 1e-14           # tail share the radial rule aims for


def _radial_rule(n: int, decay_q: float, scale: float, k: int):
    # rho = scale exp((pi/2) sinh(w)), trapezoid in w, for the radial part
    # rho^(k-1) F(rho) d(rho) of an integral over R^k, F ~ rho^(-decay_q):
    # in w it falls off double-exponentially at both ends.  Inward the nodes
    # reach rho = scale e^(-0.3 n / k), which grows with n, so a singularity
    # at the center shows up as growth under refinement; outward they aim
    # for the tail share _TAIL_TOL and stop before rho^k overflows
    x_hi = min(max(-math.log(_TAIL_TOL) / max(decay_q - k, 1e-3), 40.0),
               650.0 / k - math.log(max(scale, 1.0)))
    w = np.linspace(-math.asinh(0.6 * n / (math.pi * k)), math.asinh(2.0 * x_hi / math.pi), n)
    rho = scale * np.exp((math.pi / 2.0) * np.sinh(w))
    return rho, (w[1] - w[0]) * (math.pi / 2.0) * np.cosh(w) * rho ** k


def hyperplane_quadrature(p: StableParams, resolution: int, decay_exponent: float,
                          center=None, scale: float = 1.0) -> QuadratureGrid:
    """Lebesgue measure on R^(d-1) in polar coordinates around ``center``.

    The radius runs through an exponential-sinh map, double-exponential
    toward the center and the tail, which keeps full accuracy for the
    heavy-tailed kernels; the directions through the sphere rule on
    S^(d-2).  ``decay_exponent`` is the algebraic decay the integrand is
    declared to have; it must exceed d - 1 for integrability and sets how
    far into the tail the radial nodes reach.  ``center``/``scale`` move
    the dense part of the rule (pass a kernel peak's foot point and height).
    The reported ``tail_bound`` is the residual integral of
    |y|^(-decay_exponent) beyond the largest radius, per unit coefficient.
    """
    k = p.d - 1
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
    if not 0.0 < scale <= math.exp(650.0 / k - 40.0):    # radial weights stay finite
        raise DomainError(f"scale must lie in (0, {math.exp(650.0 / k - 40.0):.3g}]")
    rho, wt = _radial_rule((resolution + 1) // 2, decay_exponent, scale, k)
    ring, ring_w = _ring(p, len(rho))
    nodes = center + (rho[:, None, None] * ring).reshape(-1, k)
    tail = sphere_area(k) * float(rho.max()) ** (k - decay_exponent) / (decay_exponent - k)
    return QuadratureGrid(nodes, np.outer(wt * sphere_area(k), ring_w).ravel(), tail_bound=tail)


# --- reference-measure integrals -------------------------------------------

_SHELL_EDGES = np.array([0.0, 1.0, 1e1, 1e2, 1e3, 1e5, 1e8, 1e12, np.inf])
_PROBE_NODES = 241          # resolution of the reference-measure probe


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


def _density_probe(p: StableParams, rep: HarmonicRepresentation) -> float:
    # the integral of |f| against the flavor's reference measure, omega_alpha
    # for the poisson flavor and Lebesgue measure for the martin flavor
    # (total variation); inf where the probe marks it divergent
    f = rep.density
    weight = "omega" if rep.flavor == "poisson" else "lebesgue"
    val, diverges, _ = omega_integral_probe(p, lambda pts: np.abs(f(pts)), weight=weight)
    return math.inf if diverges else val


def _ensure_halfspace_integrable(p: StableParams, rep: HarmonicRepresentation) -> None:
    # a halfspace density must have a finite _density_probe; that depends on
    # (d, alpha), so a pass is recorded per parameter set
    if p in rep._integrability_checked or rep.density is None:
        return
    if math.isinf(_density_probe(p, rep)):
        raise IntegrabilityError(
            "boundary density fails the reference-measure integrability condition")
    rep._integrability_checked.add(p)


# --- evaluating representations ---------------------------------------------

_RING_NODES = 64            # ring rule: _RING_NODES // (d - 2) nodes per level of S^(d-2)
_MAX_NODES = 1 << 22        # nodes of one rule, or of one point of a density rule
_BLOCK = 1 << 15            # density nodes, atom terms or slice points per block


def _default_sphere_grid(p: StableParams) -> QuadratureGrid:
    return sphere_quadrature(p, 1024 if p.d == 2 else 64)


def _row_blocks(m: int, n: int):
    step = max(1, _BLOCK // n)
    return (slice(i, i + step) for i in range(0, m, step))


def _polar_frames(eta: np.ndarray, ring: np.ndarray) -> np.ndarray:
    # (m, k, 2, d): rows eta and T omega for each unit eta and ring node
    # omega, T the Householder reflection I - 2 u u^T / |u|^2 with
    # u = eta + sign(eta_d) e_d, which maps (omega, 0) into eta's tangent space
    u = eta + np.outer(np.where(eta[:, -1] >= 0.0, 1.0, -1.0), basis_last(eta.shape[1]))
    # eta . (omega, 0) coordinate by coordinate, as core.scaled_dist2 sums: a
    # BLAS product's last bits depend on the block's row count
    terms = [eta[:, j, None] * ring[:, j] for j in range(ring.shape[1])]
    proj = sum(terms[1:], terms[0]) / (1.0 + np.abs(eta[:, -1]))[:, None]
    frames = np.empty((len(eta), len(ring), 2, eta.shape[1]))
    frames[:, :, 0] = eta[:, None, :]
    frames[:, :, 1] = -proj[:, :, None] * u[:, None, :]
    frames[:, :, 1, :-1] += ring
    return frames


def sphere_values(p: StableParams, rep: HarmonicRepresentation, r_minus_one,
                  dirs) -> np.ndarray:
    """Values of u = P[mu or f] + c (1 - Phi) at the points (1 + r_minus_one) dirs.

    Points are given by their exact offset r - 1 from the sphere and
    their unit directions, so kernel distances are assembled as
    (r - 1)^2 + r |eta - z|^2, scaled exactly where they would leave the
    float range.  Densities are integrated in geodesic polar coordinates
    around each direction: the polar angle psi = |r - 1| sinh(v) keeps the
    kernel peak resolved however close the point sits to the sphere.  A
    value beyond the float range raises DomainError.  ``dirs`` has shape
    (m, d); returns one value per point.
    """
    if rep.space != SPHERE:
        raise RepresentationError("sphere_values needs a SPHERE representation")
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if dirs.shape[1] != p.d:
        raise DomainError(f"directions must have length d={p.d}")
    rm1 = np.broadcast_to(np.asarray(r_minus_one, dtype=float), dirs.shape[:1])
    require_finite(rm1, "offsets r - 1 from the sphere")
    require_unit(dirs, "evaluation directions")
    if np.any(rm1 == 0.0):
        raise DomainError("evaluation point lies on the sphere")
    if np.any(rm1 < -1.0):
        raise DomainError("radius must be nonnegative")
    vals = np.zeros(len(rm1))
    if rep.measure is not None:
        atoms = rep.measure.atoms
        require_unit(atoms, "sphere atoms")
        c = sphere.constants(p).phi_at_origin
        # a row sum rather than a BLAS product, whose last bits depend on a
        # row's place in the call: no value depends on how points are batched
        for rows in _row_blocks(len(rm1), len(atoms)):
            with np.errstate(over="ignore", invalid="ignore"):      # caught below
                kern = sphere._kernel(p, rm1[rows, None], dirs[rows, None, :],
                                      atoms[None, :, :], c)
            vals[rows] += np.sum(kern * rep.measure.weights, axis=1)
    if rep.density is not None:
        vals += _sphere_polar_rule(p, rep.density, rm1, dirs)
    if rep.constant:
        uniq, inv = np.unique(rm1, return_inverse=True)
        vals += rep.constant * sphere.phi_complement_offset(p, uniq)[inv]
    require_finite(vals, "the representation's values")
    return vals


def _sphere_polar_rule(p: StableParams, f: BoundaryFunction, rm1: np.ndarray,
                       dirs: np.ndarray) -> np.ndarray:
    # Nodes z = cos(psi) eta + sin(psi) omega, omega on the tangent ring, with
    # the zonal weights of sphere.polar_weights, built once per radius
    uniq, inv = np.unique(rm1, return_inverse=True)
    psi, wk = sphere.polar_weights(p, uniq)
    ring, ring_w = _ring(p, psi.shape[-1])
    cos_sin = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    out = np.empty(len(rm1))
    for rows in _row_blocks(len(rm1), psi.shape[1] * len(ring_w)):
        i = inv[rows]
        nodes = cos_sin[i, None] @ _polar_frames(dirs[rows], ring)   # (m, k, n, d)
        fv = f(nodes.reshape(-1, p.d)).reshape(len(i), len(ring_w), -1)
        out[rows] = np.sum(wk[i] * (ring_w @ fv), axis=1)
    return out


def halfspace_values(p: StableParams, rep: HarmonicRepresentation, xbar,
                     t) -> np.ndarray:
    """Values of a halfspace representation at the points (xbar, t).

    The "poisson" flavor integrates the hitting density, the "martin"
    flavor the Martin kernel; either adds c |t|^(alpha-1).  Density parts
    are first checked against the reference measure; a divergent check
    raises IntegrabilityError.  Densities are integrated in polar
    coordinates around each foot point: the radius |t| sinh(v) makes the
    kernel weight independent of the height.  Atom distances come from
    the offsets themselves, scaled exactly, so small heights never
    collapse onto the foot point.  A value beyond the float range raises
    DomainError.  ``xbar`` has shape (m, d-1); returns one value per point.
    """
    if rep.space != HALFSPACE:
        raise RepresentationError("halfspace_values needs a HALFSPACE representation")
    xbar = np.atleast_2d(np.asarray(xbar, dtype=float))
    if xbar.shape[1] != p.d - 1:
        raise DomainError(f"foot points must have length d-1={p.d - 1}")
    t = np.broadcast_to(np.asarray(t, dtype=float), xbar.shape[:1])
    require_finite(xbar, "foot points")
    require_finite(t, "heights")
    if np.any(t == 0.0):
        raise DomainError("evaluation point lies on the hyperplane")
    martin = rep.flavor == "martin"
    vals = np.zeros(len(t))
    if rep.measure is not None:
        kernel = halfspace._martin if martin else halfspace._poisson
        atoms = rep.measure.atoms
        # a row sum, as on the sphere: no value depends on how points are batched
        for rows in _row_blocks(len(t), len(atoms)):
            with np.errstate(over="ignore", invalid="ignore"):      # caught below
                kern = kernel(p, t[rows, None], xbar[rows, None, :], atoms[None, :, :])
            vals[rows] += np.sum(kern * rep.measure.weights, axis=1)
    if rep.density is not None:
        _ensure_halfspace_integrable(p, rep)
        # node offsets sinh(v) omega at unit height, with the radial weights
        # of halfspace.polar_weights times the ring's
        v, radial = halfspace.polar_weights(p)
        ring, ring_w = _ring(p, len(v))
        with np.errstate(over="ignore"):     # near alpha = 1 tail nodes sit at infinity
            offsets = (np.sinh(v)[:, None, None] * ring).reshape(-1, p.d - 1)
        weights = np.outer(radial, ring_w).ravel()
        for rows in _row_blocks(len(t), len(weights)):
            # nodes past the float range sit at infinity; a density value
            # there that is not finite is caught below
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                y = (xbar[rows, None, :] + np.abs(t[rows])[:, None, None] * offsets
                     ).reshape(-1, p.d - 1)
                dens = rep.density(y)
                if martin:
                    dens = dens / halfspace.omega_alpha_density(p, y)
                # a row sum, not a BLAS product: as for the atoms above
                vals[rows] += np.sum(dens.reshape(-1, len(weights)) * weights, axis=1)
    if rep.constant:
        vals += rep.constant * np.abs(t) ** (p.alpha - 1.0)
    require_finite(vals, "the representation's values")
    return vals


def representation_value(p: StableParams, rep: HarmonicRepresentation, x) -> float:
    """Evaluate a representation at one point off its boundary: the value
    ``sphere_values`` or ``halfspace_values`` gives it in any batch."""
    x = as_point(x, p.d)
    if rep.space == SPHERE:
        r = norm(x)
        eta = x / r if r > 0.0 else basis_last(p.d)   # any direction at the origin
        return float(sphere_values(p, rep, r - 1.0, eta)[0])
    return float(halfspace_values(p, rep, x[:-1], x[-1])[0])


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
    """Schedule supremum of ||u_s||_p over slices s; see ``hardy_norms``."""
    return hardy_norms(p, space, u, (pexp,), schedule, grid)[0]


def hardy_norms(p: StableParams, space: str, u, pexps,
                schedule: np.ndarray | None = None,
                grid: QuadratureGrid | None = None) -> list[HardyNormEstimate]:
    """Schedule suprema of ||u_s||_p over slices s (radii or heights), per p.

    ``u`` is either a vectorized callable on (m, d) arrays of points, called
    once per slice, or a HarmonicRepresentation; a sphere representation's
    slices share one grid and are evaluated together, in batches of up to
    ``_BLOCK`` points.  Each slice is evaluated once and reduced for every
    exponent in ``pexps``; one estimate is returned per exponent, in
    order.  An estimate reports whether the running sup is still
    increasing at the schedule ends; a genuine blow-up toward the boundary
    is flagged as ``diverges`` rather than raised.
    """
    if space not in (SPHERE, HALFSPACE):
        raise DomainError(f"unknown space {space!r}")
    pexps = [float(q) for q in pexps]
    if not all(q >= 1.0 for q in pexps):
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
    slices: list[list[tuple[float, float]]] = [[] for _ in pexps]
    for s, values, g in _slice_values(p, space, u, rep,
                                      np.asarray(schedule, dtype=float), grid, builder):
        for q, out in zip(pexps, slices):
            out.append((float(s), _slice_norm(space, p, values, g, q)))
    return [_summarize_schedule(space, sl) for sl in slices]


def _slice_values(p: StableParams, space: str, u, rep, schedule: np.ndarray,
                  grid: QuadratureGrid | None, builder):
    # (s, values on the slice, its grid), slice by slice.  A sphere
    # representation's slices share the fixed grid, so they go through
    # sphere_values together, up to _BLOCK points and at least one slice per
    # call, each slice radius entering as the exact s - 1
    if rep is not None and space == SPHERE:
        n = len(grid.nodes)
        for rows in _row_blocks(len(schedule), n):
            batch = schedule[rows]
            values = sphere_values(p, rep, np.repeat(batch - 1.0, n),
                                   np.tile(grid.nodes, (len(batch), 1)))
            yield from zip(batch, values.reshape(-1, n), repeat(grid))
        return
    for s in schedule:
        g = builder(s) if builder is not None else grid
        if rep is None:
            values = np.asarray(u(_slice_points(space, p, g, s)), dtype=float)
        else:
            values = halfspace_values(p, rep, g.nodes, s)
        yield s, values, g


def radial_profile(p: StableParams, fn: Callable[[StableParams, float], float]):
    """u(x) = fn(p, |x|) for ``hardy_norms`` on sphere slices, whose points
    share one radius: ``fn`` runs once per slice, at its first point."""
    def u(pts):
        pts = np.atleast_2d(pts)
        return np.full(len(pts), fn(p, float(np.linalg.norm(pts[0]))))
    return u


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

    sphere:            [Phi(0) (||mu|| + ||f||_p^p) + |c|^p (1 - Phi(0))]^(1/p)
                       (mu = 0 when p > 1)
    halfspace, p = 1:  ||mu|| + |c|
    halfspace, p > 1:  ||f||_(p, omega)   (requires constant part 0)

    Returns inf if a density integral diverges; that is the signature of
    a function outside the space.
    """
    if pexp < 1.0:
        raise DomainError("the exponent must be >= 1")
    if pexp != 1.0 and rep.measure is not None:
        raise RepresentationError(
            "p > 1 norms need a density part; atomic measures lie outside L^p")
    if rep.space == SPHERE:
        phi0 = sphere.constants(p).phi_at_origin
        tv = rep.measure.total_variation if rep.measure is not None else 0.0
        fp = _sphere_density_norm(p, rep.density, pexp) ** pexp \
            if rep.density is not None else 0.0
        return (phi0 * (tv + fp) + abs(rep.constant) ** pexp * (1.0 - phi0)) ** (1.0 / pexp)
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
            tv += _density_probe(p, rep)
        return tv + abs(rep.constant)
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
    if pexp != 1.0 and rep.measure is not None:
        raise RepresentationError("p > 1 majorants need a density part")
    if pexp != 1.0 and rep.space == HALFSPACE and rep.constant != 0.0:
        raise RepresentationError(
            "p > 1 halfspace majorants require a vanishing constant part")
    abs_rep = HarmonicRepresentation(
        space=rep.space,
        measure=rep.measure.absolute() if rep.measure is not None else None,
        density=BoundaryFunction(lambda pts, f=rep.density: np.abs(f(pts)) ** pexp)
        if rep.density is not None else None,
        constant=abs(rep.constant) ** pexp,
        flavor=rep.flavor,
    )
    return representation_value(p, abs_rep, x)


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

    Runs on the directions of ``sphere_quadrature`` at resolution
    round(n_angle^(1/(d-1))), which must reach 8: n_angle points on the
    circle, a 16 x 32 product grid by default in d = 3; from d = 4 on the
    default is too coarse, and the error names the least n_angle that
    serves (422 in d = 4; 512 gives an 8 x 8 x 16 grid).  n_angle must be
    even, so that the direction set is symmetric.  The annulus
    eps <= |h| <= 1 is integrated with the symmetrized increment
    (u(x+h) + u(x-h) - 2u(x))/2, which turns the principal value into an
    absolutely convergent integral for C^2 functions; the remaining
    eps-ball contributes c2 eps^(2-alpha)/(2-alpha) at leading order and
    is added back from a curvature estimate of the innermost rings, with
    the residual priced into the error estimate.  [1, rmax] is integrated
    directly; the tail beyond rmax is bounded analytically from
    ``growth_exponent`` (the declared growth |u(y)| = O(|y|^g), g < alpha)
    and also reported in the error estimate.  The default rmax is 1e4
    rather than 1e3: growth exponents near alpha - 1 make the truncated
    tail scale like rmax^(-alpha), and 1e3 leaves it above the per-mille
    accuracy the harmonicity probes target.

    ``local_scale`` is the integral of the absolute integrand, the
    natural magnitude against which a residual should be judged.
    """
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
    x = as_point(x, p.d)
    resolution = round(n_angle ** (1.0 / (p.d - 1)))
    if resolution < 8:      # the least even n_angle whose root rounds to 8 is past 7.5^(d-1)
        raise DomainError(f"n_angle={n_angle} is too few directions in d={p.d}; it must be "
                          f"even and at least {2 * math.ceil(7.5 ** (p.d - 1) / 2.0)}")
    grid = sphere_quadrature(p, resolution)
    dirs, w_dir = grid.nodes, grid.weights * sphere_area(p.d)
    u0 = float(np.asarray(u(x[None, :]))[0])
    gl_x, gl_w = _leggauss(n_radial)

    def ring_values(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = rho[:, None, None] * dirs[None, :, :]
        up = np.asarray(u((x + h).reshape(-1, p.d))).reshape(len(rho), len(dirs))
        um = np.asarray(u((x - h).reshape(-1, p.d))).reshape(len(rho), len(dirs))
        return up, um

    # inner annulus in log-radius; in polar coordinates the kernel
    # |h|^(-d-alpha) times rho^(d-1) (polar) times rho (log map) is rho^(-alpha)
    s_in = (gl_x + 1.0) / 2.0 * (-math.log(eps)) + math.log(eps)
    w_in = gl_w / 2.0 * (-math.log(eps))
    rho_in = np.exp(s_in)
    up, um = ring_values(rho_in)
    g_in = (up + um) / 2.0 - u0
    radial_in = w_in * rho_in ** (-a)
    inner = float(radial_in @ g_in @ w_dir)
    inner_abs = float(radial_in @ np.abs(g_in) @ w_dir)

    # eps-ball: the symmetrized increment is c2(theta) rho^2 + O(rho^4) for
    # locally C^4 u, so the [0, eps) piece integrates to
    # c2 eps^(2-alpha)/(2-alpha) per direction; c2 is read off the two
    # innermost rings and their disagreement prices the correction
    c2_a = g_in[0] / rho_in[0] ** 2
    c2_b = g_in[1] / rho_in[1] ** 2
    ball_factor = eps ** (2.0 - a) / (2.0 - a)
    ball = float(c2_a @ w_dir) * ball_factor
    err_ball = abs(float((c2_a - c2_b) @ w_dir)) * ball_factor

    # outer annulus [1, rmax]
    s_out = (gl_x + 1.0) / 2.0 * math.log(rmax)
    w_out = gl_w / 2.0 * math.log(rmax)
    rho_out = np.exp(s_out)
    up, _ = ring_values(rho_out)
    g_out = up - u0
    radial_out = w_out * rho_out ** (-a)
    outer = float(radial_out @ g_out @ w_dir)
    outer_abs = float(radial_out @ np.abs(g_out) @ w_dir)

    # error budget: eps-ball correction residual + analytic tail beyond rmax
    rim = float(np.max(np.abs(g_out[-1])))
    err_tail = sphere_area(p.d) * rim * rmax ** (-a) / (a - growth_exponent)
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
    if not 0.0 < beta <= 1e154:                 # (1 + beta)^2 stays a float
        raise DomainError(f"the cone aperture beta must lie in (0, 1e154], got {beta}")
    if not 1 <= depth <= 1074:                  # 2^-1074 is the least positive float
        raise DomainError(f"the probe depth must lie in [1, 1074], where the boundary "
                          f"distance 2^-depth is positive, got {depth}")
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
            bases.append(_cone_base(rep.space, y, delta, spread, rng))
    offsets, bases = np.array(offsets), np.array(bases)
    # the exact boundary distance goes straight into the kernel algebra;
    # coordinates would absorb it near the ulp
    if rep.space == SPHERE:
        vals = sphere_values(p, rep, offsets, bases)
    else:
        vals = halfspace_values(p, rep, bases, offsets)
    devs = np.abs(vals - target).reshape(depth, 2)
    return FatouProbe(deviations=devs, target=target)


def _cone_base(space: str, y: np.ndarray, delta: float, spread: float,
               rng: np.random.Generator) -> np.ndarray:
    # direction (sphere) or foot point (hyperplane) of one probe point: a
    # step of uniform length up to spread * delta along a uniform direction
    # tangent to the boundary at y
    v = rng.standard_normal(len(y))
    if space == SPHERE:
        v -= np.dot(v, y) * y
    v /= np.linalg.norm(v) or 1.0
    step = spread * delta * rng.random()
    if space == SPHERE:
        return y * math.cos(step) + v * math.sin(step)
    return y + step * v
