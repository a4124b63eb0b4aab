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

Density parts are integrated by one driver, ``_ring_rule``, in both
geometries.  Each evaluator hands it the density (a martin density g as
g / omega), its radial weights and its node placement: geodesic polar
coordinates around each evaluation direction on the sphere, with the
zonal weights of ``sphere.polar_weights``, and polar coordinates around
each foot point on the hyperplane, with those of
``halfspace.polar_weights``.  The rings and ``sphere_quadrature`` are one
product rule on S^(k-1) in every d, refused past 2^22 nodes; each point
takes the first ring, from 8 nodes per level on, that agrees with a
turned check ring of about half its nodes.  A density whose ring does
not settle within that budget (a kink or a jump across the rings) raises
ConvergenceError.

Hardy norms are schedule suprema of slice L^p norms on one grid per
schedule, which a hyperplane slice moves to the boundary support and
scales by its height.  Divergence is a reported state, never an
exception; a density the ring cannot settle raises that ConvergenceError
(a RuntimeError), a slice off the domain DomainError.  The pointwise
fractional Laplacian
is a principal-value quadrature with a symmetrized inner annulus, and
the Fatou probes walk nontangential cones down to the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Literal

import numpy as np

from .core import (StableParams, as_point, basis_last, norm, require_finite,
                   require_unit, sphere_area, _leggauss)
from .errors import (ConvergenceError, DomainError, IntegrabilityError,
                     RepresentationError)
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
        if len(set(map(tuple, self.atoms.tolist()))) != self.atoms.shape[0]:
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
    an (m,) array; any other shape raises RepresentationError.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        vals = np.asarray(self.evaluator(pts), dtype=float)
        if vals.shape != (len(pts),):
            raise RepresentationError(f"the density's evaluator returned shape {vals.shape} "
                                      f"for {len(pts)} points; it must return ({len(pts)},)")
        return vals

    def value_at(self, pt) -> float:
        return float(self(np.atleast_2d(np.asarray(pt, dtype=float)))[0])


@dataclass
class QuadratureGrid:
    """Discrete surrogate of a boundary measure: nodes and weights."""

    nodes: np.ndarray
    weights: np.ndarray

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

@lru_cache(maxsize=64)
def _gauss_jacobi(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Jacobi nodes (ascending) and weights for the weight (1 - t^2)^a on
    # [-1, 1], the weights summing to 1: the eigenvalues of the Jacobi matrix
    # (Golub & Welsch, Math. Comp. 23, 1969), each polished by a Newton step on
    # the orthonormal three-term recurrence, whose sum of squares gives the
    # weight (the Christoffel function).  For n <= 64 and a = 1/2 .. 2 the nodes
    # are within 1e-16 and the weights within 6e-14 of a 40-digit rule
    k = np.arange(1.0, n)
    off = np.sqrt(k * (k + 2.0 * a) / ((2.0 * k + 2.0 * a + 1.0) * (2.0 * k + 2.0 * a - 1.0)))
    t = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for polish in (True, False):
        q0, q1, dq0, dq1, total = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n)
        for b0, b1 in zip(np.concatenate([[0.0], off]), np.concatenate([off, [1.0]])):
            total += q1 * q1
            q0, q1, dq0, dq1 = q1, (t * q1 - b0 * q0) / b1, dq1, (q1 + t * dq1 - b0 * dq0) / b1
        if polish:
            t = t - q1 / dq1
    t, w = 0.5 * (t - t[::-1]), 0.5 * (1.0 / total + 1.0 / total[::-1])
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _sphere_rule(d: int, k: int, n: int, radial: int = 1,
                 turn: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    # Normalized surface measure on S^(k-1): +-1 for k = 1, else the circle's
    # midpoint trapezoid, turned by ``turn`` radians, lifted to
    # {(sqrt(1 - t^2) y, t)} on n Gauss-Jacobi nodes t per dimension (Legendre
    # over 2n on the circle at k = 3).  Its 1/m divides last: w_t / 2 times 1/m
    # would move the last bit of some weights.  Refused past the budget,
    # naming the caller's d
    count = radial * (2 if k == 1 else n if k == 2 else 2 * n ** (k - 1))
    if count > _MAX_NODES:
        raise DomainError(f"{count} nodes in d={d} exceed the budget of {_MAX_NODES}")
    if k == 1:
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    m = n if k == 2 else 2 * n
    theta = 2.0 * math.pi * (np.arange(m) + 0.5) / m + turn
    nodes, weights = np.stack([np.cos(theta), np.sin(theta)], axis=1), np.ones(m)
    for j in range(3, k + 1):
        t, wt = _leggauss(n) if j == 3 else _gauss_jacobi(n, (j - 3) / 2.0)
        lifted = (np.sqrt(1.0 - t * t)[:, None, None] * nodes).reshape(-1, j - 1)
        nodes = np.concatenate([lifted, np.repeat(t, len(weights))[:, None]], axis=1)
        weights = np.outer(wt * (0.5 if j == 3 else 1.0 / wt.sum()), weights).ravel()
    return nodes, weights / m


def sphere_quadrature(p: StableParams, resolution: int, center=None,
                      scale: float | None = None) -> QuadratureGrid:
    """Normalized surface measure on the unit sphere, in every d.

    d = 2: midpoint trapezoid (spectral for smooth integrands); d >= 3:
    Gauss-Jacobi in each coordinate above the circle (Gauss-Legendre at
    d = 3) times a 2 x resolution trapezoid.

    With a unit ``center`` the rule is centred on that pole instead, for
    integrands peaked there with width ``scale`` in (0, 1] (default 1):
    geodesic polar angle psi = scale sinh(v) on Gauss-Legendre nodes in
    v in [0, asinh(pi / scale)], the double-exponential map of Takahasi
    and Mori, times the rule on S^(d-2) at ``resolution`` per level in the
    center's tangent space.  The radial nodes start at ``resolution`` and
    double until the zonal moments E[(center . z)^(2j)], j <= 4, hold to
    1e-14 relative (plus 4 eps asinh(pi / scale), the map's rounding); the
    smaller the scale and the larger d, the more they take (64 at d = 2
    and 3 for scale 2^-13, 512 at 2^-300).

    A resolution below 8, a grid past 2^22 nodes, a center that is not a
    unit vector, a scale outside (0, 1] or so small that pi / scale
    overflows, or a radial rule that does not settle within 4,096 nodes
    raises DomainError.
    """
    _require_resolution(p.d, resolution)
    if center is None:
        if scale is not None:
            raise DomainError("a scale needs a center to centre the rule on")
        return QuadratureGrid(*_sphere_rule(p.d, p.d, resolution))
    center = np.asarray(center, dtype=float)
    if center.shape != (p.d,):
        raise DomainError(f"center must have length d={p.d}")
    require_unit(center, "the rule's center")
    scale = 1.0 if scale is None else float(scale)
    if not 0.0 < scale <= 1.0:
        raise DomainError(f"scale must lie in (0, 1], got {scale!r}")
    psi, wpsi = _pole_radial_rule(p.d, resolution, scale)
    ring, ring_w = _sphere_rule(p.d, p.d - 1, resolution, len(psi))
    # (ring, radial, d): z = cos(psi) center + sin(psi) T omega
    frames = _polar_frames(center[None, :] / norm(center), ring)[0]
    nodes = np.stack([np.cos(psi), np.sin(psi)], axis=1) @ frames
    return QuadratureGrid(nodes.reshape(-1, p.d), np.outer(ring_w, wpsi).ravel())


_POLE_TOL = 1e-14           # the pole-centred radial rule's zonal moments, relative
_POLE_MAX_RADIAL = 4096     # radial nodes it may take


def _pole_radial_rule(d: int, n: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    # psi = scale sinh(v) with the normalized zonal weight
    # |S^(d-2)| / |S^(d-1)| sin^(d-2)(psi) dpsi.  Toward psi = pi the map grows
    # double-exponentially, so the nodes the rule needs grow with
    # asinh(pi / scale) and with d: n doubles until the moments
    # E[cos^(2j) psi] = prod_(i<j) (2i + 1) / (d + 2i), j <= 4, hold to
    # _POLE_TOL plus the map's own rounding: v carries an error of eps vmax,
    # which moves psi near pi by as much, relative
    vmax = math.asinh(math.pi / scale)
    if math.isinf(vmax):
        raise DomainError(f"scale {scale:.3g} is too small for the pole-centred rule")
    tol = _POLE_TOL + 4.0 * np.finfo(float).eps * vmax
    area = scale * sphere_area(d - 1) / sphere_area(d)
    powers = 2 * np.arange(5)
    want = np.cumprod(np.r_[1.0, (powers[:-1] + 1.0) / (d + powers[:-1])])
    while n <= _POLE_MAX_RADIAL:
        x, w = _leggauss(n)
        v = (x + 1.0) / 2.0 * vmax
        psi = scale * np.sinh(v)
        weights = w * (vmax / 2.0) * area * np.cosh(v) * np.sin(psi) ** (d - 2)
        got = (np.cos(psi)[None, :] ** powers[:, None]) @ weights
        if np.all(np.abs(got - want) <= tol * want):
            return psi, weights
        n *= 2
    raise DomainError(
        f"the pole-centred rule at scale {scale:.3g} in d={d} misses its zonal "
        f"moments by more than {tol:.2g} at {_POLE_MAX_RADIAL} radial nodes")


def _require_resolution(d: int, n: int) -> None:
    if n < 8:
        raise DomainError(f"the sphere rule in d={d} needs resolution >= 8, got {n}")


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
    per_level = 64 // max(k - 1, 1)     # 64 directions around the circle in d = 3
    _require_resolution(p.d, per_level)
    rho, wt = _radial_rule((resolution + 1) // 2, decay_exponent, scale, k)
    ring, ring_w = _sphere_rule(p.d, k, per_level, len(rho))
    nodes = center + (rho[:, None, None] * ring).reshape(-1, k)
    return QuadratureGrid(nodes, np.outer(wt * sphere_area(k), ring_w).ravel())


# --- reference-measure integrals -------------------------------------------

_SHELL_EDGES = np.array([0.0, 1.0, 1e1, 1e2, 1e3, 1e5, 1e8, 1e12, np.inf])
_PROBE_NODES = 241          # resolution of the reference-measure probe


def _shell_test(p: StableParams, nodes: np.ndarray,
                contrib: np.ndarray) -> tuple[bool, np.ndarray]:
    # Decade-shell sums of the nonnegative contributions, outermost last,
    # and whether the outermost shell marks a divergent tail: it must hold
    # at least half the next one's mass and twice the share rho that the
    # reference measure's own |ybar|^(-(d + alpha - 2)) tail puts there
    # (rho is 0.01 at alpha = 1.5, 0.66 at alpha = 1.1).  Radii sum their
    # squares coordinate by coordinate, the bits of np.sum over a short row;
    # one past the float range reads inf and lies in the outermost shell, a
    # NaN falls beyond the last edge, in no shell
    with np.errstate(over="ignore"):            # a sum past the float range reads inf
        radii = np.sqrt(sum(nodes[:, j] ** 2 for j in range(nodes.shape[1])))
        shell = np.searchsorted(_SHELL_EDGES, radii, "right") - 1
        shell[radii == math.inf] = len(_SHELL_EDGES) - 2
        inc = np.bincount(shell, weights=contrib, minlength=len(_SHELL_EDGES))[:-1]
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

_MAX_NODES = 1 << 22        # nodes of one rule, or of one point in a density rule's pass
_BLOCK = 1 << 15            # density nodes, atom terms or slice points per block
_RING_TOL = 1e-14           # a ring's gap to its check, in units of the sum of w |f|
_TURN = math.pi * (3.0 - math.sqrt(5.0))   # the check ring's turn, the golden angle


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
    value beyond the float range raises DomainError; a density whose ring
    does not settle within the 2^22-node budget, such as one with a kink
    or a jump, raises ConvergenceError.  ``dirs`` has shape (m, d);
    returns one value per point.
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
    uniq, inv = np.unique(rm1, return_inverse=True)
    if rep.measure is not None:
        atoms = rep.measure.atoms
        require_unit(atoms, "sphere atoms")
        c = sphere.constants(p).phi_at_origin
        vals += _atom_sums(rep.measure, len(rm1), lambda rows: sphere._kernel(
            p, rm1[rows, None], dirs[rows, None, :], atoms[None, :, :], c))
    if rep.density is not None:
        # nodes z = cos(psi) eta + sin(psi) omega, omega on the ring turned
        # into eta's tangent space, with the zonal weights of
        # sphere.polar_weights, built once per radius
        psi, wk = sphere.polar_weights(p, uniq)
        cos_sin = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        vals += _ring_rule(p, rep.density, wk, inv, lambda idx, ring:
                           cos_sin[inv[idx], None] @ _polar_frames(dirs[idx], ring))
    if rep.constant:
        vals += rep.constant * sphere.phi_complement_offset(p, uniq)[inv]
    require_finite(vals, "the representation's values")
    return vals


def _atom_sums(measure: DiscreteMeasure, m: int, kernel) -> np.ndarray:
    # sum_j w_j kernel(rows)[:, j] at m points, kernel(rows) giving the kernel
    # at the points ``rows`` and every atom: a row sum rather than a BLAS
    # product, whose last bits depend on a row's place in the call, so no
    # value depends on how points are batched
    out = np.empty(m)
    for rows in _row_blocks(m, len(measure.atoms)):
        with np.errstate(over="ignore", invalid="ignore"):      # refused by the caller
            out[rows] = np.sum(kernel(rows) * measure.weights, axis=1)
    return out


def _ring_rule(p: StableParams, f: Callable[[np.ndarray], np.ndarray],
               radial_w: np.ndarray, row_of: np.ndarray, place) -> np.ndarray:
    # The one density rule: point i sums radial_w[row_of[i], j] (a row per
    # radius, not a copy per point) times the mean of f over the ring at its
    # radial node j, whose nodes place(idx, ring) gives as one (len(idx),
    # len(ring), radial, k) array.  A point keeps its sum on the first ring
    # of n = 8, 16, ... nodes per level of S^(d-2) that lies within
    # _RING_TOL sum w |f| of its sum on a check ring of n / 2 - 1 per level,
    # evaluated in the same pass: the trapezoid rule converges geometrically,
    # and the gap bounds its error (Trefethen & Weideman, SIAM Review 56,
    # 2014).  The check shares no node and no lattice with the kept ring.
    # Its odd count keeps a piecewise-constant density, whose ring sums are
    # node counts over n, from summing alike on both, and its golden-angle
    # turn gives every angular mode that both rings alias a different phase
    # on each.  In d = 2 the ring is {+-1}, exact, and takes no check.  The
    # choice and the sum depend on the point alone, never on its batch.
    # Nodes past the float range are inf; values that are not finite settle
    # at once and are refused by the caller
    todo, n, radial = np.arange(len(row_of)), 8, radial_w.shape[1]
    out = np.empty(len(todo))
    while True:
        ring, ring_w = _sphere_rule(p.d, p.d - 1, n, radial)
        k = len(ring_w)
        if p.d > 2:
            check, check_w = _sphere_rule(p.d, p.d - 1, n // 2 - 1, radial, _TURN)
            ring = np.concatenate([ring, check])
        size, (s, a, c) = radial * len(ring), np.empty((3, len(todo)))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for rows in _row_blocks(len(todo), size):
                idx = todo[rows]
                y, w = place(idx, ring), radial_w[row_of[idx]]
                fv = f(y.reshape(-1, y.shape[-1])).reshape(y.shape[:-1])
                s[rows] = np.sum(w * (ring_w @ fv[:, :k]), axis=1)
                if p.d > 2:
                    a[rows] = np.sum(w * (ring_w @ np.abs(fv[:, :k])), axis=1)
                    c[rows] = np.sum(w * (check_w @ fv[:, k:]), axis=1)
                del y, w, fv        # before the next block's: its arrays reuse their memory
            if p.d == 2:                # the ring {+-1} is exact
                return s
            s[~np.isfinite(c)] = np.nan         # settles: refused by the caller
            gap = np.abs(s - c)
        moving = gap > _RING_TOL * a
        out[todo[~moving]] = s[~moving]
        if not moving.any():
            return out
        if size << (p.d - 2) > _MAX_NODES:     # one point's nodes in the next pass
            worst = np.flatnonzero(moving)[np.argmax(gap[moving])]
            raise ConvergenceError(
                f"the density rule's ring does not settle in d={p.d}: at {radial * k} "
                f"nodes per point its sum still moves by {gap[worst]:.3g} against a "
                f"sum of w |f| of {a[worst]:.3g}, and the next pass's {size << (p.d - 2)} "
                f"nodes pass the budget of {_MAX_NODES}")
        todo, n = todo[moving], 2 * n


def halfspace_values(p: StableParams, rep: HarmonicRepresentation, xbar,
                     t) -> np.ndarray:
    """Values of a halfspace representation at the points (xbar, t).

    The "poisson" flavor integrates the hitting density, the "martin"
    flavor the Martin kernel; either adds c |t|^(alpha-1).  Density parts
    are first checked against the reference measure; a divergent check
    raises IntegrabilityError.  Densities are integrated in polar
    coordinates around each foot point: the radius |t| sinh(v) makes the
    kernel weight independent of the height.  A martin density g enters
    as the Poisson integral of g / omega, where a node with g = 0 adds 0
    however small omega gets.  Atom distances come from
    the offsets themselves, scaled exactly, so small heights never
    collapse onto the foot point.  A value beyond the float range raises
    DomainError; a density whose ring does not settle within the
    2^22-node budget, such as one with a kink or a jump, raises
    ConvergenceError.  ``xbar`` has shape (m, d-1); returns one value per
    point.
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
        vals += _atom_sums(rep.measure, len(t), lambda rows: kernel(
            p, t[rows, None], xbar[rows, None, :], atoms[None, :, :]))
    if rep.density is not None:
        _ensure_halfspace_integrable(p, rep)
        f = rep.density
        if martin:
            def f(y):
                # g / omega without omega_alpha_density's finite-point check:
                # near alpha = 1 tail nodes sit at infinity, where both vanish
                gy = rep.density(y)
                return np.divide(gy, halfspace._poisson(p, 1.0, np.zeros(p.d - 1), y),
                                 out=np.zeros_like(gy), where=gy != 0.0)

        # nodes xbar + |t| sinh(v) omega, with the radial weights of
        # halfspace.polar_weights shared by every point
        v, radial = halfspace.polar_weights(p)

        def place(idx, ring):
            # one array per block, built in place; near alpha = 1 tail nodes sit at
            # infinity, where a zero coordinate (the check ring's equator) stays 0
            offsets = np.where(ring[:, None] == 0.0, 0.0, ring[:, None] * np.sinh(v)[:, None])
            y = np.multiply(np.abs(t[idx])[:, None, None, None], offsets,
                            out=np.empty((len(idx),) + offsets.shape))
            y += xbar[idx, None, None, :]
            return y

        vals += _ring_rule(p, f, radial[None, :], np.zeros(len(t), dtype=int), place)
    if rep.constant:
        vals += rep.constant * np.abs(t) ** (p.alpha - 1.0)
    require_finite(vals, "the representation's values")
    return vals


def representation_value(p: StableParams, rep: HarmonicRepresentation, x) -> float:
    """Evaluate a representation at one point off its boundary: the value
    ``sphere_values`` or ``halfspace_values`` gives it in any batch, with
    their errors (ConvergenceError for a density the ring cannot settle)."""
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
    diverges: bool


def default_schedule(space: str, depth: int = 24) -> np.ndarray:
    """Geometric slice schedule accumulating at the boundary and at infinity."""
    ks = np.arange(1, depth + 1, dtype=float)
    if space == SPHERE:
        rs = np.concatenate([2.0 ** -ks, 1.0 - 2.0 ** -ks, 1.0 + 2.0 ** -ks, 2.0 ** ks])
        return np.array(sorted(set(rs[rs > 0].tolist())))
    ts = np.concatenate([2.0 ** -ks, 2.0 ** ks])
    return np.array(sorted(set(np.concatenate([ts, -ts]).tolist())))


def _slice_norm(space: str, p: StableParams, values: np.ndarray,
                grid: QuadratureGrid, pexp: float, mass: float = 1.0) -> float:
    # ``mass`` scales the measure of the slice's ``grid``
    if math.isinf(pexp):
        return float(np.max(np.abs(values)))  # grid max: lower bound of ess sup
    with np.errstate(over="ignore"):            # a sum past the float range reads inf
        contrib = grid.weights * np.abs(values) ** pexp
        total = mass * float(np.sum(contrib))
    if space == HALFSPACE and _shell_test(p, grid.nodes, contrib)[0]:
        return math.inf
    return total ** (1.0 / pexp)


def hardy_norm(p: StableParams, space: str, u, pexp: float,
               schedule: np.ndarray | None = None,
               grid: QuadratureGrid | None = None) -> HardyNormEstimate:
    """Schedule supremum of ||u_s||_p over slices s; see ``hardy_norms``."""
    return hardy_norms(p, space, u, (pexp,), schedule, grid)[0]


def hardy_norms(p: StableParams, space: str, u, pexps,
                schedule: np.ndarray | None = None,
                grid: QuadratureGrid | None = None) -> list[HardyNormEstimate]:
    """Schedule suprema of ||u_s||_p over slices s (radii or heights), per p.

    ``u`` is a vectorized callable on (m, d) arrays of points or a
    HarmonicRepresentation.  One grid serves the schedule: ``grid``, by
    default the fixed sphere grid or ``hyperplane_quadrature(p, 241,
    d + alpha - 2)``.  A sphere slice puts it at radius s.  A hyperplane
    grid is read at unit scale about the origin: the slice at height t
    takes the nodes center + lam y, lam = max(|t|, spread) about the
    boundary support, and multiplies its sum of w |u|^p by lam^(d-1), so a
    power-of-two lam gives the bits of the grid built at that scale.
    Only a sphere representation's slices are batched, through
    ``sphere_values`` up to ``_BLOCK`` points and at least one slice per
    call, each radius as the exact offset s - 1; any other ``u`` takes one
    call per slice.  Each slice is reduced for every exponent in
    ``pexps``, one estimate per exponent, in order; an estimate flags a
    blow-up toward the boundary as ``diverges`` rather than raising.

    An empty schedule, a slice that is not finite, a radius below 0 or
    equal to 1, a height of 0, or a hyperplane slice whose nodes or
    measure leave the float range raises DomainError; a density ring that
    does not settle raises ConvergenceError, as in ``sphere_values`` and
    ``halfspace_values``.
    """
    if space not in (SPHERE, HALFSPACE):
        raise DomainError(f"unknown space {space!r}")
    pexps = [float(q) for q in pexps]
    if not all(q >= 1.0 for q in pexps):
        raise DomainError("the slice exponent must be >= 1")
    schedule = np.asarray(default_schedule(space) if schedule is None else schedule,
                          dtype=float)
    if schedule.size == 0:
        raise DomainError("the slice schedule is empty")
    require_finite(schedule, "the slice schedule")
    off = schedule == 0.0 if space == HALFSPACE else (schedule < 0.0) | (schedule == 1.0)
    if np.any(off):
        raise DomainError(f"no slice at {schedule[off][0]!r}: a radius < 0 or 1, or height 0")
    rep = u if isinstance(u, HarmonicRepresentation) else None
    if space == SPHERE:
        grid = _default_sphere_grid(p) if grid is None else grid
        step = max(1, _BLOCK // len(grid.nodes))
    else:
        grid = hyperplane_quadrature(p, 241, p.d + p.alpha - 2.0) if grid is None else grid
        # slice integrands peak at the support with width |t|: the grid follows
        center, spread = _halfspace_support(p, rep)
        grid_mass = float(np.sum(grid.weights))
    slices: list[list[tuple[float, float]]] = [[] for _ in pexps]
    for i, s in enumerate(schedule):
        g, mass = grid, 1.0
        if space == SPHERE and rep is not None:
            if i % step == 0:
                batch = schedule[i:i + step]
                block = sphere_values(p, rep, np.repeat(batch - 1.0, len(grid.nodes)),
                                      np.tile(grid.nodes, (len(batch), 1)))
            values = block.reshape(-1, len(grid.nodes))[i % step]
        elif space == SPHERE:
            values = u(s * grid.nodes)
        else:
            lam = max(abs(s), spread)
            with np.errstate(over="ignore"):
                g = QuadratureGrid(center + lam * grid.nodes, grid.weights)
                mass = float(np.float64(lam) ** (p.d - 1))
            if not (np.all(np.isfinite(g.nodes)) and math.isfinite(mass * grid_mass)):
                raise DomainError(f"the slice at height {s:.3g} leaves the float range")
            values = (halfspace_values(p, rep, g.nodes, s) if rep is not None
                      else u(np.concatenate([g.nodes, np.full((len(g.nodes), 1), s)], axis=1)))
        values = np.asarray(values, dtype=float)
        for q, out in zip(pexps, slices):
            out.append((float(s), _slice_norm(space, p, values, g, q, mass)))
    return [_summarize_schedule(space, sl) for sl in slices]


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
    diverges = bool(np.any(np.isinf(svals)))
    if inc_boundary and len(seq) >= 4:
        half = seq[len(seq) // 2]
        if half > 0 and seq[-1] / half > 1.5:
            diverges = True
    return HardyNormEstimate(value=value, slices=slices, sup_at=sup_at,
                             increasing_at_boundary=inc_boundary, diverges=diverges)


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
    |f| of a sign-changing density has a kink, which the density ring
    may not settle from d = 3 on: ConvergenceError.
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


_PV_EPS = 1e-4      # radius of the ball the curvature estimate stands in for
# outer radius of the direct integral, 1e4 rather than 1e3: growth exponents
# near alpha - 1 make the truncated tail scale like rmax^(-alpha), and 1e3
# leaves it above the per-mille accuracy the harmonicity probes target
_PV_RMAX = 1e4


def fractional_laplacian(p: StableParams, u, x, growth_exponent: float = 0.0,
                         n_angle: int = 256, n_radial: int = 192) -> PVResult:
    """Pointwise fractional Laplacian of u at x by principal-value quadrature.

    Runs on the directions of ``sphere_quadrature`` at resolution
    round(n_angle^(1/(d-1))), which must reach 8: n_angle points on the
    circle, a 16 x 32 product grid by default in d = 3; from d = 4 on the
    default is too coarse, and the error names the least n_angle that
    serves (422 in d = 4; 512 gives an 8 x 8 x 16 grid).  n_angle must be
    even, so that the direction set is symmetric.  The annulus
    eps = 1e-4 <= |h| <= 1 is integrated with the symmetrized increment
    (u(x+h) + u(x-h) - 2u(x))/2, which turns the principal value into an
    absolutely convergent integral for C^2 functions; the remaining
    eps-ball contributes c2 eps^(2-alpha)/(2-alpha) at leading order and
    is added back from a curvature estimate of the innermost rings, with
    the residual priced into the error estimate.  [1, rmax] = [1, 1e4] is
    integrated directly; the tail beyond rmax is bounded analytically from
    ``growth_exponent`` (the declared growth |u(y)| = O(|y|^g), g < alpha)
    and also reported in the error estimate.

    ``local_scale`` is the integral of the absolute integrand, the
    natural magnitude against which a residual should be judged.
    """
    if growth_exponent >= p.alpha:
        raise IntegrabilityError(
            f"declared growth {growth_exponent} >= alpha={p.alpha}: "
            "the tail integral does not converge")
    if n_angle % 2:
        raise DomainError("n_angle must be even so that the direction set is symmetric")
    a, eps, rmax = p.alpha, _PV_EPS, _PV_RMAX
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
