"""Robustness contract of the array entry points.

At every radius or height in [0, 1e300], and at NaN and inf, a call
returns finite values or raises one of the package's typed errors; it
never returns NaN or inf and never lets a RuntimeWarning (an error in
this suite) or a raw arithmetic exception escape.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepot import sphere
from stablepot.analysis import (HALFSPACE, SPHERE, BoundaryFunction,
                                DiscreteMeasure, HarmonicRepresentation,
                                halfspace_values, sphere_values)
from stablepot.core import StableParams, basis_last
from stablepot.errors import (ConvergenceError, DivergenceError, DomainError,
                              RepresentationError)

TYPED = (DomainError, ConvergenceError, DivergenceError, RepresentationError)
CONTRACT = settings(derandomize=True, database=None, max_examples=60, deadline=None)
RADII = st.one_of(st.floats(0.0, 1e300), st.sampled_from([math.nan, math.inf]))
DIMS = st.sampled_from([2, 3])


def _direction(d):
    v = np.arange(1.0, d + 1.0)
    return v / np.linalg.norm(v)


def _sphere_reps(d):
    dens = BoundaryFunction(lambda z: 1.0 + 0.5 * z[:, 0])
    atoms = DiscreteMeasure(np.stack([_direction(d), basis_last(d)]), [0.7, -0.2])
    return (HarmonicRepresentation(SPHERE, density=dens, constant=0.5),
            HarmonicRepresentation(SPHERE, measure=atoms, constant=-0.3))


def _halfspace_reps(d):
    bump = BoundaryFunction(lambda y: 1.0 / (1.0 + np.sum(y * y, axis=1)))
    gauss = BoundaryFunction(lambda y: np.exp(-np.sum(y * y, axis=1)))
    atom = DiscreteMeasure(np.zeros((1, d - 1)), [1.0])
    return (HarmonicRepresentation(HALFSPACE, density=bump, constant=0.5),
            HarmonicRepresentation(HALFSPACE, density=gauss, flavor="martin"),
            HarmonicRepresentation(HALFSPACE, measure=atom, constant=0.2),
            HarmonicRepresentation(HALFSPACE, measure=atom, flavor="martin"))


SPHERE_REPS = {d: _sphere_reps(d) for d in (2, 3)}
HALFSPACE_REPS = {d: _halfspace_reps(d) for d in (2, 3)}   # integrability checked once


def _finite_or_typed_error(call):
    try:
        out = call()
    except TYPED:
        return None
    assert np.all(np.isfinite(out))
    return out


@CONTRACT
@given(d=DIMS, r=RADII)
def test_sphere_poisson_kernel(d, r):
    p = StableParams(d, 1.2 if d == 3 else 1.5)
    out = _finite_or_typed_error(lambda: sphere.poisson_kernel(
        p, r * _direction(d), np.stack([basis_last(d), -_direction(d)])))
    assert out is None or np.all(out >= 0.0)


@CONTRACT
@given(d=DIMS, r=RADII)
def test_sphere_values(d, r):
    p = StableParams(d, 1.2 if d == 3 else 1.5)
    for rep in SPHERE_REPS[d]:
        _finite_or_typed_error(lambda: sphere_values(p, rep, r - 1.0, _direction(d)))


@CONTRACT
@given(d=DIMS, t=RADII, below=st.booleans())
def test_halfspace_values(d, t, below):
    p = StableParams(d, 1.2 if d == 3 else 1.5)
    xbar = 0.5 * _direction(d - 1) if d > 2 else np.array([0.0])
    for rep in HALFSPACE_REPS[d]:
        _finite_or_typed_error(lambda: halfspace_values(
            p, rep, xbar, -t if below else t))
