"""Potential theory of symmetric alpha-stable processes off a sphere or hyperplane.

Closed-form hitting probabilities, Poisson/Green/Martin kernels, Hardy
norms with Fatou probes, exact Monte Carlo hitting samplers, and the
relativistic-process extensions, each cross-validated against the
others.  See the ``demos/`` scripts for guided tours and the
``stablepot`` command line for evaluation, verification and sampling.
"""

from .core import INFINITY, Infinity, StableParams
from .errors import (ConvergenceError, DivergenceError, DomainError,
                     IntegrabilityError, PoleError, RepresentationError,
                     SingularityError)
from . import analysis, halfspace, montecarlo, relativistic, sphere

__all__ = [
    "INFINITY",
    "Infinity",
    "StableParams",
    "ConvergenceError",
    "DivergenceError",
    "DomainError",
    "IntegrabilityError",
    "PoleError",
    "RepresentationError",
    "SingularityError",
    "analysis",
    "halfspace",
    "montecarlo",
    "relativistic",
    "sphere",
]

__version__ = "0.1.0"
