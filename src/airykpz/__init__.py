"""Numerics for the one-point identities between the KPZ equation with
narrow-wedge initial data and the Airy determinantal point process.

Both sides of the Laplace-transform identity and of the moments identity
are computed through independent pipelines (weighted Airy-kernel Fredholm
determinants vs. delta-Bose-gas contour integrals), together with the
Tracy-Widom large-time limit and a GUE-edge Monte Carlo cross-check.

The Monte Carlo names are resolved from ``airykpz.montecarlo`` on first
access (PEP 562), so scipy, which only that module needs, is loaded only
when one of them is used.
"""

import importlib

from .airy_side import (airy_h_moment, airy_h_moments, airy_mult_stat, laplace_R,
                        tracy_widom_f2)
from .errors import AiryKpzError, ConfigurationError, DomainError, NumericalConsistencyError
from .kpz_side import kpz_laplaces, kpz_moment, kpz_moment_nested, kpz_moments
from .params import ModelParams
from .quadrature import QuadratureRule, gauss_legendre, tensor_integrate

__version__ = "0.1.0"

__all__ = [
    "AiryKpzError", "ConfigurationError", "DomainError",
    "EstimatorResult", "ModelParams",
    "NumericalConsistencyError", "QuadratureRule",
    "airy_h_moment", "airy_h_moments", "airy_mult_stat", "draw_edge_samples",
    "estimate_h_moment", "estimate_mult_stat",
    "gauss_legendre",
    "kpz_laplaces", "kpz_moment", "kpz_moment_nested", "kpz_moments",
    "laplace_R", "sample_gue_edge", "tensor_integrate", "tracy_widom_f2",
]

_MONTECARLO_NAMES = frozenset({"EstimatorResult", "draw_edge_samples", "estimate_h_moment",
                               "estimate_mult_stat", "sample_gue_edge"})


def __getattr__(name):
    if name in _MONTECARLO_NAMES:
        # not cached here, so a name rebound in montecarlo (a patch, the
        # bench tracer's hooks) is what every later access returns
        return getattr(importlib.import_module(".montecarlo", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _MONTECARLO_NAMES)
