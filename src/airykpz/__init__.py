"""Numerics for the one-point identities between the KPZ equation with
narrow-wedge initial data and the Airy determinantal point process.

Both sides of the Laplace-transform identity and of the moments identity
are computed through independent pipelines (weighted Airy-kernel Fredholm
determinants vs. delta-Bose-gas contour integrals), together with the
Tracy-Widom large-time limit and a GUE-edge Monte Carlo cross-check.
"""

from .airy_side import (airy_h_moment, airy_mult_stat, cycle_E, kernel_integral_form,
                        laplace_R, okounkov_integral, tracy_widom_f2)
from .errors import (AiryKpzError, ConfigurationError, DomainError,
                     EvaluationError, NumericalConsistencyError, SingularityError)
from .kpz_side import (ContourSpec, Partition, bose_exponent, interaction_det,
                       kpz_laplace, kpz_moment, kpz_moment_nested, ku_kernel,
                       partitions, symmetry_factor)
from .montecarlo import (EstimatorResult, draw_edge_samples, estimate_h_moment,
                         estimate_mult_stat, sample_gue_edge)
from .params import ModelParams
from .quadrature import (QuadratureRule, cauchy_det, gauss_hermite, gauss_legendre,
                         tensor_integrate)

__version__ = "0.1.0"

__all__ = [
    "AiryKpzError", "ConfigurationError", "ContourSpec", "DomainError",
    "EstimatorResult", "EvaluationError", "ModelParams",
    "NumericalConsistencyError", "Partition", "QuadratureRule", "SingularityError",
    "airy_h_moment", "airy_mult_stat",
    "bose_exponent", "cauchy_det", "cycle_E", "draw_edge_samples",
    "estimate_h_moment", "estimate_mult_stat",
    "gauss_hermite", "gauss_legendre", "interaction_det", "kernel_integral_form",
    "kpz_laplace", "kpz_moment", "kpz_moment_nested", "ku_kernel", "laplace_R",
    "okounkov_integral", "partitions", "sample_gue_edge",
    "symmetry_factor", "tensor_integrate", "tracy_widom_f2",
]
