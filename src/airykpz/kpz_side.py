"""KPZ side: partition combinatorics, delta-Bose-gas contour integrals for
the moments of the stochastic-heat-equation solution at the origin, the
nested-contour oracle, and the Laplace-transform Fredholm determinant.

Moments are computed from the partition-expanded residue formula

    E[Z(T,0)^k / k!] = sum over partitions of k of 1/(prod m_i!) *
        int over R^l of det[1/(w_j + lambda_j - w_i)] *
        prod_j exp((T/2)(w_j^2 + (w_j+1)^2 + ... + (w_j+lambda_j-1)^2))

with all contours on the imaginary axis (w = it), normalized here by
exp(kT/24) so the result is directly comparable with the Airy-side
moment of h_k at C = (T/2)^(1/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DomainError, NumericalConsistencyError,
                     check_order, check_positive, check_probability, checked_exp)
from .params import ModelParams
from .quadrature import (QuadratureRule, composite_legendre, fredholm_det_matrix,
                         gauss_legendre, gaussian_cauchy_factors, gram, legendre_on,
                         tensor_integrate)
from .specfun import SUPPORTED_RANGE, airy_both, logistic

__all__ = [
    "Partition", "partitions", "symmetry_factor",
    "kpz_moment", "kpz_moment_nested", "kpz_laplace",
]

MAX_PARTITION_WEIGHT = 20


@dataclass(frozen=True)
class Partition:
    """Integer partition: nonincreasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if len(parts) == 0:
            raise DomainError("empty partition")
        if any(p <= 0 for p in parts):
            raise DomainError("partition parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise DomainError("partition parts must be nonincreasing")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def multiplicities(self) -> dict[int, int]:
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult


def partitions(k: int) -> list[Partition]:
    """All partitions of k, descending lexicographic in the parts."""
    check_order("partitions", k, MAX_PARTITION_WEIGHT)
    out: list[Partition] = []

    def rec(remaining: int, largest: int, prefix: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for p in range(min(remaining, largest), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(k, k, [])
    return out


def symmetry_factor(lam: Partition) -> int:
    """Product of factorials of the part multiplicities."""
    f = 1
    for count in lam.multiplicities.values():
        f *= math.factorial(count)
    return f


# ----------------------------------------------------------------------
# moments via the partition expansion

def _partition_term(lam: Partition, T: float, nodes_per_axis: int | None = None) -> float:
    """(2 pi)^{-l} times the contour integral of one partition, w_j = i t_j.

    det[1/(w_j + lambda_j - w_i)] is then the Cauchy determinant of
    a_i = -i t_i, b_j = lambda_j + i t_j, and the Bose-gas exponent of part
    p is -(T p/2) t^2 + i (T p(p-1)/2) t plus a constant: the
    Gaussian-Cauchy integral of :func:`gaussian_cauchy_factors` with
    s = T lambda/2, alpha = 0, beta = lambda, w = T lambda(lambda-1)/2.
    """
    lamv = np.asarray(lam.parts, dtype=float)
    log_const = float(np.sum((T / 2.0) * lamv * (lamv - 1) * (2 * lamv - 1) / 6.0))
    const = checked_exp(f"partition {lam.parts} at T = {T}: its prefactor", log_const)
    rules, integrand = gaussian_cauchy_factors(
        [T * p / 2.0 for p in lam.parts], [0.0] * lam.length, lam.parts,
        [T * p * (p - 1) / 2.0 for p in lam.parts], nodes_per_axis)
    # t -> -t conjugates the integrand and the Hermite nodes are symmetric,
    # so the sum is real; the tensor driver returns its real part
    return tensor_integrate(integrand, rules) * const / (2.0 * math.pi) ** lam.length


def kpz_moment(k: int, T: float, nodes_per_axis: int | None = None) -> float:
    """exp(kT/24) E[Z(T,0)^k / k!], via the partition-expanded contour
    formula; directly comparable with airy_h_moment(k, C=(T/2)^(1/3)).

    Supported on integer 1 <= k <= 4; other k raise ConfigurationError.
    The moment is analytically positive; a sum that is not positive has
    been lost to cancellation and raises NumericalConsistencyError.
    """
    check_order("kpz_moment", k)
    if not T > 0:
        raise DomainError("kpz_moment requires T > 0")
    norm = checked_exp(f"kpz_moment({k}, {T}): its normalization", k * T / 24.0)
    total = 0.0
    for lam in partitions(k):
        total += _partition_term(lam, T, nodes_per_axis) / symmetry_factor(lam)
    return check_positive(f"kpz_moment({k}, {T})", norm * total)


# ----------------------------------------------------------------------
# nested-contour oracle

def kpz_moment_nested(k: int, T: float, offsets=None,
                      nodes_per_axis: int | None = None) -> float:
    """exp(kT/24) E[Z(T,0)^k / k!] by direct quadrature of the
    nested-contour formula (no residue expansion); k <= 3.

    The contours are the vertical lines Re z_j = offsets[j], truncated at
    |Im z| <= offsets[0] + 8/sqrt(T).  There must be exactly k offsets,
    each more than 1 below its predecessor, so the interaction poles
    z_A - z_B = 1 stay strictly off-contour; by default the smallest is
    0.5 and the spacing 1.5, which keeps exp((T/2) a^2) moderate and the
    oscillatory cancellation within double precision.

    The result must be independent of admissible contour offsets; the
    outermost 10% band of the first axis is monitored and a visible
    contribution there, or a value lost to cancellation (not positive),
    raises NumericalConsistencyError.
    """
    check_order("kpz_moment_nested", k, k_max=3)
    if not T > 0:
        raise DomainError("kpz_moment_nested requires T > 0")
    norm = checked_exp(f"kpz_moment_nested({k}, {T}): its normalization", k * T / 24.0)
    if offsets is None:
        offsets = [0.5 + 1.5 * (k - j) for j in range(1, k + 1)]
    a = np.asarray(offsets, dtype=float)
    if a.shape != (k,):
        raise ConfigurationError(f"need exactly {k} contour offsets")
    if np.any(a[:-1] - a[1:] <= 1.0):
        raise ConfigurationError("contour offsets must decrease by more than 1 between neighbours")
    if nodes_per_axis is None:
        nodes_per_axis = {1: 96, 2: 128, 3: 128}[k]
    # |exp((T/2) z^2)| on z = a + it peaks at exp((T/2) a^2), taken out here, so
    # each factor exp((T/2)(z^2 - a^2)) = exp((T/2) it(2a + it)) has modulus <= 1
    pref = checked_exp(f"kpz_moment_nested({k}, {T}): its contour prefactor",
                       (T / 2.0) * float(np.sum(a ** 2))) / (2.0 * math.pi) ** k
    hw = a[0] + 8.0 / math.sqrt(T)
    base = gauss_legendre(nodes_per_axis)
    axis = QuadratureRule(hw * base.nodes, hw * base.weights)
    band = np.abs(axis.nodes) > 0.9 * hw
    core_rule = QuadratureRule(axis.nodes[~band], axis.weights[~band])

    def f(*ts):
        zs = [a[j] + 1j * t for j, t in enumerate(ts)]
        pairs = {}
        for A in range(k):
            for B in range(A + 1, k):
                d = np.subtract.outer(zs[A], zs[B])
                pairs[A, B] = d / (d - 1.0)
        return [np.exp((T / 2.0) * 1j * t * (2.0 * aj + 1j * t)) for aj, t in zip(a, ts)], pairs

    # t -> -t conjugates the integrand and the Legendre nodes are symmetric,
    # so the sum is real; the tensor driver returns its real part.  The
    # first axis splits into its core and its outer band |t| > 0.9 hw; the
    # band's share is the truncation estimate
    edge = 0.0
    if band.any():
        band_rule = QuadratureRule(axis.nodes[band], axis.weights[band])
        edge = tensor_integrate(f, [band_rule] + [axis] * (k - 1))
    total = (tensor_integrate(f, [core_rule] + [axis] * (k - 1)) + edge) * pref
    edge = edge * pref
    if abs(edge) > 1e-8 * (abs(total) + 1e-300):
        raise NumericalConsistencyError(
            f"nested contour integral is truncation-sensitive: outer band "
            f"contributes {abs(edge):.3e} of {abs(total):.3e}")
    return check_positive(f"kpz_moment_nested({k}, {T})", norm * total / math.factorial(k))


# ----------------------------------------------------------------------
# Laplace transform side

def _ku_inner_rule(params: ModelParams, x_max: float) -> QuadratureRule:
    """Composite rule over the r-integration of the kernel.

    Every outer node has x >= 0, so left of -12 each shifted Airy factor
    Ai(x - r) is below Ai(12) ~ 1.4e-13; right of (20 + |log u|)/C + x_max
    the Fermi factor has decayed.  Panels of unit width with 10 nodes
    resolve the Airy oscillation at ~4 points per shortest wavelength.
    """
    lo = -12.0
    log_u = math.log(params.u)
    hi = (20.0 + abs(log_u)) / params.C + x_max
    if hi > SUPPORTED_RANGE:
        # kpz_laplace's x_max < (22 + log max(u, 1))/C, so this C keeps hi < 60
        c_min = (42.0 + abs(log_u) + max(log_u, 0.0)) / SUPPORTED_RANGE
        raise ConfigurationError(
            f"the kernel rule needs the Airy function beyond its supported range (inner "
            f"domain reaches {hi:.1f}); use C >= {math.ceil(100.0 * c_min) / 100.0:.2f}")
    return composite_legendre(lo, hi, int(math.ceil(hi - lo)), 10)


def _ku_matrix(xs: np.ndarray, params: ModelParams,
               inner_rule: QuadratureRule) -> np.ndarray:
    """K_u(x_i, x_j) on a grid, sharing Airy evaluations across pairs.

    K_u = X X^T with X_im = Ai(x_i - r_m) (f_m w_m)^{1/2}, from :func:`gram`:
    bitwise symmetric, with no BLAS call, so it does not depend on the BLAS
    thread count.  An argument x_i - r_m outside [-60, 60] raises DomainError
    from :func:`airy_both`; NumericalConsistencyError when the outermost 5
    inner nodes at either end contribute more than max(1e-10, 1e-10 |K_ij|)
    to some entry: the inner rule then truncates visibly.
    """
    r = inner_rule.nodes
    f = logistic(math.log(params.u) - params.C * r)
    X = airy_both(np.subtract.outer(np.asarray(xs, dtype=float), r))[0]
    X *= np.sqrt(f * inner_rule.weights)
    M = gram(X)
    edge = np.abs(gram(X[:, :5])) + np.abs(gram(X[:, -5:]))
    bad = edge > np.maximum(1e-10, 1e-10 * np.abs(M))
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise NumericalConsistencyError(
            f"K_u truncation-sensitive at node pair ({i}, {j}): edge nodes "
            f"contribute {edge[i, j]:.3e} against value {M[i, j]:.3e}")
    return M


def kpz_laplace(params: ModelParams, nodes: int = 80) -> float:
    """E exp(-u Z(T,0) e^{T/24}) as the Fredholm determinant of K_u on
    [0, inf), on ``nodes`` Gauss-Legendre nodes; equals the Airy-side
    multiplicative statistic at C = (T/2)^(1/3).  A visibly truncated K_u
    raises NumericalConsistencyError.
    """
    if params.u == 0:
        return 1.0
    # [0, inf) is cut where the kernel trace, which decays like u e^{-Cx}, is roundoff
    outer = legendre_on(0.0, (22.0 + math.log(max(params.u, 1.0))) / params.C, nodes)
    kmat = _ku_matrix(outer.nodes, params, _ku_inner_rule(params, float(outer.nodes[-1])))
    return check_probability("kpz_laplace", fredholm_det_matrix(kmat, outer.weights))
