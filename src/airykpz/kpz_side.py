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

from .errors import ConfigurationError, DomainError, NumericalConsistencyError
from .params import ModelParams
from .quadrature import (HERMITE_AXIS_CAP_BY_DIM, QuadratureRule, cauchy_det,
                         composite_legendre, fredholm_det_matrix, gauss_legendre,
                         hermite_axis_count, legendre_on, scaled_gauss_hermite,
                         tensor_integrate)
from .specfun import SUPPORTED_RANGE, airy_both, logistic

__all__ = [
    "Partition", "ContourSpec", "partitions", "symmetry_factor",
    "bose_exponent", "interaction_det",
    "kpz_moment", "kpz_moment_nested", "ku_kernel", "kpz_laplace",
    "default_kpz_outer_rule", "default_ku_inner_rule",
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
    if not 1 <= k <= MAX_PARTITION_WEIGHT:
        raise ConfigurationError(f"partitions supports 1 <= k <= {MAX_PARTITION_WEIGHT}")
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


def bose_exponent(w: complex, part: int, T: float) -> complex:
    """(T/2) * sum_{m=0}^{part-1} (w + m)^2, summed term by term."""
    if not T > 0:
        raise DomainError("bose_exponent requires T > 0")
    if part < 1:
        raise DomainError("part must be a positive integer")
    total = 0.0 + 0.0j
    for m in range(part):
        total += (w + m) ** 2
    return (T / 2.0) * total


def interaction_det(w, lam: Partition):
    """det[1/(w_j + lambda_j - w_i)]: the Cauchy determinant with
    a_i = -w_i and b_j = w_j + lambda_j.

    ``w`` holds one entry per part along its first axis; further axes
    broadcast (one determinant per grid point).
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim == 0 or len(w) != lam.length:
        raise ConfigurationError("need one w per partition part")
    lamv = np.asarray(lam.parts, dtype=float).reshape((-1,) + (1,) * (w.ndim - 1))
    return cauchy_det(-w, w + lamv)


# ----------------------------------------------------------------------
# moments via the partition expansion

def _oscillation_floor(part: int, T: float) -> int:
    # the phase exp(i T part(part-1) t/2) needs n > (scaled frequency)^2/2
    return int(math.ceil(T * part * (part - 1) ** 2 / 4.0)) + 16


def _partition_axis_nodes(lam: Partition, T: float, nodes_per_axis: int | None) -> int:
    ell = lam.length
    osc = max(_oscillation_floor(p, T) for p in lam.parts)
    if nodes_per_axis is not None:
        # an explicit budget binds the tensor grids; 1-d integrals are cheap
        # and still must resolve their oscillatory phase
        if ell == 1:
            return min(max(nodes_per_axis, osc), HERMITE_AXIS_CAP_BY_DIM[1])
        return nodes_per_axis
    lamv = lam.parts
    d_min = min((lamv[j] * math.sqrt(T * lamv[i] / 2.0)
                 for i in range(ell) for j in range(ell) if i != j), default=math.inf)
    return hermite_axis_count(d_min, ell, extra_floor=osc)


def _partition_moment_integral(lam: Partition, T: float, n_axis: int) -> float:
    """(2 pi)^{-l} * contour integral for one partition, w_j = i t_j."""
    ell = lam.length
    lamv = np.asarray(lam.parts, dtype=float)
    rules = [scaled_gauss_hermite(T * p / 2.0, n_axis) for p in lam.parts]
    log_const = float(np.sum((T / 2.0) * lamv * (lamv - 1) * (2 * lamv - 1) / 6.0))

    def integrand(*ts):
        val = interaction_det(1j * np.array(ts), lam)
        for j, p in enumerate(lam.parts):
            val = val * np.exp(1j * (T * p * (p - 1) / 2.0) * ts[j])
        # t -> -t conjugates the integrand and the Hermite nodes are
        # symmetric, so only the real part survives the sum
        return val.real

    # equal parts are adjacent and share one rule; the integrand is symmetric
    # under permuting them (rows and columns of the determinant together)
    blocks = list(lam.multiplicities.values())
    return (tensor_integrate(integrand, rules, blocks)
            * math.exp(log_const) / (2.0 * math.pi) ** ell)


def kpz_moment(k: int, T: float, nodes_per_axis: int | None = None) -> float:
    """exp(kT/24) E[Z(T,0)^k / k!], via the partition-expanded contour
    formula; directly comparable with airy_h_moment(k, C=(T/2)^(1/3)).

    k <= 4 carries the full advertised tolerance; k = 5 is allowed with
    degraded accuracy.  The moment is analytically positive; a sum that is
    not positive has been lost to cancellation and raises
    NumericalConsistencyError.
    """
    if not 1 <= k <= 5:
        raise ConfigurationError("kpz_moment supports 1 <= k <= 5")
    if not T > 0:
        raise DomainError("kpz_moment requires T > 0")
    total = 0.0
    for lam in partitions(k):
        n_axis = _partition_axis_nodes(lam, T, nodes_per_axis)
        total += _partition_moment_integral(lam, T, n_axis) / symmetry_factor(lam)
    moment = math.exp(k * T / 24.0) * total
    if not moment > 0:
        raise NumericalConsistencyError(f"kpz_moment({k}, {T}) = {moment!r} is not positive")
    return moment


# ----------------------------------------------------------------------
# nested-contour oracle

@dataclass(frozen=True)
class ContourSpec:
    """Vertical contours Re z_j = offsets[j], truncated at +-half_width.

    Consecutive offsets must be more than 1 apart so the interaction
    poles z_A - z_B = 1 stay strictly off-contour.
    """

    offsets: tuple[float, ...]
    half_width: float

    def __post_init__(self):
        offs = tuple(float(a) for a in self.offsets)
        object.__setattr__(self, "offsets", offs)
        if len(offs) == 0:
            raise ConfigurationError("need at least one contour offset")
        if any(a - b <= 1.0 for a, b in zip(offs, offs[1:])):
            raise ConfigurationError(
                "contour offsets must decrease by more than 1 between neighbours")
        if not self.half_width > 0:
            raise ConfigurationError("half_width must be positive")

    @classmethod
    def default(cls, k: int, T: float) -> "ContourSpec":
        # smallest offset 0.5, spacing 1.5: keeps exp((T/2) a^2) moderate,
        # which keeps the oscillatory cancellation within double precision
        offs = tuple(0.5 + 1.5 * (k - j) for j in range(1, k + 1))
        return cls(offsets=offs, half_width=offs[0] + 8.0 / math.sqrt(T))


def kpz_moment_nested(k: int, T: float, spec: ContourSpec | None = None,
                      nodes_per_axis: int | None = None) -> float:
    """exp(kT/24) E[Z(T,0)^k / k!] by direct quadrature of the
    nested-contour formula (no residue expansion); k <= 3.

    The result must be independent of admissible contour offsets; the
    outermost 10% band of the first axis is monitored and a visible
    contribution there raises a truncation-sensitivity error.
    """
    if not 1 <= k <= 3:
        raise ConfigurationError("kpz_moment_nested supports 1 <= k <= 3")
    if not T > 0:
        raise DomainError("kpz_moment_nested requires T > 0")
    if spec is None:
        spec = ContourSpec.default(k, T)
    if len(spec.offsets) != k:
        raise ConfigurationError(f"need exactly {k} contour offsets")
    if nodes_per_axis is None:
        nodes_per_axis = {1: 96, 2: 128, 3: 128}[k]
    a = np.asarray(spec.offsets, dtype=float)
    hw = spec.half_width
    base = gauss_legendre(nodes_per_axis)
    axis = QuadratureRule(hw * base.nodes, hw * base.weights)
    band = np.abs(axis.nodes) > 0.9 * hw
    core_rule = QuadratureRule(axis.nodes[~band], axis.weights[~band])

    def f(*ts):
        zs = [a[j] + 1j * ts[j] for j in range(k)]
        val = None
        for A in range(k):
            for B in range(A + 1, k):
                term = (zs[A] - zs[B]) / (zs[A] - zs[B] - 1.0)
                val = term if val is None else val * term
        for j in range(k):
            g = np.exp((T / 2.0) * zs[j] ** 2)
            val = g if val is None else val * g
        # t -> -t conjugates the integrand and the Legendre nodes are
        # symmetric, so only the real part survives the sum
        return val.real

    # the first axis splits into its core and its outer band |t| > 0.9 hw;
    # the band's share is the truncation estimate
    edge = 0.0
    if band.any():
        band_rule = QuadratureRule(axis.nodes[band], axis.weights[band])
        edge = tensor_integrate(f, [band_rule] + [axis] * (k - 1))
    total = tensor_integrate(f, [core_rule] + [axis] * (k - 1)) + edge
    total = total / (2.0 * math.pi) ** k
    edge = edge / (2.0 * math.pi) ** k
    if abs(edge) > 1e-8 * (abs(total) + 1e-300):
        raise NumericalConsistencyError(
            f"nested contour integral is truncation-sensitive: outer band "
            f"contributes {abs(edge):.3e} of {abs(total):.3e}")
    return math.exp(k * T / 24.0) * total / math.factorial(k)


# ----------------------------------------------------------------------
# Laplace transform side

def default_kpz_outer_rule(params: ModelParams, n: int = 80) -> QuadratureRule:
    """Truncation of [0, inf) for the Fredholm grid: the kernel trace
    decays like u e^{-Cx}."""
    x_max = (22.0 + math.log(max(params.u, 1.0))) / params.C
    return legendre_on(0.0, x_max, n)


def default_ku_inner_rule(params: ModelParams, x_max: float) -> QuadratureRule:
    """Composite rule over the r-integration of the kernel.

    Left of -(12 + x_max) the shifted Airy factors have decayed
    superexponentially; right of (20 + |log u|)/C + x_max the Fermi
    factor has.  Panels of unit width with 10 nodes resolve the Airy
    oscillation at ~4 points per shortest wavelength.
    """
    lo = -(12.0 + x_max)
    hi = (20.0 + abs(math.log(params.u))) / params.C + x_max
    if hi > SUPPORTED_RANGE:
        raise ConfigurationError(
            f"default kernel rule needs the Airy function beyond its supported "
            f"range (inner domain reaches {hi:.1f}); supply explicit rules or "
            f"use C >= {((20.0 + abs(math.log(params.u))) / (SUPPORTED_RANGE - x_max)):.2f}")
    return composite_legendre(lo, hi, int(math.ceil(hi - lo)), 10)


def _airy_factor_matrix(xs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Ai(x_i - r_m); arguments beyond +60 contribute < 1e-132 and are zeroed."""
    args = xs[:, None] - r[None, :]
    out = np.zeros_like(args)
    inside = args <= SUPPORTED_RANGE
    if np.min(args) < -SUPPORTED_RANGE:
        raise DomainError("kernel grid requires Airy arguments below -60; "
                          "shrink the inner rule or the outer grid")
    vals, _ = airy_both(args[inside])
    out[inside] = vals
    return out


def _ku_matrix(xs: np.ndarray, params: ModelParams,
               inner_rule: QuadratureRule) -> np.ndarray:
    """K_u(x_i, x_j) on a grid, sharing Airy evaluations across pairs.

    The r-sums run through ``np.einsum`` rather than a BLAS product, so the
    result does not depend on the BLAS thread count.  Raises
    NumericalConsistencyError when the outermost 5 inner nodes at either
    end contribute more than max(1e-10, 1e-10 |K_ij|) to some entry: the
    inner rule then truncates visibly.
    """
    r = inner_rule.nodes
    f = logistic(math.log(params.u) - params.C * r)
    A = _airy_factor_matrix(np.asarray(xs, dtype=float), r)
    B = A * (f * inner_rule.weights)[None, :]
    M = np.einsum("im,jm->ij", B, A)
    edge = (np.abs(np.einsum("im,jm->ij", B[:, :5], A[:, :5]))
            + np.abs(np.einsum("im,jm->ij", B[:, -5:], A[:, -5:])))
    bad = edge > np.maximum(1e-10, 1e-10 * np.abs(M))
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise NumericalConsistencyError(
            f"K_u truncation-sensitive at node pair ({i}, {j}): edge nodes "
            f"contribute {edge[i, j]:.3e} against value {M[i, j]:.3e}")
    return 0.5 * (M + M.T)


def ku_kernel(x: float, x_prime: float, params: ModelParams,
              inner_rule: QuadratureRule | None = None) -> float:
    """Kernel of the Laplace-transform determinant:
    K_u(x, x') = int dr Ai(x-r) Ai(x'-r) / (1 + u^{-1} exp((T/2)^{1/3} r)).

    Symmetric in (x, x'); x, x' >= 0, u > 0.  The [0, 1] entry of the
    grid evaluation that :func:`kpz_laplace` runs, truncation check included.
    """
    if not (x >= 0 and x_prime >= 0):
        raise DomainError("ku_kernel requires x, x' >= 0")
    if not params.u > 0:
        raise DomainError("ku_kernel requires u > 0")
    if inner_rule is None:
        inner_rule = default_ku_inner_rule(params, max(x, x_prime))
    return float(_ku_matrix(np.array([x, x_prime]), params, inner_rule)[0, 1])


def kpz_laplace(params: ModelParams, outer_rule: QuadratureRule | None = None,
                inner_rule: QuadratureRule | None = None) -> float:
    """E exp(-u Z(T,0) e^{T/24}) as the Fredholm determinant of K_u on
    [0, inf); equals the Airy-side multiplicative statistic at C = (T/2)^(1/3).
    An inner rule that truncates K_u visibly raises NumericalConsistencyError.
    """
    if params.u == 0:
        return 1.0
    if outer_rule is None:
        outer_rule = default_kpz_outer_rule(params)
    if np.min(outer_rule.nodes) < 0:
        raise DomainError("kpz_laplace requires an outer rule on [0, inf)")
    if inner_rule is None:
        inner_rule = default_ku_inner_rule(params, float(np.max(outer_rule.nodes)))
    kmat = _ku_matrix(outer_rule.nodes, params, inner_rule)
    val = fredholm_det_matrix(kmat, outer_rule.weights)
    if not 0.0 < val <= 1.0 + 1e-10:
        raise NumericalConsistencyError(f"Laplace determinant {val!r} outside (0, 1]")
    return min(val, 1.0)
