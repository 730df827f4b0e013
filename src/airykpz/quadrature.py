"""Quadrature rules, tensor-product integration of real integrands, the
Cauchy determinant and the quadrature (Nystrom) approximation of Fredholm
determinants.

Rule construction is delegated to numpy's Gauss node/weight generators;
everything downstream (interval maps, composite panels, determinants,
tensor sums) is built here.  All reductions run in a fixed deterministic
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvaluationError, SingularityError

__all__ = [
    "QuadratureRule",
    "gauss_legendre", "gauss_hermite", "legendre_on",
    "composite_legendre", "scaled_gauss_hermite", "hermite_axis_count",
    "cauchy_det", "cauchy_det_direct",
    "fredholm_det_matrix", "tensor_integrate",
    "TENSOR_NODE_BUDGET",
]

MAX_LEGENDRE = 512
MAX_HERMITE = 256
TENSOR_NODE_BUDGET = 10 ** 8


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ConfigurationError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size == 0:
            raise ConfigurationError("empty quadrature rule")
        if np.any(np.diff(nodes) <= 0):
            raise ConfigurationError("quadrature nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ConfigurationError("quadrature weights must be positive")

    def __len__(self):
        return self.nodes.size


def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1]."""
    if not 1 <= n <= MAX_LEGENDRE:
        raise ConfigurationError(f"gauss_legendre order must be in [1, {MAX_LEGENDRE}], got {n}")
    x, w = np.polynomial.legendre.leggauss(int(n))
    return QuadratureRule(x, w)


def gauss_hermite(n: int) -> QuadratureRule:
    """n-point Gauss-Hermite rule for the weight e^{-t^2} on the real line."""
    if not 1 <= n <= MAX_HERMITE:
        raise ConfigurationError(f"gauss_hermite order must be in [1, {MAX_HERMITE}], got {n}")
    t, w = np.polynomial.hermite.hermgauss(int(n))
    return QuadratureRule(t, w)


def legendre_on(a: float, b: float, n: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped to the finite interval [a, b]."""
    return composite_legendre(a, b, 1, n)


def composite_legendre(a: float, b: float, n_panels: int, n_per_panel: int) -> QuadratureRule:
    """Composite Gauss-Legendre rule: n_panels equal panels on [a, b].

    Used for long oscillatory ranges where a single global rule would
    need excessive order.
    """
    if n_panels < 1:
        raise ConfigurationError("need at least one panel")
    edges = np.linspace(a, b, n_panels + 1)
    base = gauss_legendre(n_per_panel)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (base.nodes + 1.0))
        weights.append(half * base.weights)
    return QuadratureRule(np.concatenate(nodes), np.concatenate(weights))


def scaled_gauss_hermite(c: float, n: int) -> QuadratureRule:
    """Rule for integrals of exp(-c z^2) f(z) over the real line.

    Substitutes z = t/sqrt(c) into the e^{-t^2} Gauss-Hermite rule.
    """
    if not c > 0:
        raise ConfigurationError("Gaussian exponent c must be positive")
    base = gauss_hermite(n)
    s = 1.0 / math.sqrt(c)
    return QuadratureRule(base.nodes * s, base.weights * s)


# A factor analytic in a strip of half-width d around the real axis is
# integrated by n-point Gauss-Hermite with error ~ K exp(-2 d sqrt(2n)),
# K = O(10..100) (measured).  Invert for n with two digits of headroom.
_HERMITE_AXIS_TOL = 1e-9
_HERMITE_AXIS_FLOOR = 48
HERMITE_AXIS_CAP_BY_DIM = {1: 256, 2: 256, 3: 256, 4: 56, 5: 24}


def hermite_axis_count(d_min: float, dim: int, extra_floor: int = 0) -> int:
    """Per-axis Gauss-Hermite order for a pole at scaled distance d_min;
    d_min = math.inf (no pole) gives the floor."""
    if not d_min > 0:
        raise ConfigurationError("pole distance must be positive")
    n = math.ceil((math.log(100.0 / _HERMITE_AXIS_TOL) / (2.0 * d_min)) ** 2 / 2.0)
    cap = HERMITE_AXIS_CAP_BY_DIM[dim]
    floor = min(max(_HERMITE_AXIS_FLOOR, extra_floor), cap)
    return int(min(max(n, floor), cap))


def cauchy_det(a, b):
    """det[1/(a_i + b_j)] by the Cauchy product formula

        prod_i 1/(a_i + b_i) * prod_{i<j} (a_i - a_j)(b_i - b_j) / ((a_i + b_j)(a_j + b_i)).

    ``a`` and ``b`` hold their n entries along the first axis; any further
    axes broadcast, so one call evaluates the determinant at every point
    of a tensor grid.  O(n^2) per point instead of O(n^3).  Raises
    :class:`SingularityError` with indices (i, j) when some a_i + b_j
    comes within 1e-12 of zero.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim == 0 or b.ndim == 0 or len(a) != len(b) or len(a) == 0:
        raise ConfigurationError("cauchy_det needs two nonempty arrays with equal first axes")

    def denom(i, j):
        d = a[i] + b[j]
        if np.any(np.abs(d) < 1e-12):
            raise SingularityError(f"a[{i}] + b[{j}] is within 1e-12 of zero",
                                   indices=(i, j))
        return d

    n = len(a)
    val = 1.0 / denom(0, 0)
    for i in range(1, n):
        val = val / denom(i, i)
    for i in range(n):
        for j in range(i + 1, n):
            val = val * ((a[i] - a[j]) * (b[i] - b[j]) / (denom(i, j) * denom(j, i)))
    return val


def cauchy_det_direct(a, b) -> complex:
    """Same determinant for 1-d ``a``, ``b`` by pivoted elimination; the test oracle."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return complex(np.linalg.det(1.0 / (a[:, None] + b[None, :])))


def fredholm_det_matrix(kmat: np.ndarray, weights: np.ndarray) -> float:
    """Quadrature (Nystrom) approximation of det(1 - K): ``kmat`` holds
    k(x_i, x_j) on a rule's nodes, ``weights`` its weights.

    det(I - M) with M_ij = sqrt(w_i) k(x_i, x_j) sqrt(w_j), by pivoted LU
    elimination; spectrally convergent for analytic kernels.  A non-finite
    entry raises :class:`EvaluationError` with its indices (i, j).
    """
    kmat = np.asarray(kmat, dtype=float)
    if not np.all(np.isfinite(kmat)):
        i, j = np.argwhere(~np.isfinite(kmat))[0]
        raise EvaluationError(f"kernel not finite at node pair ({i}, {j})", where=(int(i), int(j)))
    sq = np.sqrt(weights)
    n = kmat.shape[0]
    return float(np.linalg.det(np.eye(n) - sq[:, None] * kmat * sq[None, :]))


def tensor_integrate(f, rules) -> float:
    """Tensor-product quadrature of a real-valued function of n reals.

    ``f`` receives n broadcast arrays, one per axis, and returns real
    values: each caller integrates an analytically real quantity and
    hands over its real part itself, with the reason it is real.  A
    complex result raises :class:`ConfigurationError` rather than being
    truncated.  Summation is chunked along the first axis in index order;
    within chunks numpy's pairwise summation applies, so the reduction is
    deterministic.
    """
    rules = list(rules)
    n = len(rules)
    if n < 1 or n > 5:
        raise ConfigurationError(f"tensor dimension must be 1..5, got {n}")
    sizes = [len(r) for r in rules]
    total = math.prod(sizes)
    if total > TENSOR_NODE_BUDGET:
        raise ConfigurationError(
            f"tensor grid of {total} nodes exceeds the {TENSOR_NODE_BUDGET} budget; "
            "use fewer nodes per axis or a lower dimension")

    axes = [r.nodes for r in rules]
    wts = [r.weights for r in rules]
    # chunk the first axis to bound memory at ~chunk * prod(rest) points
    rest = total // sizes[0]
    chunk = max(1, min(sizes[0], int(4e5 // max(rest, 1)) or 1))
    acc = 0.0
    for start in range(0, sizes[0], chunk):
        stop = min(start + chunk, sizes[0])
        grids = np.meshgrid(axes[0][start:stop], *axes[1:], indexing="ij")
        vals = np.array(f(*grids))
        if np.iscomplexobj(vals):
            raise ConfigurationError("tensor_integrate needs a real-valued integrand; "
                                     "return the real part where it is analytically real")
        if vals.shape != grids[0].shape:
            raise ConfigurationError("integrand did not broadcast over the tensor grid")
        wgrid = np.meshgrid(wts[0][start:stop], *wts[1:], indexing="ij")
        wprod = wgrid[0]
        for wg in wgrid[1:]:
            wprod = wprod * wg
        acc += np.sum(vals * wprod)
    return float(acc)
