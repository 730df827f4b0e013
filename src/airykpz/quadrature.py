"""Quadrature rules, tensor-product integration of product-form
integrands, the Gaussian-Cauchy integrals of both moment pipelines and
the quadrature (Nystrom) approximation of Fredholm determinants.

Rule construction is delegated to numpy's Gauss node/weight generators,
once per integer order: each order's rule is cached and shared, with
read-only arrays.  Everything downstream (interval maps, composite panels,
determinants, tensor sums) is built here.  All reductions run in a fixed
deterministic order.

Every tensor integrand here is a product of per-axis factors and pair
factors, so the tensor driver takes those factors as small tables and
sums the axes out one by one, in place of evaluating the integrand at
each grid point.  The Gaussian-Cauchy integrand writes its Cauchy
determinant so, in closed form, with a float64 table wherever the factor
is real.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalConsistencyError, is_integer

__all__ = [
    "QuadratureRule",
    "gauss_legendre", "gauss_hermite", "legendre_on",
    "composite_legendre", "scaled_gauss_hermite", "hermite_axis_count",
    "gaussian_cauchy_factors", "fredholm_det_matrix", "gram", "tensor_integrate",
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


def _shared_rule(nodes, weights) -> QuadratureRule:
    """A rule every caller of one order receives: its arrays are read-only."""
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights)


def _check_rule_order(name: str, n, n_max: int) -> None:
    if not is_integer(n):
        raise ConfigurationError(f"{name} order must be an integer, got {n!r}")
    if not 1 <= n <= n_max:
        raise ConfigurationError(f"{name} order must be in [1, {n_max}], got {n}")


# the orders are bounded by MAX_LEGENDRE and MAX_HERMITE, so the caches are too;
# typed, so that 2.0 or True misses the entry of 2 and 1 and is refused
@functools.lru_cache(maxsize=None, typed=True)
def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1]; built once per order and shared."""
    _check_rule_order("gauss_legendre", n, MAX_LEGENDRE)
    return _shared_rule(*np.polynomial.legendre.leggauss(int(n)))


@functools.lru_cache(maxsize=None, typed=True)
def gauss_hermite(n: int) -> QuadratureRule:
    """n-point Gauss-Hermite rule for the weight e^{-t^2} on the real line;
    built once per order and shared."""
    _check_rule_order("gauss_hermite", n, MAX_HERMITE)
    return _shared_rule(*np.polynomial.hermite.hermgauss(int(n)))


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
HERMITE_AXIS_CAP_BY_DIM = {1: 256, 2: 256, 3: 256, 4: 56}


def hermite_axis_count(d_min: float, dim: int, extra_floor: int = 0) -> int:
    """Per-axis Gauss-Hermite order for a pole at scaled distance d_min;
    d_min = math.inf (no pole) gives the floor."""
    if not d_min > 0:
        raise ConfigurationError("pole distance must be positive")
    n = math.ceil((math.log(100.0 / _HERMITE_AXIS_TOL) / (2.0 * d_min)) ** 2 / 2.0)
    cap = HERMITE_AXIS_CAP_BY_DIM[dim]
    floor = min(max(_HERMITE_AXIS_FLOOR, extra_floor), cap)
    return int(min(max(n, floor), cap))


def gaussian_cauchy_factors(scales, alpha, beta, freqs, nodes_per_axis: int | None = None):
    """Rules and factor integrand, for :func:`tensor_integrate`, of

        int over R^l of prod_i e^{-s_i x_i^2 + i w_i x_i}
            det[1/(alpha_i - i x_i + beta_j + i x_j)] dx

    (s = ``scales`` > 0, w = ``freqs``, l <= 4), with every
    sigma_ij = alpha_i + beta_j > 0, so that each entry's denominator stays
    at least sigma_ij from zero; a sigma_ij <= 0 raises DomainError naming
    (i, j).  The determinant is written in its Cauchy product form: axis i
    carries e^{i w_i x_i}/sigma_ii and pair (i, j) the factor

        (da db + d^2 + i e d)/(sigma_ij sigma_ji + d^2 + i e d),

    d = x_i - x_j, da = alpha_i - alpha_j, db = beta_i - beta_j, e = da - db.
    A table is float64 where it is real: an axis with w_i = 0, a pair with
    e = 0.  Gauss-Hermite is scaled to e^{-s_i x_i^2} per axis.  Default
    order: :func:`hermite_axis_count` at the nearest pole, scaled distance
    sqrt(s_i) sigma_ij, i != j, floored by the phase floor
    ceil(w^2/(2s)) + 16 (Hermite resolves the frequency w/sqrt(s) once
    n > (w/sqrt(s))^2/2).  An explicit ``nodes_per_axis``, an integer >= 1,
    binds the tensor grids; a 1-d integral is cheap and still takes the
    phase floor, held at the 1-d cap.  An order above MAX_HERMITE raises.
    """
    ell = len(scales)
    sigma = np.add.outer(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float))
    if not np.all(sigma > 0):
        i, j = np.argwhere(~(sigma > 0))[0]
        raise DomainError(f"alpha[{i}] + beta[{j}] = {float(sigma[i, j])!r} must be positive "
                          f"(pair ({i}, {j}) of the Cauchy determinant)")
    osc = max(math.ceil(w * w / (2.0 * s)) for s, w in zip(scales, freqs)) + 16
    if nodes_per_axis is None:
        d_min = min((math.sqrt(scales[i]) * sigma[i, j]
                     for i in range(ell) for j in range(ell) if i != j), default=math.inf)
        nodes_per_axis = hermite_axis_count(d_min, ell, extra_floor=osc)
    elif not (is_integer(nodes_per_axis) and nodes_per_axis >= 1):
        raise ConfigurationError(f"nodes_per_axis must be an integer >= 1, got {nodes_per_axis!r}")
    elif ell == 1:
        nodes_per_axis = max(nodes_per_axis, min(osc, HERMITE_AXIS_CAP_BY_DIM[1]))
    rules = [scaled_gauss_hermite(s, nodes_per_axis) for s in scales]

    def integrand(*xs):
        inv = 1.0 / np.diag(sigma)
        axis = [np.exp(1j * w * x) * inv[i] if w else np.full(x.shape, inv[i])
                for i, (w, x) in enumerate(zip(freqs, xs))]
        pairs = {}
        for i in range(ell):
            for j in range(i + 1, ell):
                d = np.subtract.outer(xs[i], xs[j])
                da, db = alpha[i] - alpha[j], beta[i] - beta[j]
                num, den = da * db + d * d, sigma[i, j] * sigma[j, i] + d * d
                if da == db:
                    # num * (1/den) is how numpy's complex division rounds a real
                    # quotient, so a pair has the same bits in a real or complex table
                    pairs[i, j] = num * (1.0 / den)
                else:
                    ied = 1j * (da - db) * d
                    pairs[i, j] = (num + ied) / (den + ied)
        return axis, pairs

    return rules, integrand


def fredholm_det_matrix(kmat: np.ndarray, weights: np.ndarray) -> float:
    """Quadrature (Nystrom) approximation of det(1 - K): ``kmat`` holds
    k(x_i, x_j) on a rule's nodes, ``weights`` its weights.

    det(I - M) with M_ij = sqrt(w_i) k(x_i, x_j) sqrt(w_j), by pivoted LU
    elimination; spectrally convergent for analytic kernels.  A non-finite
    entry raises :class:`NumericalConsistencyError` naming its node pair (i, j).
    """
    kmat = np.asarray(kmat, dtype=float)
    if not np.all(np.isfinite(kmat)):
        i, j = np.argwhere(~np.isfinite(kmat))[0]
        raise NumericalConsistencyError(f"kernel not finite at node pair ({i}, {j})")
    sq = np.sqrt(weights)
    n = kmat.shape[0]
    return float(np.linalg.det(np.eye(n) - sq[:, None] * kmat * sq[None, :]))


_GRAM_ROWS = 32         # 16 to 64 rows per block time alike at n = 210-352


def gram(X: np.ndarray) -> np.ndarray:
    """X X^T: the upper triangle in blocks of rows, (X X^T)_ij =
    sum_l X_il X_jl, then mirrored, so the result is bitwise symmetric.
    Entry (i, j) is summed as in one full ``np.einsum("il,jl->ij", X, X)``,
    so the bits are the same; no BLAS call is made."""
    n = X.shape[0]
    out = np.empty((n, n))
    for i0 in range(0, n, _GRAM_ROWS):
        out[i0:i0 + _GRAM_ROWS, i0:] = np.einsum("il,jl->ij", X[i0:i0 + _GRAM_ROWS], X[i0:])
    lower = np.tril_indices(n, -1)
    out[lower] = out.T[lower]
    return out


def _contract(u, pairs):
    """sum over the grid of prod_i u[i][x_i] * prod_{i<j} pairs[i, j][x_i, x_j],
    with every pair present; the axes are summed out in a fixed order by
    ``np.einsum`` without ``optimize``, so no BLAS call is made."""
    if len(u) == 1:
        return np.einsum("a->", u[0])
    if len(u) == 2:
        return np.einsum("a,ab,b->", u[0], pairs[0, 1], u[1])
    if len(u) == 3:
        inner = np.einsum("ac,bc->ab", pairs[0, 2], u[2] * pairs[1, 2])
        return np.einsum("a,ab,b->", u[0], pairs[0, 1] * inner, u[1])
    # l = 4: fix the first axis's index, fold its pair rows into the other
    # axes' factors and contract the three left
    rest = {(i - 1, j - 1): t for (i, j), t in pairs.items() if i > 0}
    return sum(ux * _contract([u[i] * pairs[0, i][x] for i in (1, 2, 3)], rest)
               for x, ux in enumerate(u[0]))


def tensor_integrate(f, rules) -> float:
    """Tensor-product quadrature of an integrand given by its factors.

    ``f`` receives the n axes' node arrays once and returns
    ``(axis, pairs)``: ``axis`` a list of n arrays, ``axis[i]`` holding
    axis i's factor at its n_i nodes, and ``pairs`` a dict that maps axis
    pairs (i, j), i < j, to the (n_i, n_j) tables of their pair factors.
    A pair left out of the dict is 1.  The integrand at a grid point is the
    product of all factors there, so the n-fold weighted sum is a
    contraction of these tables: one n^3 ``einsum`` for three axes, a loop
    over the first axis for four.  The node budget applies to the full
    grid, which the contraction covers.

    The factors may be complex.  The result is the real part of the total:
    each caller integrates an analytically real quantity.  When every
    table's imaginary part is exactly zero, the real parts are contracted
    in real arithmetic.  The same contraction of the absolute factors
    gives sum |w f|; when every table is real and non-negative, that sum
    is the total itself and is not contracted again.  An imaginary part
    above 1e-12 of sum |w f|, or a non-finite sum, raises
    :class:`NumericalConsistencyError`.  The reduction order is fixed, so
    the result is deterministic and independent of the BLAS thread count.
    """
    rules = list(rules)
    n = len(rules)
    if n < 1 or n > 4:
        raise ConfigurationError(f"tensor dimension must be 1..4, got {n}")
    total = math.prod(len(r) for r in rules)
    if total > TENSOR_NODE_BUDGET:
        raise ConfigurationError(
            f"tensor grid of {total} nodes exceeds the {TENSOR_NODE_BUDGET} budget; "
            "use fewer nodes per axis or a lower dimension")

    axis, pairs = f(*(r.nodes for r in rules))
    sizes = [len(r) for r in rules]
    if len(axis) != n or any(np.shape(v) != (s,) for v, s in zip(axis, sizes)):
        raise ConfigurationError("integrand must return one factor array per axis, "
                                 "of that axis's length")
    if any(not 0 <= i < j < n or np.shape(t) != (sizes[i], sizes[j])
           for (i, j), t in pairs.items()):
        raise ConfigurationError("integrand pair tables must be keyed (i, j), i < j, "
                                 "with shape (n_i, n_j)")
    u = [np.asarray(v) * r.weights for v, r in zip(axis, rules)]
    full = {(i, j): np.asarray(pairs[i, j]) if (i, j) in pairs else np.ones((sizes[i], sizes[j]))
            for i in range(n) for j in range(i + 1, n)}
    real = not any(np.iscomplexobj(t) and np.any(t.imag) for t in [*u, *full.values()])
    if real:
        # copied: einsum runs ~2.5x slower on the strided view .real gives
        u = [np.ascontiguousarray(v.real) for v in u]
        full = {k: np.ascontiguousarray(t.real) for k, t in full.items()}
    val = complex(_contract(u, full))
    if real and all(np.all(t >= 0) for t in [*u, *full.values()]):
        mag = val.real      # every w f is >= 0, so sum |w f| is the sum itself
    else:
        mag = float(_contract([np.abs(v) for v in u], {k: np.abs(t) for k, t in full.items()}))
    if not math.isfinite(mag) or not abs(val.imag) <= 1e-12 * mag:
        raise NumericalConsistencyError(
            f"tensor sum {val!r} is not finite and real: sum |w f| = {mag:.3e}, "
            "and |Im| may not exceed 1e-12 of it")
    return val.real
