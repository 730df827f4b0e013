"""Quadrature rules, tensor-product integration of product-form
integrands, the Gaussian-Cauchy integral of the Laplace-transformed
correlation functions, the quadrature (Nystrom) approximation of
Fredholm determinants and the moments read off a log-det series.

Gauss-Legendre rules come from numpy's generator, once per integer
order: each order's rule is cached and shared, with read-only arrays.
The Gaussian-Cauchy integrals take the trapezoidal rule on each real
axis, with the Gaussian in its weights: it needs no rule construction,
and for factors analytic in a strip it converges geometrically in the
step.  Everything downstream (interval maps, composite panels,
determinants, tensor sums) is built here.  All reductions run in a fixed
deterministic order.

Every tensor integrand here is a product of per-axis factors and pair
factors, so the tensor driver takes those factors as small tables and
sums the axes out one by one, in place of evaluating the integrand at
each grid point.  The Gaussian-Cauchy integrand writes its Cauchy
determinant so, in closed form, in float64 tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, NumericalConsistencyError, check_positive, is_integer,
                     outcome)

__all__ = [
    "QuadratureRule", "LOG_DET_WORDS", "newton_h", "log_det_moments",
    "gauss_legendre", "legendre_on", "composite_legendre",
    "trapezoid_axis", "gaussian_cauchy_factors", "fredholm_det_matrix", "gram", "tensor_integrate",
]

MAX_LEGENDRE = 512
TENSOR_NODE_BUDGET = 10 ** 8
# relative target of every moment, any order: the cancellation gate, verify-theorem2's default
MOMENT_RTOL = 1e-5
FREDHOLM_NODES = 80     # default node count of every Fredholm grid


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


# bounded by MAX_LEGENDRE, so the cache is too; typed, so that 2.0 or True
# misses the entries of 2 and 1 and is refused
@functools.lru_cache(maxsize=None, typed=True)
def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1]; built once per order and
    shared, so its arrays are read-only."""
    if not is_integer(n):
        raise ConfigurationError(f"gauss_legendre order must be an integer, got {n!r}")
    if not 1 <= n <= MAX_LEGENDRE:
        raise ConfigurationError(f"gauss_legendre order must be in [1, {MAX_LEGENDRE}], got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(int(n))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights)


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
    half = 0.5 * (edges[1:] - edges[:-1])
    return QuadratureRule((edges[:-1, None] + half[:, None] * (base.nodes + 1.0)).ravel(),
                          (half[:, None] * base.weights).ravel())


# The trapezoidal rule h sum_k g(hk) for a g analytic in the strip
# |Im x| < a errs by about max |g| on the strip's edges times e^{-2 pi a/h}
# (Trefethen & Weideman, SIAM Rev. 56 (2014), Thm 5.1).  For the axis
# factor e^{-s x^2 + i w x} the edges cost e^{s a^2 + |w| a}; the Gaussian
# factor alone errs by its aliased Fourier mode e^{-(2 pi/h - |w|)^2/(4s)},
# and cutting the sum at |x| <= X costs e^{-s X^2}.  The step meets both
# discretization bounds (the aliasing one alone lets the pair factors,
# which grow toward their poles, cost up to 1e-12 at laplace_R([5] * 3)).
# The integral is as small as e^{-kappa}, kappa = w^2/(4s), against the
# integral of |g|, so each error is held to e^{-(L + kappa)}, L = ln 1e16.
_LOG_TOL = math.log(1e16)
# 56^4 = 9.8e6 grid nodes: the default counts reach ~165 per axis at C = 0.6,
# and 165^4 is past TENSOR_NODE_BUDGET
_AXIS_CAP_4D = 56


def _balanced_step(s: float, w: float, a: float, n: int) -> float:
    """Step at which n nodes balance the truncation exponent s (hm)^2, with
    hm = h (n + 1)/2 the first node left out, against the smaller of the
    aliasing exponent (2 pi/h - w)^2/(4s) and the strip exponent
    2 pi a/h - s a^2 - w a: a quadratic and a cubic in h, in closed form."""
    m = (n + 1) / 2.0
    h = 4.0 * math.pi / (w + math.sqrt(w * w + 16.0 * math.pi * s * m))
    if a < math.inf:
        # h^3 + p h - q = 0 with p > 0: one real root, in its sinh form
        p, q = (s * a * a + w * a) / (s * m * m), 2.0 * math.pi * a / (s * m * m)
        h = min(h, 2.0 * math.sqrt(p / 3.0)
                * math.sinh(math.asinh(1.5 * q / p * math.sqrt(3.0 / p)) / 3.0))
    return h


def trapezoid_axis(s: float, w: float, a: float, dims: int,
                   nodes_per_axis: int | None = None) -> QuadratureRule:
    """Trapezoid rule h (k - (n - 1)/2), k < n, with e^{-s x^2} in its
    weights, for an axis of a ``dims``-dimensional integrand e^{-s x^2 + i w x}
    g(x), g analytic in the strip |Im x| < a (a = inf: no pole).  By default
    the aliasing, strip and truncation errors are held to e^{-(L + kappa)},
    L = ln 1e16, kappa = w^2/(4 s), and a 4-d axis is capped at 56 nodes at
    the :func:`_balanced_step`.  An explicit ``nodes_per_axis`` n, an integer
    >= 1 whose outer weights do not underflow, gives n nodes at the balanced
    step; a cheap 1-d integral takes at least its default count.
    """
    if nodes_per_axis is not None and not (is_integer(nodes_per_axis) and nodes_per_axis >= 1):
        raise ConfigurationError(f"nodes_per_axis must be an integer >= 1, got {nodes_per_axis!r}")
    w = abs(w)
    kappa = w * w / (4.0 * s)
    h = 2.0 * math.pi / (w + math.sqrt(w * w + 4.0 * s * _LOG_TOL))
    if a < math.inf:
        h = min(h, 2.0 * math.pi * a / (_LOG_TOL + kappa + s * a * a + w * a))
    # four more than the target: a margin for the prefactor of the cut tail
    n = 2 * math.ceil(math.sqrt((_LOG_TOL + kappa + 4.0) / s) / h) + 1
    if nodes_per_axis is None:
        want = min(n, _AXIS_CAP_4D) if dims == 4 else n
    else:
        want = max(nodes_per_axis, n) if dims == 1 else nodes_per_axis
    if want != n:
        n, h = want, _balanced_step(s, w, a, want)
    x = h * (np.arange(n) - (n - 1) / 2.0)
    weights = h * np.exp(-s * x * x)
    if not weights[0] > 0.0:
        raise ConfigurationError(f"{n} nodes per axis at s = {s:g} underflow the outer weights "
                                 "h e^(-s x^2) to 0; use fewer nodes per axis")
    return QuadratureRule(x, weights)


def gaussian_cauchy_factors(scales, offsets, nodes_per_axis: int | None = None):
    """Rules and factor integrand, for :func:`tensor_integrate`, of
    int over R^l of prod_i e^{-s_i x_i^2} det[1/(a_i - i x_i + a_j + i x_j)] dx
    (s = ``scales`` > 0, a = ``offsets`` > 0, l <= 4), a Gram determinant
    in its Cauchy product form: axis i carries 1/(2 a_i) and pair (i, j)
    ((a_i - a_j)^2 + d^2)/((a_i + a_j)^2 + d^2), d = x_i - x_j, float64
    tables >= 0.  Axis i takes the :func:`trapezoid_axis` rule of
    (s_i, 0, min over j != i of a_i + a_j, its nearest pair pole).
    """
    ell = len(scales)
    a = np.asarray(offsets, dtype=float)
    sigma = np.add.outer(a, a)
    pole = sigma * sigma / sigma    # not sigma: the strip's last bit sets laplace_R's rules
    np.fill_diagonal(pole, np.inf)
    rules = [trapezoid_axis(s, 0.0, strip, ell, nodes_per_axis)
             for s, strip in zip(scales, pole.min(axis=1))]

    def integrand(*xs):
        d = {(i, j): np.subtract.outer(xs[i], xs[j]) for i in range(ell) for j in range(i + 1, ell)}
        # times the reciprocal: the rounding laplace_R's values carry
        return ([np.full(x.shape, 1.0 / sigma[i, i]) for i, x in enumerate(xs)],
                {(i, j): ((a[i] - a[j]) * (a[i] - a[j]) + t * t)
                 * (1.0 / (sigma[i, j] * sigma[i, j] + t * t)) for (i, j), t in d.items()})

    return rules, integrand


def fredholm_det_matrix(kmat: np.ndarray, weights: np.ndarray) -> float:
    """Quadrature (Nystrom) approximation of det(1 - K): ``kmat`` holds
    k(x_i, x_j) on a rule's nodes, ``weights`` its weights.

    det(I - M) with M_ij = sqrt(w_i) k(x_i, x_j) sqrt(w_j), by pivoted LU
    elimination; spectrally convergent for analytic kernels.  A non-finite
    entry raises :class:`NumericalConsistencyError` naming its node pair (i, j).
    So does M_ii >= 1, naming node i: each kernel here (Airy, K_u) is
    positive semidefinite below 1, so M is positive semidefinite, and an
    eigenvalue >= M_ii >= 1 of M is a grid too coarse for the kernel, not
    a determinant near 0.
    """
    kmat = np.asarray(kmat, dtype=float)
    if not np.all(np.isfinite(kmat)):
        i, j = np.argwhere(~np.isfinite(kmat))[0]
        raise NumericalConsistencyError(f"kernel not finite at node pair ({i}, {j})")
    diag = weights * np.diagonal(kmat)
    if np.any(diag >= 1.0):
        i = int(np.argmax(diag))
        raise NumericalConsistencyError(f"grid too coarse: w k(x, x) = {diag[i]:.3g} >= 1 at node {i}")
    sq = np.sqrt(weights)
    n = kmat.shape[0]
    return float(np.linalg.det(np.eye(n) - sq[:, None] * kmat * sq[None, :]))


# K_u's X is FREDHOLM_NODES rows by 420-710 columns on the README grid:
# blocks of 8 to 16 rows time alike there, 32 rows take 5-15% longer and one
# block of all rows 1.5x; every block size gives the same bits
_GRAM_ROWS = 16


def gram(X: np.ndarray) -> np.ndarray:
    """X X^T: the upper triangle in blocks of rows, (X X^T)_ij =
    sum_l X_il X_jl, each block row copied transposed into the block
    column below it; a diagonal block is bitwise symmetric already, so the
    result is too.  Entry (i, j) is summed as in one full
    ``np.einsum("il,jl->ij", X, X)``, so the bits are the same; no BLAS
    call is made."""
    n = X.shape[0]
    out = np.empty((n, n))
    for i0 in range(0, n, _GRAM_ROWS):
        i1 = i0 + _GRAM_ROWS
        out[i0:i1, i0:] = np.einsum("il,jl->ij", X[i0:i1], X[i0:])
        out[i1:, i0:i1] = out[i0:i1, i1:].T
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


_EPS = float(np.finfo(float).eps)


def _cancelled(total: float, mag: float) -> bool:
    """Whether a sum whose |terms| sum to ``mag`` is lost to cancellation."""
    return not _EPS * mag <= MOMENT_RTOL * abs(total)


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
    each caller integrates an analytically real quantity.  The tables'
    dtypes pick the arithmetic: real when no table is complex-typed.  The
    same contraction of the absolute factors gives sum |w f|; when every
    table is real and non-negative, that sum is the total itself and is
    not contracted again.  An imaginary part above 1e-12 of sum |w f|, or
    a non-finite sum, raises :class:`NumericalConsistencyError`; so does a
    total lost to cancellation, one whose roundoff bound eps sum |w f|
    exceeds MOMENT_RTOL of it.  The reduction order is fixed, so the
    result is deterministic and independent of the BLAS thread count.
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
    real = not any(np.iscomplexobj(t) for t in [*u, *full.values()])
    val = complex(_contract(u, full))
    if real and all(np.all(t >= 0) for t in [*u, *full.values()]):
        mag = val.real      # every w f is >= 0, so sum |w f| is the sum itself
    else:
        mag = float(_contract([np.abs(v) for v in u], {k: np.abs(t) for k, t in full.items()}))
    if not math.isfinite(mag) or not abs(val.imag) <= 1e-12 * mag:
        raise NumericalConsistencyError(
            f"tensor sum {val!r} is not finite and real: sum |w f| = {mag:.3e}, "
            "and |Im| may not exceed 1e-12 of it")
    if _cancelled(val.real, mag):
        raise NumericalConsistencyError(
            f"tensor sum {val.real!r} is lost to cancellation: its roundoff bound "
            f"eps sum |w f| = {_EPS * mag:.3e} exceeds {MOMENT_RTOL:g} of it")
    return val.real


# log det(I + X) = sum_j (-1)^{j+1} tr(X^j)/j: l_n sums (-1)^{j+1}/j times one trace
# per composition of n into j parts; a word is a rotation class, weighted by its size
LOG_DET_WORDS = {(1,): 1.0, (2,): 1.0, (1, 1): -1 / 2, (3,): 1.0, (1, 2): -1.0, (1, 1, 1): 1 / 3,
                 (4,): 1.0, (1, 3): -1.0, (2, 2): -1 / 2, (1, 1, 2): 1.0, (1, 1, 1, 1): -1 / 4}


def newton_h(p: list) -> list:
    """h_0 = 1, h_1, ..., h_k from the power sums p = [p_1, ..., p_k] by
    Newton's identities, j h_j = sum_{i<=j} p_i h_{j-i}; the p_i may be
    scalars or arrays of one shape."""
    h = [1.0]
    for j in range(1, len(p) + 1):
        h.append(sum(p[i - 1] * h[j - i] for i in range(1, j + 1)) / j)
    return h


def log_det_moments(name: str, traces: dict, k: int) -> list:
    """h_1, ..., h_k of exp(sum_n l_n v^n), each the value, checked positive
    as ``name.format(n)``, or the error that refuses order n.  ``traces`` maps
    each word of LOG_DET_WORDS up to n = k to its trace and a bound on its sum
    of |terms|; l_n and its bound sum them times each word's weight and
    |weight|.  An l_n lost to cancellation refuses order n and those above it
    (NumericalConsistencyError); h is :func:`newton_h` of the sums n l_n."""
    p, out = [], []
    for n in range(1, k + 1):
        words = [(w, traces[word]) for word, w in LOG_DET_WORDS.items() if sum(word) == n]
        l_n = float(sum(w * t for w, (t, _) in words))
        mag = float(sum(abs(w) * m for w, (_, m) in words))
        if _cancelled(l_n, mag):
            refusal = NumericalConsistencyError(
                f"{name.format(n)}: l_{n} = {l_n!r} is lost to cancellation: its roundoff "
                f"bound eps sum |terms| = {_EPS * mag:.3e} exceeds {MOMENT_RTOL:g} of it")
            return out + [refusal] * (k - n + 1)
        p.append(n * l_n)
        out.append(outcome(check_positive, name.format(n), float(newton_h(p)[n])))
    return out
