"""Airy point process side: correlation kernel, multiplicative statistics,
moments of h_k, the Tracy-Widom distribution F2, and the Laplace-transformed
correlation functions that the tests use as an oracle.

The Airy point process is the determinantal process on the real line with
kernel K(x, y) = (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y).  Both Airy-side
statistics come from one Fredholm determinant, det(I - K f_u) with
f_u(r) = u e^{Cr}/(1 + u e^{Cr}), by Nystrom discretization on Gauss-Legendre
grids (Bornemann, Math. Comp. 79 (2010)): the multiplicative statistic is
its value, E h_k is (-1)^k times its u^k coefficient.  The Monte Carlo
counterpart lives in :mod:`airykpz.montecarlo`, the KPZ counterpart in
:mod:`airykpz.kpz_side`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (ConfigurationError, DomainError, check_order, check_positive,
                     check_probability, checked_exp)
from .params import ModelParams
from .quadrature import (QuadratureRule, composite_legendre, fredholm_det_matrix,
                         gaussian_cauchy_factors, gram, legendre_on, tensor_integrate)
from .specfun import SUPPORTED_RANGE, airy_both, logistic

__all__ = [
    "airy_kernel_matrix", "laplace_R",
    "airy_h_moment", "airy_mult_stat", "tracy_widom_f2", "default_f2_grid", "newton_h",
]

_CONFLUENT_EPS = 1e-5     # |x - y| below which the confluent diagonal form is used


# ----------------------------------------------------------------------
# correlation kernel

def airy_kernel_matrix(points: np.ndarray) -> np.ndarray:
    """Kernel matrix K(x_i, x_j) on a grid, one Airy evaluation per node.

    Christoffel-Darboux ratio form off the diagonal; the diagonal is the
    confluent limit Ai'(x)^2 - x Ai(x)^2, and the off-diagonal pairs with
    |x_i - x_j| <= 1e-5 take that limit at their midpoint.
    """
    pts = np.asarray(points, dtype=float)
    ai, aip = airy_both(pts)
    d = np.subtract.outer(pts, pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        kmat = (np.multiply.outer(ai, aip) - np.multiply.outer(aip, ai)) / d
    np.fill_diagonal(kmat, aip ** 2 - pts * ai ** 2)
    i, j = np.nonzero(np.abs(d) <= _CONFLUENT_EPS)
    i, j = i[i != j], j[i != j]
    m = 0.5 * (pts[i] + pts[j])
    am, apm = airy_both(m)
    kmat[i, j] = apm ** 2 - m * am ** 2
    return kmat


# ----------------------------------------------------------------------
# Laplace-transformed correlation functions

def laplace_R(c: Sequence[float], nodes_per_axis: int | None = None) -> float:
    """Laplace transform of the n-point correlation function, n <= 4.

    Evaluates
        exp(sum c_i^3/12)/(2 pi)^n * int exp(-sum c_i z_i^2)
            det[1/((-i z_i + c_i/2) + (i z_j + c_j/2))] dz,
    the Gaussian-Cauchy integral of :func:`gaussian_cauchy_factors` with
    s = c, alpha = beta = c/2 and no phase, which also sets the Hermite
    order.  The matrix 1/(a_i + b_j) is the Gram matrix of the functions
    exp(-s(c_i/2 - i z_i)) on s > 0, so its determinant is real and
    non-negative at every node: alpha = beta makes every factor a float64
    table >= 0, and the sum is real from the start.

    The value is symmetric in ``c`` (the correlation function is symmetric
    in its arguments); ``c`` is sorted in descending order, so every order
    of the same exponents gives the same bits.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise DomainError("need a nonempty vector of Laplace exponents")
    if np.any(c <= 0):
        raise DomainError("Laplace exponents must be strictly positive")
    if c.size > 4:
        raise ConfigurationError("at most 4 Laplace exponents are supported")
    c = np.sort(c)[::-1]
    pref = checked_exp(f"laplace_R at exponents {c.tolist()}: its prefactor",
                       float(np.sum(c ** 3)) / 12.0) / (2.0 * math.pi) ** c.size
    rules, integrand = gaussian_cauchy_factors(c, c / 2.0, c / 2.0, np.zeros(c.size),
                                               nodes_per_axis)
    return pref * tensor_integrate(integrand, rules)


# ----------------------------------------------------------------------
# moments of h_k: the u-series of the Fredholm determinant

# The grid runs from where e^{Cr} is roundoff (e^{-37} ~ 1e-16), at most to
# the Airy range, to 22 past the peak (kC)^2/4 of e^{kCr} K(r, r).
_H_ORDER = 30          # default Gauss-Legendre order per panel
_H_PANEL_WIDTH = 8.0
_H_LEFT_DECAY = 37.0
_H_RIGHT_MARGIN = 22.0


def newton_h(p: list) -> list:
    """h_0 = 1, h_1, ..., h_k from the power sums p = [p_1, ..., p_k] by
    Newton's identities, j h_j = sum_{i<=j} p_i h_{j-i}; the p_i may be
    scalars or arrays of one shape."""
    h = [1.0]
    for j in range(1, len(p) + 1):
        h.append(sum(p[i - 1] * h[j - i] for i in range(1, j + 1)) / j)
    return h


def _h_series(rule: QuadratureRule, C: float, k: int) -> list[float]:
    """E h_1, ..., E h_k from the Nystrom discretization of det(I - K f_u).

    With g = e^{Cr} and S = (w g)^{1/2} K (w g)^{1/2}, the discretized
    K f_u is similar to P(u) = sum_m (-1)^{m+1} u^m S G^{m-1}, G = diag(g).
    From log det(I - P) = -sum_j tr(P^j)/j, (-1)^n times its u^n
    coefficient is l_n = sum_j (-1)^{j+1}/j sum_a tr(S G^{a_1} ... S G^{a_j})
    over a_i >= 0 with sum a_i = n - j; merging the rotations of each word,
    l_1 = tr S, l_2 = tr SG - tr S^2/2, l_3 = tr SG^2 - tr S^2 G + tr S^3/3,
    l_4 = tr SG^3 - tr S^2 G^2 - tr (SG)^2/2 + tr S^3 G - tr S^4/4, each
    trace one O(n^2) sum over S or S^2 = S S^T (from :func:`gram`, S being
    bitwise symmetric).  E h_n is the coefficient of v^n in
    det(I - P) = exp(sum_n l_n v^n), v = -u: :func:`newton_h` of the power
    sums p_i = i l_i.  Sums run through ``np.einsum`` without ``optimize``:
    no BLAS call, so no dependence on its thread count.
    """
    g = np.exp(C * rule.nodes)
    s = np.sqrt(rule.weights * g)
    # s_i s_j K_ij: both factors are bitwise symmetric, so S is too
    S = airy_kernel_matrix(rule.nodes)
    S *= np.multiply.outer(s, s)

    def tr(x, a):       # sum_i x_i g_i^a
        return np.einsum("i,i->", x, g ** a)

    d = np.einsum("ii->i", S)
    ell = [tr(d, 0)]
    if k > 1:
        q = np.einsum("il,li->i", S, S)
        ell.append(tr(d, 1) - tr(q, 0) / 2)
    if k > 2:
        S2 = gram(S)
        c = np.einsum("il,li->i", S2, S)
        ell.append(tr(d, 2) - tr(q, 1) + tr(c, 0) / 3)
    if k > 3:
        ell.append(tr(d, 3) - tr(q, 2) - np.einsum("i,il,li,l->", g, S, S, g) / 2
                   + tr(c, 1) - np.einsum("il,li->", S2, S2) / 4)
    return newton_h([i * l for i, l in enumerate(ell, start=1)])[1:]


def airy_h_moment(k: int, C: float, nodes_per_axis: int | None = None) -> float:
    """Expectation of h_k over exp(C a_1), exp(C a_2), ...: (-1)^k times
    the u^k coefficient of det(I - K f_u).

    ``nodes_per_axis`` is the Gauss-Legendre order per panel of the grid
    (default 30).  Supported on integer 1 <= k <= 4 (ConfigurationError
    otherwise), C >= 0.4 and (kC)^2/4 + 22 <= 60, where the grid stays
    inside the Airy range, and C((kC)^2/4 + 22) <= log(DBL_MAX), where
    e^{Cr} stays finite (binding only at k = 1, C > 12.1); other C raise
    DomainError.  The moment is analytically positive; a value that is not
    positive has been lost to cancellation and raises
    NumericalConsistencyError.
    """
    check_order("airy_h_moment", k)
    right = (k * C) ** 2 / 4.0 + _H_RIGHT_MARGIN
    if not (C >= 0.4 and right <= SUPPORTED_RANGE):
        raise DomainError(f"airy_h_moment supports C >= 0.4 and (kC)^2/4 + "
                          f"{_H_RIGHT_MARGIN:g} <= {SUPPORTED_RANGE:g}; got k = {k}, C = {C}")
    checked_exp(f"airy_h_moment({k}, {C}): e^(Cr) at the grid's right edge r = {right:.6g},",
                C * right)
    left = max(-SUPPORTED_RANGE, -_H_LEFT_DECAY / C)
    rule = composite_legendre(left, right, math.ceil((right - left) / _H_PANEL_WIDTH),
                              _H_ORDER if nodes_per_axis is None else nodes_per_axis)
    return check_positive(f"airy_h_moment({k}, {C})", float(_h_series(rule, C, k)[-1]))


# ----------------------------------------------------------------------
# multiplicative statistics and the Tracy-Widom law

def airy_mult_stat(params: ModelParams, nodes: int = 80) -> float:
    """E prod_k 1/(1 + u exp(C a_k)) as a Fredholm determinant.

    Discretizes det(1 - sqrt(f) K sqrt(f)) with f(r) = 1/(1 + u^{-1} e^{-Cr})
    on ``nodes`` Gauss-Legendre nodes; the symmetrized split leaves the
    determinant unchanged and keeps the matrix symmetric.  u = 0 gives
    exactly 1.
    """
    if params.u == 0:
        return 1.0
    # the weight dies like u e^{Cr} to the left (shifted by log u for
    # u > 1), the kernel superexponentially to the right
    grid = legendre_on(-(16.0 + math.log(max(params.u, 1.0))) / params.C - 4.0, 12.0, nodes)
    kmat = airy_kernel_matrix(grid.nodes)
    f = logistic(params.C * grid.nodes + math.log(params.u))
    return check_probability("airy_mult_stat", fredholm_det_matrix(kmat, grid.weights * f))


def default_f2_grid(s: float, n: int = 80) -> QuadratureRule:
    return legendre_on(s, s + 24.0, n)


def tracy_widom_f2(s: float, grid: QuadratureRule | None = None) -> float:
    """GUE Tracy-Widom distribution F2(s) = det(1 - K) on [s, inf); a
    determinant outside (0, 1 + 1e-10] raises, one above 1 is clipped to 1."""
    if not -10.0 <= s <= 6.0:
        raise DomainError("tracy_widom_f2 supports s in [-10, 6]")
    if grid is None:
        grid = default_f2_grid(s)
    kmat = airy_kernel_matrix(grid.nodes)
    return check_probability(f"F2({s})", fredholm_det_matrix(kmat, grid.weights))
