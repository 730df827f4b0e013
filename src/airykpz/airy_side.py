"""Airy point process side: correlation kernel, multiplicative statistics,
moments of h_k, the Tracy-Widom distribution F2, and the Laplace-transformed
correlation functions that the tests use as an oracle.

The Airy point process is the determinantal process on the real line with
kernel K(x, y) = (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y).  Both Airy-side
statistics come from one Fredholm determinant, det(I - K f_u) with
f_u(r) = u e^{Cr}/(1 + u e^{Cr}), by Nystrom discretization on Gauss-Legendre
grids (Bornemann, Math. Comp. 79 (2010)): the multiplicative statistic is
its value, E h_k is (-1)^k times its u^k coefficient (per C, one series of
chain traces, read by ``quadrature.log_det_moments`` as are the cycle
traces of :mod:`airykpz.kpz_side`, gives each order's value or refusal).
``_cd_ratio`` builds every matrix here: K from (Ai, Ai'), the series' S and
S^2 from (s Ai, s Ai').  The Monte Carlo side is :mod:`airykpz.montecarlo`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (AiryKpzError, DomainError, check_order, check_probability, checked_exp,
                     value)
from .params import ModelParams
from .quadrature import (FREDHOLM_NODES, QuadratureRule, composite_legendre, fredholm_det_matrix,
                         gaussian_cauchy_factors, legendre_on, log_det_moments, tensor_integrate)
from .specfun import SUPPORTED_RANGE, airy_both, logistic

__all__ = [
    "airy_kernel_matrix", "laplace_R", "airy_h_moment", "airy_h_moments",
    "airy_mult_stat", "tracy_widom_f2", "default_f2_grid",
]

_CONFLUENT_EPS = 1e-5     # |x - y| below which the confluent diagonal form is used


# ----------------------------------------------------------------------
# correlation kernel

def airy_kernel_matrix(points: np.ndarray) -> np.ndarray:
    """Kernel matrix K(x_i, x_j) on a grid, one Airy evaluation per node:
    :func:`_cd_ratio` of the pair (Ai, Ai') with the confluent limit
    Ai'(x)^2 - x Ai(x)^2 on the diagonal.  The points come from the caller,
    so the pairs with |x_i - x_j| <= 1e-5 take that limit at their midpoint
    (searched for only when the sorted points have such a gap)."""
    pts = np.asarray(points, dtype=float)
    ai, aip = airy_both(pts)
    kmat = _cd_ratio(pts, [(ai, aip)], aip ** 2 - pts * ai ** 2)
    if np.any(np.diff(np.sort(pts)) <= _CONFLUENT_EPS):
        i, j = np.nonzero(np.abs(np.subtract.outer(pts, pts)) <= _CONFLUENT_EPS)
        i, j = i[i != j], j[i != j]
        mid = 0.5 * (pts[i] + pts[j])
        am, apm = airy_both(mid)
        kmat[i, j] = apm ** 2 - mid * am ** 2
    return kmat


def _cd_ratio(x: np.ndarray, pairs, diagonal: np.ndarray) -> np.ndarray:
    """The Christoffel-Darboux matrix (m - m^T)_ij / (x_i - x_j), m = sum over
    ``pairs`` of u v^T in that order, with ``diagonal`` on its diagonal: the
    one builder of every Airy-side matrix.  A product commutes, so m - m^T is
    bitwise antisymmetric and the ratio bitwise symmetric; m is released
    before the division, so two n x n arrays are live at a time."""
    m = np.multiply.outer(*pairs[0])
    for u, v in pairs[1:]:
        m += np.multiply.outer(u, v)
    out = m - m.T
    del m
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= np.subtract.outer(x, x)
    np.fill_diagonal(out, diagonal)
    return out


# ----------------------------------------------------------------------
# Laplace-transformed correlation functions

def laplace_R(c: Sequence[float], nodes_per_axis: int | None = None) -> float:
    """Laplace transform of the n-point correlation function, n <= 3.

    Evaluates
        exp(sum c_i^3/12)/(2 pi)^n * int exp(-sum c_i z_i^2)
            det[1/((-i z_i + c_i/2) + (i z_j + c_j/2))] dz,
    the Gaussian-Cauchy integral of :func:`gaussian_cauchy_factors` with
    s = c and offsets c/2, which also sets the trapezoid rule and refuses a
    fourth exponent (ConfigurationError).  The matrix 1/(a_i + b_j) is the
    Gram matrix of the functions exp(-s(c_i/2 - i z_i)) on s > 0, so its
    determinant is real and non-negative at every node: every factor is a
    float64 table >= 0, and the sum is real from the start.

    The value is symmetric in ``c`` (the correlation function is symmetric
    in its arguments); ``c`` is sorted in descending order, so every order
    of the same exponents gives the same bits.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise DomainError("need a nonempty vector of Laplace exponents")
    if np.any(c <= 0):
        raise DomainError("Laplace exponents must be strictly positive")
    c = np.sort(c)[::-1]
    pref = checked_exp(f"laplace_R at exponents {c.tolist()}: its prefactor",
                       float(np.sum(c ** 3)) / 12.0) / (2.0 * math.pi) ** c.size
    rules, integrand = gaussian_cauchy_factors(c, c / 2.0, nodes_per_axis)
    val = pref * tensor_integrate(integrand, rules)
    if not math.isfinite(val):
        raise DomainError(f"laplace_R at exponents {c.tolist()}: its prefactor {pref:.6g} "
                          "times the sum overflows double precision")
    return val


# ----------------------------------------------------------------------
# moments of h_k: the u-series of the Fredholm determinant

# The grid runs from where e^{Cr} is roundoff (e^{-37} ~ 1e-16), at most to
# the Airy range, to 22 past the peak (kC)^2/4 of e^{kCr} K(r, r).
_H_ORDER = 30          # default Gauss-Legendre order per panel
_H_PANEL_WIDTH = 8.0
_H_LEFT_DECAY = 37.0
_H_RIGHT_MARGIN = 22.0


def _h_series(rule: QuadratureRule, C: float, k: int) -> list:
    """E h_1, ..., E h_k (each the value or its refusal) from the Nystrom
    discretization of det(I - K f_u).  With g = e^{Cr} and S = (w g)^{1/2}
    K (w g)^{1/2}, K f_u is similar to P(u) = sum_m (-1)^{m+1} u^m S G^{m-1},
    G = diag(g), and E h_n is the coefficient of v^n in det(I - P), v = -u:
    :func:`log_det_moments` of the :func:`_chain_traces` of S and S^2.

    S and S^2 are :func:`_cd_ratio` matrices of scaled pairs, O(n^2) each:
    (x - y) K(x, y) = Ai(x) Ai'(y) - Ai'(x) Ai(y), so with a = s Ai and
    b = s Ai' (s = (w g)^{1/2}), S is the ratio of (a, b) with the confluent
    limit b^2 - r a^2 on its diagonal (the nodes are over 8e-5 apart at any
    order up to 512, so no pair is confluent), and with alpha = S a and
    beta = S b, (r_i - r_j) (S^2)_ij = (m - m^T)_ij, m = a beta^T + alpha b^T:
    S^2 is the ratio of those two pairs with the row sums sum_l S_il^2 on
    its diagonal (S is bitwise symmetric), two mat-vecs instead of a
    product.  Sums run through ``np.einsum`` without ``optimize``: no BLAS
    call, so no dependence on its thread count.
    """
    r = rule.nodes
    g = np.exp(C * r)
    s = np.sqrt(rule.weights * g)
    ai, aip = airy_both(r)
    a, b = s * ai, s * aip
    S = _cd_ratio(r, [(a, b)], b ** 2 - r * a ** 2)
    S2 = _cd_ratio(r, [(a, np.einsum("il,l->i", S, b)), (np.einsum("il,l->i", S, a), b)],
                   np.einsum("il,il->i", S, S))
    # a grid fit for order k can overflow the traces past k, which are not read
    with np.errstate(over="ignore", invalid="ignore"):
        return log_det_moments(f"airy_h_moment({{}}, {C})", _chain_traces(S, S2, g), k)


def _chain_traces(S, S2, g) -> dict:
    """Each word (n_1, ..., n_j) of LOG_DET_WORDS with its chain trace
    tr(S G^{n_1 - 1} ... S G^{n_j - 1}), G = diag(g), and a bound on its
    sum of |terms|.  S and S2 = S^2 are bitwise symmetric, so each trace is
    one O(n^2) sum over rows, tr XY = sum_il X_il Y_il.  Only the terms of
    tr S^3 G^a take both signs (S's diagonal is s_i^2 K(r_i, r_i) > 0), and
    sum_i g_i^a (q_i p_i)^{1/2} bounds them by Cauchy-Schwarz, q and p the
    row sums of S o S and S^2 o S^2 (tr S^4 = sum p); every other trace is
    its own bound."""
    def tr(x, a):       # sum_i x_i g_i^a
        return np.einsum("i,i->", x, g ** a)

    d, q, p = np.einsum("ii->i", S), np.diagonal(S2), np.einsum("il,il->i", S2, S2)
    c, c_bound = np.einsum("il,il->i", S2, S), np.sqrt(q * p)
    traces = {(1,): tr(d, 0), (2,): tr(d, 1), (3,): tr(d, 2), (4,): tr(d, 3),
              (1, 1): tr(q, 0), (1, 2): tr(q, 1), (1, 3): tr(q, 2),
              (2, 2): tr(np.einsum("il,il,l->i", S, S, g), 1), (1, 1, 1, 1): tr(p, 0)}
    return {word: (t, t) for word, t in traces.items()} | {
        (1, 1, 1): (tr(c, 0), tr(c_bound, 0)), (1, 1, 2): (tr(c, 1), tr(c_bound, 1))}


def _h_rule(k: int, C: float, nodes_per_axis: int | None) -> QuadratureRule:
    """Order k's grid at this C, or the DomainError that refuses it."""
    right = (k * C) ** 2 / 4.0 + _H_RIGHT_MARGIN
    if not (C >= 0.4 and right <= SUPPORTED_RANGE):
        raise DomainError(f"airy_h_moment supports C >= 0.4 and (kC)^2/4 + "
                          f"{_H_RIGHT_MARGIN:g} <= {SUPPORTED_RANGE:g}; got k = {k}, C = {C}")
    checked_exp(f"airy_h_moment({k}, {C}): e^(Cr) at the grid's right edge "
                f"r = {right:.6g},", C * right)
    left = max(-SUPPORTED_RANGE, -_H_LEFT_DECAY / C)
    return composite_legendre(left, right, math.ceil((right - left) / _H_PANEL_WIDTH),
                              _H_ORDER if nodes_per_axis is None else nodes_per_axis)


def airy_h_moments(k_max: int, C: float, nodes_per_axis: int | None = None) -> list:
    """[E h_1, ..., E h_kmax] over exp(C a_1), exp(C a_2), ...: the first
    k_max u-series coefficients of det(I - K f_u), each the value or the
    AiryKpzError that refuses that order, as ``kpz_side.kpz_laplaces`` per u.

    One series, on the grid of the largest order k whose grid is accepted,
    gives the orders up to k (those below k on a grid reaching past their
    own).  Each order above k keeps its own grid's DomainError; any other
    refusal of the series (ConfigurationError from ``nodes_per_axis``,
    NumericalConsistencyError) is every order's up to k.  Each value has
    passed the checks of :func:`log_det_moments` as airy_h_moment(j, C).
    """
    check_order("airy_h_moments", k_max)
    refused = []
    for k in range(k_max, 0, -1):
        try:
            return _h_series(_h_rule(k, C, nodes_per_axis), C, k) + refused
        except DomainError as exc:      # order k's own grid is refused
            refused.insert(0, exc)
        except AiryKpzError as exc:
            return [exc] * k + refused
    return refused


def airy_h_moment(k: int, C: float, nodes_per_axis: int | None = None) -> float:
    """Expectation of h_k over exp(C a_1), exp(C a_2), ...: (-1)^k times
    the u^k coefficient of det(I - K f_u), the last entry of
    :func:`airy_h_moments` at k_max = k, raised if it is a refusal.

    ``nodes_per_axis`` is the Gauss-Legendre order per panel of the grid
    (default 30).  Supported on integer 1 <= k <= 4 (ConfigurationError
    otherwise), C >= 0.4 and (kC)^2/4 + 22 <= 60, where the grid stays inside
    the Airy range, and C((kC)^2/4 + 22) <= log(DBL_MAX), where e^{Cr} stays
    finite (binding only at k = 1, C > 12.1); other C raise DomainError, once
    the largest lower order's series is built (a few ms, on this error path
    only).  A moment lost to cancellation raises NumericalConsistencyError.
    """
    check_order("airy_h_moment", k)
    return value(airy_h_moments(k, C, nodes_per_axis)[-1])


# ----------------------------------------------------------------------
# multiplicative statistics and the Tracy-Widom law

def airy_mult_stat(params: ModelParams, nodes: int = FREDHOLM_NODES) -> float:
    """E prod_k 1/(1 + u exp(C a_k)) as a Fredholm determinant.

    Discretizes det(1 - sqrt(f) K sqrt(f)) with f(r) = 1/(1 + u^{-1} e^{-Cr})
    on ``nodes`` Gauss-Legendre nodes; the symmetrized split leaves the
    determinant unchanged and keeps the matrix symmetric.  u = 0 gives
    exactly 1; C < (16 + log+ u)/56, whose grid leaves the Airy range, raises.
    """
    if params.u == 0:
        return 1.0
    # the weight dies like u e^{Cr} to the left (shifted by log u for
    # u > 1), the kernel superexponentially to the right
    decay = 16.0 + math.log(max(params.u, 1.0))
    left = -decay / params.C - 4.0
    if left < -SUPPORTED_RANGE:
        raise DomainError(f"airy_mult_stat at u = {params.u} supports C >= (16 + log+ u)/56 = "
                          f"{decay / 56.0:.6g}; got C = {params.C}")
    grid = legendre_on(left, 12.0, nodes)
    kmat = airy_kernel_matrix(grid.nodes)
    f = logistic(params.C * grid.nodes + math.log(params.u))
    return check_probability("airy_mult_stat", fredholm_det_matrix(kmat, grid.weights * f))


def default_f2_grid(s: float, n: int = FREDHOLM_NODES) -> QuadratureRule:
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
