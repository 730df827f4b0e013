"""Brute-force references and the closed forms the tests compare against.
For product-form integrands each factor is read at every point of the full
grid through ``np.meshgrid`` of the node indices, with no contraction; the
Airy kernel is summed from its half-line integral.  No pipeline calls these,
so they live here and not in the library."""

import functools
import itertools
import math

import numpy as np

from airykpz import kpz_side
from airykpz.errors import DomainError, check_order, checked_exp, value
from airykpz.kpz_side import _ku_inner_rule, _ku_matrix
from airykpz.params import ModelParams
from airykpz.quadrature import (FREDHOLM_NODES, LOG_DET_WORDS, composite_legendre,
                                fredholm_det_matrix, legendre_on, newton_h, tensor_integrate,
                                trapezoid_axis)
from airykpz.specfun import airy_ai, airy_both


def factor_grid(axis, pairs):
    """The product of the per-axis factors and pair tables at every grid
    point, as an array of shape (n_0, ..., n_{l-1})."""
    axis = [np.atleast_1d(a) for a in axis]
    idx = np.meshgrid(*(np.arange(a.size) for a in axis), indexing="ij")
    vals = np.ones(idx[0].shape, dtype=complex)
    for i, a in enumerate(axis):
        vals = vals * a[idx[i]]
    for (i, j), t in pairs.items():
        vals = vals * t[idx[i], idx[j]]
    return vals


def pointwise_sum(f, rules):
    """sum over the full grid of prod(weights) * f, f in the factor form
    ``tensor_integrate`` takes; complex, so a test sees the imaginary part."""
    axis, pairs = f(*(r.nodes for r in rules))
    idx = np.meshgrid(*(np.arange(len(r)) for r in rules), indexing="ij")
    w = np.ones(idx[0].shape)
    for i, r in enumerate(rules):
        w = w * r.weights[idx[i]]
    return complex(np.sum(w * factor_grid(axis, pairs)))


def half_line_kernel(xs, ys, rule):
    """K(x, y) = int_0^inf Ai(x + a) Ai(y + a) da on the nodes of ``rule``
    for every x in xs and y in ys, an array of shape (len(xs), len(ys)).
    Summed as w * (Ai(x+a) * Ai(y+a)), so it is bit-symmetric in x and y."""
    ax, _ = airy_both(np.add.outer(np.atleast_1d(xs), rule.nodes))
    ay, _ = airy_both(np.add.outer(np.atleast_1d(ys), rule.nodes))
    return np.sum(rule.weights * (ax[:, None, :] * ay[None, :, :]), axis=-1)


def airy_kernel_two_outer(points):
    """The Airy kernel matrix as (Ai Ai'^T - Ai' Ai^T)/(x_i - x_j), the two
    outer products written out, with the confluent limit
    Ai'(x)^2 - x Ai(x)^2 on the diagonal; points closer than
    ``airy_kernel_matrix``'s confluent cut are not handled."""
    pts = np.asarray(points, dtype=float)
    ai, aip = airy_both(pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        kmat = ((np.multiply.outer(ai, aip) - np.multiply.outer(aip, ai))
                / np.subtract.outer(pts, pts))
    np.fill_diagonal(kmat, aip ** 2 - pts * ai ** 2)
    return kmat


def log_det_series_of(traces, k):
    """l_1, ..., l_k from a dict of word -> (trace, bound), as
    ``quadrature.log_det_moments`` sums them: each word's trace times its
    weight in LOG_DET_WORDS, in the table's order."""
    return [sum(w * traces[word][0] for word, w in LOG_DET_WORDS.items() if sum(word) == n)
            for n in range(1, k + 1)]


def log_det_series_by_compositions(S, g, k):
    """l_1, ..., l_k of the u-series of det(I - K f_u) in the notation of
    ``airy_side._h_series``: l_n = sum_j (-1)^{j+1}/j sum_a
    tr(S G^{a_1} ... S G^{a_j}), one trace per composition a, summed as
    listed.  For k <= 4 a word has at most two positive exponents, so a
    rotation makes it S^p G^c S^q G^b and its trace one sum over S or S^2.
    """
    powers = [None, S, np.einsum("il,jl->ij", S, S)]

    def trace(a):
        # rotate the first positive exponent to the end, then split after
        # the other positive one, or mid-word
        j = len(a)
        nz = [i for i, e in enumerate(a) if e]
        a = a[nz[0] + 1:] + a[:nz[0] + 1] if nz else a
        if j == 1:
            return np.einsum("ii,i->", powers[1], g ** a[0])
        p = nz[1] - nz[0] if len(nz) == 2 else (j + 1) // 2
        diag = np.einsum("il,l,li->i", powers[p], g ** a[p - 1], powers[j - p])
        return np.einsum("i,i->", diag, g ** a[-1])

    return [sum((-1) ** (j + 1) * trace(a) / j for j in range(1, n + 1)
                for a in itertools.product(range(n - j + 1), repeat=j) if sum(a) == n - j)
            for n in range(1, k + 1)]


def log_det_series_transposed(S, S2, g, k):
    """l_1, ..., l_k of ``airy_side._chain_traces`` with every trace of a
    product summed down the columns of its second factor, tr XY =
    sum_il X_il Y_li, and tr (SG)^2 as one four-operand sum: the same
    table without the symmetry of S and S2."""
    def tr(x, a):
        return np.einsum("i,i->", x, g ** a)

    d = np.einsum("ii->i", S)
    ell = [tr(d, 0)]
    if k > 1:
        q = np.einsum("il,li->i", S, S) if S2 is None else np.diagonal(S2)
        ell.append(tr(d, 1) - tr(q, 0) / 2)
    if k > 2:
        c = np.einsum("il,li->i", S2, S)
        ell.append(tr(d, 2) - tr(q, 1) + tr(c, 0) / 3)
    if k > 3:
        ell.append(tr(d, 3) - tr(q, 2) - np.einsum("i,il,li,l->", g, S, S, g) / 2
                   + tr(c, 1) - np.einsum("il,li->", S2, S2) / 4)
    return ell


def cauchy_det_direct(a, b) -> complex:
    """det[1/(a_i + b_j)] for 1-d ``a``, ``b`` by pivoted elimination."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return complex(np.linalg.det(1.0 / (a[:, None] + b[None, :])))


# ----------------------------------------------------------------------
# the partition expansion of the KPZ moments, which kpz_side sums as the
# log-det series of one block contour operator: here each partition's
# contour integral is a tensor integral of its Cauchy determinant

MAX_PARTITION_WEIGHT = 20


def partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k, each a tuple of nonincreasing positive parts,
    descending lexicographic."""
    check_order("partitions", k, MAX_PARTITION_WEIGHT)

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
        for p in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - p, p):
                yield (p, *rest)

    return list(rec(k, k))


def symmetry_factor(parts: tuple[int, ...]) -> int:
    """Product of factorials of the part multiplicities."""
    return math.prod(math.factorial(parts.count(p)) for p in set(parts))


def gaussian_cauchy_integral(scales, alpha, beta, freqs, nodes_per_axis=None):
    """Rules and factor integrand, for ``tensor_integrate``, of

        int over R^l of prod_i e^{-s_i x_i^2 + i w_i x_i}
            det[1/(alpha_i - i x_i + beta_j + i x_j)] dx

    with every sigma_ij = alpha_i + beta_j > 0 (DomainError naming (i, j)
    otherwise): ``quadrature.gaussian_cauchy_factors`` with unequal offsets
    and phases.  Axis i carries e^{i w_i x_i}/sigma_ii and pair (i, j) the
    factor (da db + d^2 + i e d)/(sigma_ij sigma_ji + d^2 + i e d),
    d = x_i - x_j, da = alpha_i - alpha_j, db = beta_i - beta_j,
    e = da - db, float64 where it is real.  Axis i takes the trapezoid rule
    of its nearest pair pole, (sqrt(e^2 + 4 sigma_ij sigma_ji) - |e|)/2.
    """
    ell = len(scales)
    sigma = np.add.outer(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float))
    if not np.all(sigma > 0):
        i, j = np.argwhere(~(sigma > 0))[0]
        raise DomainError(f"alpha[{i}] + beta[{j}] = {float(sigma[i, j])!r} must be positive "
                          f"(pair ({i}, {j}) of the Cauchy determinant)")
    e = np.abs(sigma - sigma.T)
    pole = 2.0 * sigma * sigma.T / (np.sqrt(e * e + 4.0 * sigma * sigma.T) + e)
    np.fill_diagonal(pole, np.inf)
    rules = [trapezoid_axis(s, w, a, ell, nodes_per_axis)
             for s, w, a in zip(scales, freqs, pole.min(axis=1))]

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
                    pairs[i, j] = num * (1.0 / den)
                else:
                    ied = 1j * (da - db) * d
                    pairs[i, j] = (num + ied) / (den + ied)
        return axis, pairs

    return rules, integrand


def cauchy_factors(alpha, beta, xs, freqs=None):
    """The axis factors and pair tables of :func:`gaussian_cauchy_integral`
    on the node arrays ``xs`` (entry i a scalar or 1-d array): at each grid
    point their product is e^{i sum w_i x_i} det[1/(alpha_i - i x_i + beta_j + i x_j)]."""
    n = len(alpha)
    _, integrand = gaussian_cauchy_integral([1.0] * n, alpha, beta,
                                            [0.0] * n if freqs is None else freqs, 1)
    return integrand(*(np.atleast_1d(np.asarray(x, dtype=float)) for x in xs))


def partition_term(parts: tuple[int, ...], T: float, nodes_per_axis=None) -> float:
    """(2 pi)^{-l} times the contour integral of the partition with these
    parts, on kpz_side's contours w_j = -sigma_j + i t_j, sigma_j =
    theta (lambda_j - 1)/2: the Gaussian-Cauchy integral of
    :func:`gaussian_cauchy_integral` with s = T lambda/2, alpha = sigma,
    beta = lambda - sigma and the phase (1 - theta)(T lambda(lambda-1)/2),
    on its own trapezoid rules (the 4-d axes capped as a tensor axis is).
    Times e^{kT/24}, summed over the partitions of k over their symmetry
    factors, it is the partition expansion of kpz_moment(k, T).
    """
    lamv = np.asarray(parts, dtype=float)
    theta = kpz_side._CONTOUR_SHIFT
    sigma = theta * (lamv - 1) / 2.0
    log_const = float(np.sum((T / 2.0) * (lamv * (lamv - 1) * (2 * lamv - 1) / 6.0
                                          + lamv * sigma ** 2 - lamv * (lamv - 1) * sigma)))
    const = checked_exp(f"partition {parts} at T = {T}: its prefactor", log_const)
    rules, integrand = gaussian_cauchy_integral(
        T * lamv / 2.0, sigma, lamv - sigma, (1.0 - theta) * T * lamv * (lamv - 1) / 2.0,
        nodes_per_axis)
    return tensor_integrate(integrand, rules) * const / (2.0 * math.pi) ** len(parts)


def compositions(n: int):
    """The compositions of n, each a tuple of positive parts in order."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first, *rest)


def kpz_blocks(T: float, n_max: int, nodes_per_axis=None) -> dict:
    """The dense blocks A_nm = F_n(t)/(d_n(t) - d_m(t') + m) of kpz_side's
    block contour operator, n, m <= n_max, on its contours."""
    contours = [kpz_side._contour(n, T, nodes_per_axis) for n in range(1, n_max + 1)]
    return {(n, m): contours[n - 1][1][:, None]
            / (np.subtract.outer(contours[n - 1][0], contours[m - 1][0]) + m)
            for n in range(1, n_max + 1) for m in range(1, n_max + 1)}


def cycle_trace(block, comp) -> complex:
    """tr(block(n_1, n_2) block(n_2, n_3) ... block(n_j, n_1)) for the
    composition comp = (n_1, ..., n_j), by dense products."""
    prod = block(comp[0], comp[1 % len(comp)])
    for i in range(1, len(comp)):
        prod = np.einsum("ab,bc->ac", prod, block(comp[i], comp[(i + 1) % len(comp)]))
    return complex(np.einsum("aa->", prod))


def log_det_series_by_cycles(block, k: int) -> list:
    """l_1, ..., l_k: sum over the compositions of n of (-1)^{j+1}/j times
    the :func:`cycle_trace`, one dense product chain per composition."""
    return [sum((-1) ** (len(c) + 1) * cycle_trace(block, c) / len(c) for c in compositions(n))
            for n in range(1, k + 1)]


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


def okounkov_integral(x: float, a, b):
    """Closed form of the two-sided Laplace transform of Ai(z+a)Ai(z+b).

    Equals (1/(2 sqrt(pi x))) exp(x^3/12 - (a+b)x/2 - (a-b)^2/(4x)) for
    x > 0; symmetric in (a, b), which may be arrays that broadcast.
    """
    if not x > 0:
        raise DomainError("okounkov_integral requires x > 0")
    return (np.exp(x ** 3 / 12.0 - 0.5 * (a + b) * x - (a - b) ** 2 / (4.0 * x))
            / (2.0 * np.sqrt(np.pi * x)))


def okounkov_matrices(xs, C):
    """W^{1/2} Q_x W^{1/2} for each x of ``xs``, Q_x(s, s') =
    ``okounkov_integral(x, s, s')``, on Gauss-Legendre panels of width 2
    with 24 nodes over [0, 44/C].

    With K(r, r') = int_0^inf Ai(r + s) Ai(r' + s) ds, a word in the
    operators K e^{x_i r} has the trace of the same word in the Q_{x_i} on
    L^2(0, inf), whose kernels are Gaussian: no Airy function is called.
    Q_x decays like e^{-x s}, so the cut at 44/C drops e^{-44} of the
    x = C kernel.  Against 1-wide panels of 24 nodes up to 56/C,
    :func:`okounkov_h_moments` (k = 4) agrees to 6.2e-15 at C = 1, 1.4 and
    2, and :func:`okounkov_equal_R` (l <= 3) to 8.2e-15 at c = 0.6 and 1.
    """
    rule = composite_legendre(0.0, 44.0 / C, math.ceil(22.0 / C), 24)
    sq, s = np.sqrt(rule.weights), rule.nodes
    return [np.outer(sq, sq) * okounkov_integral(x, s[:, None], s[None, :]) for x in xs]


def okounkov_h_moments(k, C):
    """E h_1, ..., E h_k as the v^n coefficients of det(I + sum_m v^m Q_{mC})
    on L^2(0, inf) (:func:`okounkov_matrices`), the Fredholm determinant
    det(I - K f_u) with v = -u: log det is expanded over compositions,
    l_n = sum_j (-1)^{j+1}/j sum tr(Q_{m_1 C} ... Q_{m_j C}) over
    m_i >= 1 with sum m_i = n, and ``newton_h`` of p_n = n l_n gives h."""
    Q = dict(zip(range(1, k + 1), okounkov_matrices([m * C for m in range(1, k + 1)], C)))
    ell = [sum((-1) ** (j + 1) / j * np.trace(functools.reduce(np.matmul, [Q[m] for m in a]))
               for j in range(1, n + 1) for a in itertools.product(range(1, n - j + 2), repeat=j)
               if sum(a) == n)
           for n in range(1, k + 1)]
    return newton_h([n * l for n, l in enumerate(ell, start=1)])[1:]


def okounkov_equal_R(c, ell):
    """R_1(c), ..., R_ell(c, ..., c): the Laplace transform of the j-point
    correlation function at j equal exponents is j! e_j(Q_c), the
    elementary symmetric functions of the eigenvalues of Q_c
    (:func:`okounkov_matrices`): ``newton_h`` of the signed power sums
    (-1)^{i-1} tr Q_c^i.  The signs alternate, so the sum cancels as c and
    j grow."""
    [Q] = okounkov_matrices([c], c)
    p, power = [], np.eye(len(Q))
    for _ in range(ell):
        power = power @ Q
        p.append(np.trace(power))
    e = newton_h([(-1) ** i * pi for i, pi in enumerate(p)])
    return [math.factorial(j) * e[j] for j in range(1, ell + 1)]


def ku_kernel(x: float, x_prime: float, params: ModelParams) -> float:
    """Kernel of the Laplace-transform determinant:
    K_u(x, x') = int dr Ai(x-r) Ai(x'-r) / (1 + u^{-1} exp((T/2)^{1/3} r)).

    Symmetric in (x, x'); x, x' >= 0, u > 0.  The [0, 1] entry of the
    grid evaluation that ``kpz_laplaces`` runs on its default inner rule,
    truncation check included.
    """
    if not (x >= 0 and x_prime >= 0):
        raise DomainError("ku_kernel requires x, x' >= 0")
    if not params.u > 0:
        raise DomainError("ku_kernel requires u > 0")
    inner_rule = _ku_inner_rule(params, max(x, x_prime))
    return float(ku_matrix_on(np.array([x, x_prime]), params, inner_rule)[0, 1])


def ku_matrix_on(xs, params: ModelParams, inner_rule):
    """K_u on the outer nodes ``xs`` and this inner rule, built as
    ``kpz_laplaces`` builds it: one Airy factor Ai(x_i - r_m) on the whole
    argument grid, scaled by ``_ku_matrix`` for this u, truncation check
    included."""
    airy = airy_ai(np.subtract.outer(np.asarray(xs, dtype=float), inner_rule.nodes))
    return _ku_matrix(airy, params, inner_rule)


def one_u_laplace(params: ModelParams, nodes: int = FREDHOLM_NODES) -> float:
    """``kpz_laplaces`` at one u, on u's own grid, raised if it is a refusal."""
    return value(kpz_side.kpz_laplaces(params.C, [params.u], nodes)[0])


def kpz_laplace_reference(params: ModelParams) -> float:
    """The determinant of :func:`one_u_laplace` on a wider, finer grid: the outer
    edge at (30 + log+ u)/C with 160 nodes, the inner rule from -14 with 14
    nodes per unit panel to its usual right edge (20 + log+ u)/C + x_max.
    The outer edge is the default grid's whole error, and at C = 1 and 1.6
    this grid reproduces the errors of the 80-node default grid against an
    extended-precision reference to two digits; at C = 0.8 its inner rule
    leaves the Airy range (DomainError)."""
    log_u = math.log(max(params.u, 1.0))
    outer = legendre_on(0.0, (30.0 + log_u) / params.C, 160)
    hi = (20.0 + log_u) / params.C + float(outer.nodes[-1])
    inner = composite_legendre(-14.0, hi, math.ceil(hi + 14.0), 14)
    return fredholm_det_matrix(ku_matrix_on(outer.nodes, params, inner), outer.weights)
