"""Brute-force references and the closed forms the tests compare against.
For product-form integrands each factor is read at every point of the full
grid through ``np.meshgrid`` of the node indices, with no contraction; the
Airy kernel is summed from its half-line integral.  No pipeline calls these,
so they live here and not in the library."""

import itertools

import numpy as np

from airykpz.errors import DomainError
from airykpz.kpz_side import _ku_inner_rule, _ku_matrix
from airykpz.params import ModelParams
from airykpz.quadrature import gaussian_cauchy_factors
from airykpz.specfun import airy_both


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


def cauchy_det_direct(a, b) -> complex:
    """det[1/(a_i + b_j)] for 1-d ``a``, ``b`` by pivoted elimination."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return complex(np.linalg.det(1.0 / (a[:, None] + b[None, :])))


def cauchy_factors(alpha, beta, xs, freqs=None):
    """The axis factors and pair tables of ``gaussian_cauchy_factors`` on the
    node arrays ``xs`` (entry i a scalar or 1-d array): at each grid point
    their product is e^{i sum w_i x_i} det[1/(alpha_i - i x_i + beta_j + i x_j)]."""
    n = len(alpha)
    _, integrand = gaussian_cauchy_factors([1.0] * n, alpha, beta,
                                           [0.0] * n if freqs is None else freqs, 1)
    return integrand(*(np.atleast_1d(np.asarray(x, dtype=float)) for x in xs))


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


def okounkov_integral(x: float, a: float, b: float) -> float:
    """Closed form of the two-sided Laplace transform of Ai(z+a)Ai(z+b).

    Equals (1/(2 sqrt(pi x))) exp(x^3/12 - (a+b)x/2 - (a-b)^2/(4x)) for
    x > 0; symmetric in (a, b).
    """
    if not x > 0:
        raise DomainError("okounkov_integral requires x > 0")
    return float(np.exp(x ** 3 / 12.0 - 0.5 * (a + b) * x - (a - b) ** 2 / (4.0 * x))
                 / (2.0 * np.sqrt(np.pi * x)))


def ku_kernel(x: float, x_prime: float, params: ModelParams) -> float:
    """Kernel of the Laplace-transform determinant:
    K_u(x, x') = int dr Ai(x-r) Ai(x'-r) / (1 + u^{-1} exp((T/2)^{1/3} r)).

    Symmetric in (x, x'); x, x' >= 0, u > 0.  The [0, 1] entry of the
    grid evaluation that ``kpz_laplace`` runs on its default inner rule,
    truncation check included.
    """
    if not (x >= 0 and x_prime >= 0):
        raise DomainError("ku_kernel requires x, x' >= 0")
    if not params.u > 0:
        raise DomainError("ku_kernel requires u > 0")
    inner_rule = _ku_inner_rule(params, max(x, x_prime))
    return float(_ku_matrix(np.array([x, x_prime]), params, inner_rule)[0, 1])
