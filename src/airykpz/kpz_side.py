"""KPZ side: the moments of the stochastic-heat-equation solution at the
origin, the nested-contour oracle, and the Laplace-transform Fredholm
determinant, whose kernel K_u shares one Airy matrix among the u of one C.

exp(kT/24) E[Z(T,0)^k / k!] sums, over the partitions of k, contour
integrals of det[1/(w_j + lambda_j - w_i)] times the Bose-gas exponents
(Borodin & Corwin, arXiv:1111.4408, §6).  Expanded into cycles, that sum
is the v^k coefficient of det(I + D(v) A) on one contour per part size,
read off its cycle traces by ``quadrature.log_det_moments``, as E h_k is.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (AiryKpzError, ConfigurationError, DomainError, NumericalConsistencyError,
                     check_order, check_positive, check_probability, checked_exp, value)
from .params import ModelParams
from .quadrature import (FREDHOLM_NODES, QuadratureRule, composite_legendre, fredholm_det_matrix,
                         gram, legendre_on, log_det_moments, tensor_integrate, trapezoid_axis)
from .specfun import SUPPORTED_RANGE, airy_ai, logistic

__all__ = ["kpz_moment", "kpz_moments", "kpz_moment_nested", "kpz_laplaces"]


# ----------------------------------------------------------------------
# moments: the log-det series of the block contour operator

_CONTOUR_SHIFT = 0.9    # theta; at 0 every contour is the imaginary axis
_BLOCK_ENTRIES = 2 ** 30 // (5 * 16)    # ~5 complex tables of a block live: 1 GiB


def _contour(n: int, T: float, nodes_per_axis: int | None) -> tuple[np.ndarray, np.ndarray]:
    """d_n(t) = sigma_n - it and F_n(t) on contour n, w = -sigma_n + it,
    sigma_n = theta (n - 1)/2: shifted toward its saddle across no pole,
    which cuts part n's phase by 1 - theta.  F_n is the trapezoid weight
    (holding e^{-(Tn/2) t^2}) times the phase, the part's constant and
    e^{nT/24} over 2 pi.  The strip is the nearest pole of any block
    (n, m) or (m, n); dims = 2 (traces sum over node pairs) escapes the
    4-d cap and the 1-d floor.
    """
    sigma = _CONTOUR_SHIFT * (n - 1) / 2.0
    log_const = (T / 2.0) * (n * (n - 1) * (2 * n - 1) / 6.0 + n * sigma ** 2
                             - n * (n - 1) * sigma) + n * T / 24.0
    const = checked_exp(f"kpz_moment({n}, {T}): its normalization and contour prefactor",
                        log_const)
    phase = (1.0 - _CONTOUR_SHIFT) * T * n * (n - 1) / 2.0
    rule = trapezoid_axis(T * n / 2.0, phase, min(1.0 + sigma, n - sigma), 2, nodes_per_axis)
    return (sigma - 1j * rule.nodes,
            rule.weights * np.exp(1j * phase * rule.nodes) * (const / (2.0 * math.pi)))


def _cycle_traces(d: list, F: list) -> dict:
    """Each word (n_1, ..., n_j) of LOG_DET_WORDS up to n = len(d), with its
    cycle trace tr(A_{n_1 n_2} ... A_{n_j n_1}) of det(I + D(v) A), block
    (n, m) F_n(t)/(d_n(t) - e_m(t')), e_m = d_m - m, and its sum of |terms|;
    t -> -t conjugates every term, so the imaginary parts are dropped.
    tr A_nn = sum F_n/n, and each other trace sums F_n(a) F_m(c) g_ac over
    (x + p)(q - x), x = d_n(a) - d_m(c), over node pairs: a product is
    Cauchy-like, (d_n + m - e_l)(A_nm A_ml)_ac = F_n(a)(u_a + v_c) with
    u = C_nm F_m, v = F_m^T C_ml (C the Cauchy part), sums of the
    positive F_1.  ``np.einsum`` without ``optimize`` calls no BLAS.
    """
    def diag(n):
        return (np.einsum("a->", F[n - 1]) / n).real, np.einsum("a->", np.abs(F[n - 1])) / n

    def tr(n, m, p, q, g=1.0):
        x = np.subtract.outer(d[n - 1], d[m - 1])
        terms = g / ((x + p) * (q - x))
        return (np.einsum("a,ac,c->", F[n - 1], terms, F[m - 1]).real,
                np.einsum("a,ac,c->", np.abs(F[n - 1]), np.abs(terms), np.abs(F[m - 1])))

    traces = {(1,): diag(1)} if d else {}
    if len(d) > 1:
        traces.update({(2,): diag(2), (1, 1): tr(1, 1, 1, 1)})
    if len(d) > 2:
        C11 = 1.0 / (np.subtract.outer(d[0], d[0]) + 1.0)
        u, v = np.einsum("ab,b->a", C11, F[0]), np.einsum("b,bc->c", F[0], C11)
        del C11
        uv = np.add.outer(u, v)
        traces.update({(3,): diag(3), (1, 2): tr(1, 2, 2, 1), (1, 1, 1): tr(1, 1, 2, 1, uv)})
    if len(d) > 3:
        w = np.einsum("b,bc->c", F[0], 1.0 / (np.subtract.outer(d[0], d[1]) + 2.0))
        traces.update({(4,): diag(4), (1, 3): tr(1, 3, 3, 1), (2, 2): tr(2, 2, 2, 2),
                       (1, 1, 2): tr(1, 2, 3, 1, np.add.outer(u, w)),
                       (1, 1, 1, 1): tr(1, 1, 2, 2, uv * uv.T)})
    return traces


def kpz_moments(k_max: int, T: float, nodes_per_axis: int | None = None) -> list:
    """[kpz_moment(1, T), ..., kpz_moment(k_max, T)] from one series: each
    order's value or refusal, as ``airy_side.airy_h_moments`` per C.
    Order n and those above it are refused if contour n's prefactor
    overflows (DomainError) or a block of contours a and n - a would exceed
    _BLOCK_ENTRIES (ConfigurationError, before any block is built); the
    orders below are :func:`log_det_moments` of the :func:`_cycle_traces`.
    """
    check_order("kpz_moments", k_max)
    ModelParams.from_T(T, 0.0)
    contours, refusal = [], None
    for n in range(1, k_max + 1):
        entries = max((contours[a][0].size * contours[n - 2 - a][0].size
                       for a in range(n - 1)), default=0)
        try:
            if entries > _BLOCK_ENTRIES:
                raise ConfigurationError(
                    f"kpz_moment({n}, {T}): a block of {entries} entries exceeds the "
                    f"{_BLOCK_ENTRIES} one series may hold; use fewer nodes per axis")
            contours.append(_contour(n, T, nodes_per_axis))
        except AiryKpzError as exc:
            refusal = exc
            break
    # a grid fit for one order can overflow the traces of a higher one
    with np.errstate(over="ignore", invalid="ignore"):
        traces = _cycle_traces([c[0] for c in contours], [c[1] for c in contours])
        moments = log_det_moments(f"kpz_moment({{}}, {T})", traces, len(contours))
    return moments + [refusal] * (k_max - len(contours))


def kpz_moment(k: int, T: float, nodes_per_axis: int | None = None) -> float:
    """exp(kT/24) E[Z(T,0)^k / k!], directly comparable with
    airy_h_moment(k, C=(T/2)^(1/3)): the last entry of :func:`kpz_moments`
    at k_max = k (1 <= k <= 4), raised if it is a refusal.
    ``nodes_per_axis`` is the trapezoid count of every contour.
    """
    check_order("kpz_moment", k)
    return value(kpz_moments(k, T, nodes_per_axis)[-1])


# ----------------------------------------------------------------------
# nested-contour oracle

# log of the default nested peak, from a sweep of k = 2, 3, 0.43 <= T <= 128:
# each cell with g above its floor meets kpz_moment within 9e-14 (16: 5e-13)
_NESTED_PEAK = 12.0


def kpz_moment_nested(k: int, T: float, offsets=None,
                      nodes_per_axis: int | None = None) -> float:
    """exp(kT/24) E[Z(T,0)^k / k!] by direct quadrature of the
    nested-contour formula (no residue expansion); k <= 3, and T is
    checked as in kpz_moment.

    The contours Re z_j = offsets[j], exactly k, each lie more than 1 below
    the last, off the poles z_A - z_B = 1.  By default they are centred on
    the saddle, a_j = g((k - 1)/2 - j), g the largest spacing <= 2 with
    (T/2) sum a_j^2 <= _NESTED_PEAK, but at least 1.25.  On a_j + i t_j,
    e^{(T/2) z_j^2} is the checked prefactor e^{(T/2) a_j^2} times
    e^{-T t_j^2/2 + i T a_j t_j}: the :func:`trapezoid_axis` of s = T/2,
    w = T a_j, strip a_A - a_B - 1 (the nearest neighbour's pole of
    (z_A - z_B)/(z_A - z_B - 1)), with kpz_moment's ``nodes_per_axis``.
    """
    check_order("kpz_moment_nested", k, k_max=3)
    ModelParams.from_T(T, 0.0)
    name = f"kpz_moment_nested({k}, {T})"
    norm = checked_exp(f"{name}: its normalization", k * T / 24.0)
    if offsets is None:
        spread = sum(((k - 1) / 2.0 - j) ** 2 for j in range(k))
        g = max(1.25, min(2.0, math.sqrt(2.0 * _NESTED_PEAK / (T * spread)))) if k > 1 else 0.0
        offsets = [g * ((k - 1) / 2.0 - j) for j in range(k)]
    a = np.asarray(offsets, dtype=float)
    if a.shape != (k,):
        raise ConfigurationError(f"need exactly {k} contour offsets")
    gaps = a[:-1] - a[1:] - 1.0
    if np.any(gaps <= 0.0):
        raise ConfigurationError("contour offsets must decrease by more than 1 between neighbours")
    pref = checked_exp(f"{name}: its contour prefactor",
                       (T / 2.0) * float(np.sum(a ** 2))) / (2.0 * math.pi) ** k
    strips = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    rules = [trapezoid_axis(T / 2.0, T * aj, strip, k, nodes_per_axis)
             for aj, strip in zip(a, strips)]

    def f(*ts):
        pairs = {}
        for A in range(k):
            for B in range(A + 1, k):
                d = a[A] - a[B] + 1j * np.subtract.outer(ts[A], ts[B])
                pairs[A, B] = d / (d - 1.0)
        return [np.exp(1j * T * aj * t) for aj, t in zip(a, ts)], pairs

    # t -> -t conjugates the integrand and the trapezoid nodes are symmetric,
    # so the sum is real; the tensor driver returns its real part
    try:
        total = tensor_integrate(f, rules) * pref
    except NumericalConsistencyError as exc:
        raise NumericalConsistencyError(f"{name}: {exc}") from exc
    return check_positive(name, norm * total / math.factorial(k))


# ----------------------------------------------------------------------
# Laplace transform side

def _ku_inner_rule(params: ModelParams, x_max: float) -> QuadratureRule:
    """Composite rule over the r-integration of the kernel.

    Every outer node has x >= 0, so left of -12 each shifted Airy factor
    Ai(x - r) is below Ai(12) ~ 1.4e-13; right of (20 + log+ u)/C + x_max,
    log+ u = log max(u, 1), the Fermi factor, at most u e^{-Cr}, is below
    e^{-20}.  Both edges are nondecreasing in u, as is the outer edge, so
    the grid of one u contains that of every smaller u.  Panels of unit
    width with 10 nodes resolve the Airy oscillation at ~4 points per
    shortest wavelength.  A right edge past the Airy range raises
    DomainError, naming the C that keeps it inside.
    """
    lo = -12.0
    log_u = math.log(max(params.u, 1.0))
    hi = (20.0 + log_u) / params.C + x_max
    if hi > SUPPORTED_RANGE:
        # the outer rule's x_max < (22 + log+ u)/C, so this C keeps hi < 60
        c_min = (42.0 + 2.0 * log_u) / SUPPORTED_RANGE
        raise DomainError(
            f"the kernel rule needs the Airy function beyond its supported range (inner "
            f"domain reaches {hi:.1f}); use C >= {math.ceil(100.0 * c_min) / 100.0:.2f}")
    return composite_legendre(lo, hi, int(math.ceil(hi - lo)), 10)


def _ku_grid(params: ModelParams, nodes: int) -> tuple[QuadratureRule, QuadratureRule,
                                                       np.ndarray]:
    """The own grid of this u: the outer rule on [0, (22 + log+ u)/C] with
    ``nodes`` Gauss-Legendre nodes, its :func:`_ku_inner_rule`, and the
    Airy factor Ai(x_i - r_m) on their product grid, one :func:`airy_ai`
    call, which every u of this C up to this one can share.

    [0, inf) is cut where the kernel's diagonal, which decays like
    u e^{C^3/12 - Cx}/(2 sqrt(pi C)), is about e^{C^3/12 - 22}: not
    roundoff, and the cut leaves out the C^3/12.  Against an
    extended-precision reference this edge leaves 5e-12 to 8e-11 of error
    at C = 0.8 to 1.6, u = 0.1 to 10; against a wider, finer grid, 1.7e-9
    at C = 4 and 1.1e-5 at C = 8 (u = 1).
    """
    outer = legendre_on(0.0, (22.0 + math.log(max(params.u, 1.0))) / params.C, nodes)
    inner = _ku_inner_rule(params, float(outer.nodes[-1]))
    return outer, inner, airy_ai(np.subtract.outer(outer.nodes, inner.nodes))


def _ku_matrix(airy: np.ndarray, params: ModelParams, inner_rule: QuadratureRule) -> np.ndarray:
    """K_u(x_i, x_j) on a grid from its Airy factor airy[i, m] = Ai(x_i - r_m),
    which depends on u only through the grid's edges.

    K_u = X X^T with X_im = airy_im (f_m w_m)^{1/2}, from :func:`gram`:
    bitwise symmetric, with no BLAS call, so it does not depend on the BLAS
    thread count.
    NumericalConsistencyError when the outermost 5 inner nodes at either
    end contribute more than max(1e-10, 1e-10 |K_ij|) to some entry: the
    inner rule then truncates visibly.
    """
    f = logistic(math.log(params.u) - params.C * inner_rule.nodes)
    X = airy * np.sqrt(f * inner_rule.weights)
    M = gram(X)
    edge = np.abs(gram(X[:, :5])) + np.abs(gram(X[:, -5:]))
    bad = edge > np.maximum(1e-10, 1e-10 * np.abs(M))
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise NumericalConsistencyError(
            f"K_u truncation-sensitive at node pair ({i}, {j}): edge nodes "
            f"contribute {edge[i, j]:.3e} against value {M[i, j]:.3e}")
    return M


def kpz_laplaces(C: float, us, nodes: int = FREDHOLM_NODES) -> list:
    """E exp(-u Z(T,0) e^{T/24}), T = 2C^3, for each u of ``us``, from one K_u
    Airy matrix: each entry is the value, or the error that refuses that u.

    The u run from the largest down, and the matrix is on the own grid
    (:func:`_ku_grid`) of the first whose grid is accepted; a u whose own
    grid is refused (a C too small for the Airy range, a node count no
    rule takes) keeps that error.  Both edges grow with u, so the shared
    grid contains every smaller u's own grid: a smaller u sits on a wider
    outer rule than it would alone, and its value depends on the largest
    u requested at its C.  The outer edge is this side's error, so the
    wider rule moves the value toward the limit (README, Laplace
    identity).  Each u then only scales the matrix and runs its own
    truncation check, determinant and probability check, whose refusals
    name that u.  A u = 0 is exactly 1 and builds nothing; a bad C or u
    raises for the whole call.
    """
    params = [ModelParams.from_C(C, u) for u in us]
    out: list = [1.0] * len(params)
    grid = None
    for u, i in sorted(((p.u, i) for i, p in enumerate(params) if p.u > 0), reverse=True):
        try:
            grid = grid or _ku_grid(params[i], nodes)
        except (ConfigurationError, DomainError) as exc:   # u's own grid is refused
            out[i] = exc
            continue
        outer, inner, airy = grid
        try:
            kmat = _ku_matrix(airy, params[i], inner)
            out[i] = check_probability("kpz_laplace", fredholm_det_matrix(kmat, outer.weights))
        except (DomainError, NumericalConsistencyError) as exc:
            out[i] = type(exc)(f"u = {u!r}: {exc}")
    return out
