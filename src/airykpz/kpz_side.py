"""KPZ side: the partitions of k as tuples of parts, delta-Bose-gas
contour integrals for the moments of the stochastic-heat-equation solution
at the origin, the nested-contour oracle, and the Laplace-transform
Fredholm determinant, whose kernel K_u shares one Airy matrix among the u
of one C.

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

import numpy as np

from .errors import (ConfigurationError, DomainError, NumericalConsistencyError,
                     check_order, check_positive, check_probability, checked_exp, value)
from .params import ModelParams
from .quadrature import (FREDHOLM_NODES, QuadratureRule, composite_legendre,
                         fredholm_det_matrix, gaussian_cauchy_factors, gram, legendre_on,
                         tensor_integrate, trapezoid_axis)
from .specfun import SUPPORTED_RANGE, airy_ai, logistic

__all__ = [
    "partitions", "symmetry_factor",
    "kpz_moment", "kpz_moment_nested", "kpz_laplace", "kpz_laplaces",
]

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


# ----------------------------------------------------------------------
# moments via the partition expansion

_CONTOUR_SHIFT = 0.9    # theta; at 1 each term would be laplace_R's own discrete sum


def _partition_term(parts: tuple[int, ...], T: float, nodes_per_axis: int | None = None) -> float:
    """(2 pi)^{-l} times the contour integral of the partition with these
    parts, on w_j = -sigma_j + i t_j: each contour moved from the imaginary
    axis toward its Gaussian's saddle, sigma_j = theta (lambda_j - 1)/2,
    theta = _CONTOUR_SHIFT, crossing no pole (Borodin & Corwin, §6).

    The Bose-gas exponent of part p is then -(T p/2) t^2 plus
    i (1 - theta)(T p(p-1)/2) t plus a constant: the Gaussian-Cauchy
    integral of :func:`gaussian_cauchy_factors` with s = T lambda/2,
    alpha = sigma, beta = lambda - sigma and a phase, hence cancellation,
    cut by 1 - theta.  A part that is not positive makes sigma_jj =
    lambda_j <= 0: DomainError.  A refused tensor sum raises with the
    partition and T in front.
    """
    lamv = np.asarray(parts, dtype=float)
    sigma = _CONTOUR_SHIFT * (lamv - 1) / 2.0
    log_const = float(np.sum((T / 2.0) * (lamv * (lamv - 1) * (2 * lamv - 1) / 6.0
                                          + lamv * sigma ** 2 - lamv * (lamv - 1) * sigma)))
    const = checked_exp(f"partition {parts} at T = {T}: its prefactor", log_const)
    rules, integrand = gaussian_cauchy_factors(
        T * lamv / 2.0, sigma, lamv - sigma,
        (1.0 - _CONTOUR_SHIFT) * T * lamv * (lamv - 1) / 2.0, nodes_per_axis)
    # t -> -t conjugates the integrand and the trapezoid nodes are symmetric,
    # so the sum is real; the tensor driver returns its real part
    try:
        total = tensor_integrate(integrand, rules)
    except NumericalConsistencyError as exc:
        raise NumericalConsistencyError(f"partition {parts} at T = {T}: {exc}") from exc
    return total * const / (2.0 * math.pi) ** len(parts)


def kpz_moment(k: int, T: float, nodes_per_axis: int | None = None) -> float:
    """exp(kT/24) E[Z(T,0)^k / k!], via the partition-expanded contour
    formula; directly comparable with airy_h_moment(k, C=(T/2)^(1/3)).

    Supported on integer 1 <= k <= 4; other k raise ConfigurationError,
    and a T that ModelParams refuses raises its DomainError.  The moment
    is analytically positive; a sum that is not positive has been lost to
    cancellation and raises NumericalConsistencyError.
    """
    check_order("kpz_moment", k)
    ModelParams.from_T(T, 0.0)
    norm = checked_exp(f"kpz_moment({k}, {T}): its normalization", k * T / 24.0)
    total = 0.0
    for lam in partitions(k):
        total += _partition_term(lam, T, nodes_per_axis) / symmetry_factor(lam)
    return check_positive(f"kpz_moment({k}, {T})", norm * total)


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
        # kpz_laplace's x_max < (22 + log+ u)/C, so this C keeps hi < 60
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
    """kpz_laplace at this C for each u of ``us``, from one K_u Airy matrix:
    each entry is the value, or the error that refuses that u.

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


def kpz_laplace(params: ModelParams, nodes: int = FREDHOLM_NODES) -> float:
    """E exp(-u Z(T,0) e^{T/24}) as the Fredholm determinant of K_u on
    [0, inf), on ``nodes`` Gauss-Legendre nodes; equals the Airy-side
    multiplicative statistic at C = (T/2)^(1/3).  The one-u case of
    :func:`kpz_laplaces`, on u's own grid.  A C too small for the kernel
    rule's Airy range raises DomainError, a visibly truncated K_u
    NumericalConsistencyError.
    """
    return value(kpz_laplaces(params.C, [params.u], nodes)[0])
