"""Airy point process side: correlation kernel, Laplace-transformed
correlation functions, cycle integrals, multiplicative statistics, moments
of h_k, and the Tracy-Widom distribution F2.

The Airy point process is the determinantal process on the real line with
kernel K(x, y) = (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y).  Everything here is
a deterministic quadrature computation; the Monte Carlo counterpart lives
in :mod:`airykpz.montecarlo` and the KPZ counterpart in
:mod:`airykpz.kpz_side`.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalConsistencyError
from .params import ModelParams
from .quadrature import (QuadratureRule, cauchy_det, composite_legendre,
                         fredholm_det_matrix, hermite_axis_count, legendre_on,
                         scaled_gauss_hermite, tensor_integrate)
from .specfun import airy_both, logistic

__all__ = [
    "KERNEL_RANGE", "airy_kernel_matrix", "kernel_integral_form",
    "okounkov_integral", "okounkov_quadrature", "laplace_R", "cycle_E",
    "airy_h_moment", "airy_mult_stat", "default_mult_stat_grid", "tracy_widom_f2",
    "default_f2_grid",
]

KERNEL_RANGE = 50.0
_CONFLUENT_EPS = 1e-5     # |x - y| below which the confluent diagonal form is used


# ----------------------------------------------------------------------
# correlation kernel

def airy_kernel_matrix(points: np.ndarray) -> np.ndarray:
    """Kernel matrix K(x_i, x_j) on a grid, one Airy evaluation per node.

    Christoffel-Darboux ratio form; pairs with |x_i - x_j| <= 1e-5 (the
    diagonal among them) use the confluent limit at the midpoint m:
    Ai'(m)^2 - m Ai(m)^2.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size and np.max(np.abs(pts)) > KERNEL_RANGE:
        raise DomainError(f"grid exceeds the kernel range |x| <= {KERNEL_RANGE:g}")
    ai, aip = airy_both(pts)
    d = pts[:, None] - pts[None, :]
    num = ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kmat = num / d
    # diagonal (and any accidental near-coincident pair) via the confluent form
    near = np.abs(d) <= _CONFLUENT_EPS
    if np.any(near):
        m = 0.5 * (pts[:, None] + pts[None, :])
        am, apm = airy_both(m[near])
        kmat[near] = apm ** 2 - m[near] * am ** 2
    return kmat


def kernel_integral_form(x: float, y: float, rule: QuadratureRule | None = None) -> float:
    """The kernel through its half-line integral of Ai(x+a)Ai(y+a).

    Independent of :func:`airy_kernel_matrix`; agrees with it to ~1e-9 on
    [-10, 10]^2.  The default rule truncates [0, inf) where the Airy
    decay has killed the integrand and resolves the oscillation that a
    negative min(x, y) brings in.
    """
    if max(abs(x), abs(y)) > KERNEL_RANGE:
        raise DomainError(f"kernel arguments must satisfy |x|, |y| <= {KERNEL_RANGE:g}")
    if rule is None:
        upper = 16.0 - min(x, y, 0.0)
        rule = composite_legendre(0.0, upper, int(math.ceil(upper)), 10)
    if np.min(rule.nodes) < 0:
        raise DomainError("kernel_integral_form requires a rule on the half line a >= 0")
    a = rule.nodes
    fx, _ = airy_both(x + a)
    fy, _ = airy_both(y + a)
    return float(np.sum(rule.weights * (fx * fy)))


# ----------------------------------------------------------------------
# Laplace-transform building blocks

def okounkov_integral(x: float, a: float, b: float) -> float:
    """Closed form of the two-sided Laplace transform of Ai(z+a)Ai(z+b).

    Equals (1/(2 sqrt(pi x))) exp(x^3/12 - (a+b)x/2 - (a-b)^2/(4x)) for
    x > 0; symmetric in (a, b).
    """
    if not x > 0:
        raise DomainError("okounkov_integral requires x > 0")
    return float(np.exp(x ** 3 / 12.0 - 0.5 * (a + b) * x - (a - b) ** 2 / (4.0 * x))
                 / (2.0 * np.sqrt(np.pi * x)))


def okounkov_quadrature(x: float, a: float, b: float,
                        rule: QuadratureRule | None = None) -> float:
    """Direct quadrature of exp(xz) Ai(z+a) Ai(z+b) dz over the real line.

    Test-mode companion of :func:`okounkov_integral`.
    """
    if not x > 0:
        raise DomainError("okounkov_quadrature requires x > 0")
    if rule is None:
        # left tail decays like e^{xz}, right tail superexponentially; the
        # integrand's exponent peaks near z = x^2/4.  Clamp to the Airy
        # support: beyond it the e^{xz} factor has long killed the tail.
        lo = max(-(30.0 / x + 10.0) + min(a, b, 0.0),
                 -59.5 - min(a, b, 0.0))
        hi = x * x / 4.0 + 18.0 - min(a, b, 0.0)
        rule = composite_legendre(lo, hi, int(math.ceil((hi - lo) / 2.0)), 14)
    z = rule.nodes
    fa, _ = airy_both(z + a)
    fb, _ = airy_both(z + b)
    return float(np.sum(rule.weights * np.exp(x * z) * fa * fb))


def _require_positive_c(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise DomainError("need a nonempty vector of Laplace exponents")
    if np.any(c <= 0):
        raise DomainError("Laplace exponents must be strictly positive")
    if np.any(c > 20.0):
        raise DomainError("Laplace exponent above 20: exp(c^3/12) overflows "
                          "double precision")
    if c.size > 5:
        raise ConfigurationError("at most 5 Laplace exponents are supported")
    return c


def laplace_R(c: Sequence[float], nodes_per_axis: int | None = None) -> float:
    """Laplace transform of the n-point correlation function.

    Evaluates
        exp(sum c_i^3/12)/(2 pi)^n * int exp(-sum c_i z_i^2)
            det[1/((-i z_i + c_i/2) + (i z_j + c_j/2))] dz
    with per-axis Gauss-Hermite scaled by 1/sqrt(c_i) and the determinant
    in its Cauchy product form.  The matrix 1/(a_i + b_j) is the Gram
    matrix of the functions exp(-s(c_i/2 - i z_i)) on s > 0, so its
    determinant is real and non-negative at every node; the integrand is
    its real part.  n = 1 has no interaction pole and gets the floor order.

    The value is symmetric in ``c`` (the correlation function is symmetric
    in its arguments): ``c`` is sorted in descending order, and the axes of
    equal exponents are summed as one symmetric block.
    """
    c = np.sort(_require_positive_c(c))[::-1]
    n = c.size
    if nodes_per_axis is None:
        d_min = min((math.sqrt(c[i]) * (c[i] + c[j]) / 2.0
                     for i in range(n) for j in range(n) if i != j), default=math.inf)
        nodes_per_axis = hermite_axis_count(d_min, n)
    rules = [scaled_gauss_hermite(ci, nodes_per_axis) for ci in c]

    blocks = [len(list(run)) for _, run in itertools.groupby(c)]

    def integrand(*zs):
        z = np.array(zs)
        half_c = (c / 2.0).reshape((n,) + (1,) * (z.ndim - 1))
        return cauchy_det(-1j * z + half_c, 1j * z + half_c).real

    pref = math.exp(np.sum(c ** 3) / 12.0) / (2.0 * math.pi) ** n
    return pref * tensor_integrate(integrand, rules, blocks)


def cycle_E(c: Sequence[float], nodes_per_axis: int | None = None) -> float:
    """Cyclic integral: the single-cycle building block of laplace_R.

    exp(sum c_i^3/12)/(2 pi)^n * int exp(-sum c_i z_i^2)
        prod_i 1/(-i (z_i - z_{i+1}) + (c_i + c_{i+1})/2) dz,
    with the cyclic convention z_{n+1} = z_1.  z -> -z conjugates the
    integrand and the Hermite nodes are symmetric, so only its real part
    survives the sum; the integrand returns that.
    """
    c = _require_positive_c(c)
    n = c.size
    if n > 4:
        raise ConfigurationError("cycle_E supports at most 4 exponents")
    if nodes_per_axis is None:
        # factor (i, i + 1) has a pole along both of its axes; for n = 1 the
        # single factor is the constant 1/c_1
        pairs = [(i, (i + 1) % n) for i in range(n)] if n > 1 else []
        d_min = min((math.sqrt(c[m]) * (c[i] + c[j]) / 2.0
                     for i, j in pairs for m in (i, j)), default=math.inf)
        nodes_per_axis = hermite_axis_count(d_min, n)
    rules = [scaled_gauss_hermite(ci, nodes_per_axis) for ci in c]

    def integrand(*zs):
        val = None
        for i in range(n):
            j = (i + 1) % n
            term = 1.0 / (-1j * (zs[i] - zs[j]) + (c[i] + c[j]) / 2.0)
            val = term if val is None else val * term
        return val.real

    pref = math.exp(np.sum(c ** 3) / 12.0) / (2.0 * math.pi) ** n
    return pref * tensor_integrate(integrand, rules)


def airy_h_moment(k: int, C: float, nodes_per_axis: int | None = None) -> float:
    """Expectation of h_k over exp(C a_1), exp(C a_2), ... via the
    partition expansion: sum over partitions of k of
    laplace_R(C lambda) / prod(multiplicity factorials).

    The moment is analytically positive; a sum that is not positive has
    been lost to cancellation and raises NumericalConsistencyError."""
    from .kpz_side import partitions, symmetry_factor

    if not 1 <= k <= 5:
        raise ConfigurationError("airy_h_moment supports 1 <= k <= 5")
    if not C > 0:
        raise DomainError("airy_h_moment requires C > 0")
    total = 0.0
    for lam in partitions(k):
        c = [C * p for p in lam.parts]
        total += laplace_R(c, nodes_per_axis) / symmetry_factor(lam)
    if not total > 0:
        raise NumericalConsistencyError(
            f"airy_h_moment({k}, {C}) = {total!r} is not positive")
    return total


# ----------------------------------------------------------------------
# multiplicative statistics and the Tracy-Widom law

def default_mult_stat_grid(params: ModelParams, n: int = 80) -> QuadratureRule:
    """Two-sided truncation for the weighted-kernel determinant.

    The weight dies like u e^{C r} to the left (shifted by log u for
    u > 1), the kernel superexponentially to the right.
    """
    left = -(16.0 + math.log(max(params.u, 1.0))) / params.C - 4.0
    return legendre_on(left, 12.0, n)


def airy_mult_stat(params: ModelParams, grid: QuadratureRule | None = None) -> float:
    """E prod_k 1/(1 + u exp(C a_k)) as a Fredholm determinant.

    Discretizes det(1 - sqrt(f) K sqrt(f)) with f(r) = 1/(1 + u^{-1} e^{-Cr});
    the symmetrized split leaves the determinant unchanged and keeps the
    matrix symmetric.  u = 0 gives exactly 1.
    """
    if params.u == 0:
        return 1.0
    if grid is None:
        grid = default_mult_stat_grid(params)
    kmat = airy_kernel_matrix(grid.nodes)
    f = logistic(params.C * grid.nodes + math.log(params.u))
    val = fredholm_det_matrix(kmat, grid.weights * f)
    if not 0.0 < val <= 1.0 + 1e-10:
        raise NumericalConsistencyError(
            f"multiplicative statistic {val!r} outside (0, 1]")
    return min(val, 1.0)


def default_f2_grid(s: float, n: int = 80) -> QuadratureRule:
    return legendre_on(s, s + 24.0, n)


def tracy_widom_f2(s: float, grid: QuadratureRule | None = None) -> float:
    """GUE Tracy-Widom distribution F2(s) = det(1 - K) on [s, inf)."""
    if not -10.0 <= s <= 6.0:
        raise DomainError("tracy_widom_f2 supports s in [-10, 6]")
    if grid is None:
        grid = default_f2_grid(s)
    kmat = airy_kernel_matrix(grid.nodes)
    val = fredholm_det_matrix(kmat, grid.weights)
    if not 0.0 < val < 1.0:
        raise NumericalConsistencyError(f"F2({s}) = {val!r} outside (0, 1)")
    return val
