import itertools
import math

import numpy as np
import pytest

from airykpz.airy_side import (airy_h_moment, airy_kernel_matrix,
                               airy_mult_stat, cycle_E, default_mult_stat_grid,
                               kernel_integral_form, laplace_R, okounkov_integral,
                               okounkov_quadrature, tracy_widom_f2)
from airykpz.errors import ConfigurationError, DomainError, SingularityError
from airykpz.params import ModelParams
from airykpz.quadrature import (cauchy_det, cauchy_det_direct, composite_legendre,
                                scaled_gauss_hermite, tensor_integrate)
from airykpz.specfun import airy_both

AIP0_SQ = 0.06698748377966397414  # Ai'(0)^2, 30-digit evaluation
R1 = 0.3066099715278760013815    # e^(1/12)/(2 sqrt(pi))


def closed_R1(c):
    return math.exp(c ** 3 / 12.0) / (2.0 * math.sqrt(math.pi) * c ** 1.5)


# ----------------------------------------------------------------------
# kernel

def kernel_pair(x, y):
    return airy_kernel_matrix([x, y])[0, 1]


def test_kernel_diagonal_confluent_value():
    assert np.diag(airy_kernel_matrix([0.0])) == pytest.approx([AIP0_SQ], rel=1e-12)


def test_kernel_symmetry_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x, y = rng.uniform(-12, 8, size=2)
        assert kernel_pair(x, y) == pytest.approx(kernel_pair(y, x), rel=1e-13, abs=1e-15)


def test_kernel_matches_integral_form_pointwise():
    assert kernel_pair(1.0, 2.0) == pytest.approx(kernel_integral_form(1.0, 2.0), abs=1e-9)
    assert kernel_integral_form(0.0, 0.0) == pytest.approx(AIP0_SQ, abs=1e-10)
    k55 = kernel_integral_form(5.0, 5.0)
    assert 0 < k55 < 1e-5


def test_kernel_integral_form_symmetric_by_construction():
    assert kernel_integral_form(-3.2, 1.7) == kernel_integral_form(1.7, -3.2)


def test_kernel_representation_agreement_grid():
    # max over a 21x21 grid on [-8, 8]^2 of |ratio form - integral form| <= 1e-8
    xs = np.linspace(-8.0, 8.0, 21)
    rule = composite_legendre(0.0, 26.0, 26, 10)
    ai_xa, _ = airy_both(xs[:, None] + rule.nodes[None, :])
    integral = (ai_xa * rule.weights[None, :]) @ ai_xa.T
    ratio = airy_kernel_matrix(xs)
    assert np.max(np.abs(ratio - integral)) <= 1e-8


def test_kernel_near_diagonal_continuity():
    # confluent branch joins the ratio branch smoothly across |x-y| = 1e-5
    x = -1.3
    below = kernel_pair(x, x + 0.9999e-5)   # confluent side
    above = kernel_pair(x, x + 1.0001e-5)   # ratio side
    assert below == pytest.approx(above, abs=1e-8)


def test_kernel_domain_error():
    with pytest.raises(DomainError):
        kernel_pair(50.5, 0.0)
    with pytest.raises(DomainError):
        kernel_integral_form(0.0, -51.0)


# ----------------------------------------------------------------------
# Laplace transform of Ai-products and the Cauchy determinant

def test_okounkov_closed_form_value():
    assert okounkov_integral(1.0, 0.0, 0.0) == pytest.approx(R1, rel=1e-13)


def test_okounkov_symmetry_in_ab():
    assert okounkov_integral(1.3, 0.7, -0.4) == okounkov_integral(1.3, -0.4, 0.7)


def test_okounkov_against_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(0.5, 2.0)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        closed = okounkov_integral(x, a, b)
        quad = okounkov_quadrature(x, a, b)
        assert quad == pytest.approx(closed, rel=1e-8, abs=1e-10)


def test_okounkov_domain_error():
    with pytest.raises(DomainError):
        okounkov_integral(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        okounkov_quadrature(-1.0, 0.0, 0.0)


def test_cauchy_det_n1():
    assert cauchy_det([2.0 + 1j], [1.0 - 0.5j]) == pytest.approx(1.0 / (3.0 + 0.5j))


def test_cauchy_det_hermitian_positive():
    a = np.array([0.5, 1.1, 2.3])
    val = cauchy_det(a, a)
    assert abs(val.imag) < 1e-15
    assert val.real > 0


def test_cauchy_det_random_against_direct():
    rng = np.random.default_rng(7)
    done = 0
    while done < 100:
        n = rng.integers(1, 6)
        a = rng.uniform(0.3, 2.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        b = rng.uniform(0.3, 2.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        # skip draws whose determinant is too ill-conditioned for the
        # double-precision oracle to carry 10 digits
        amp = 1.0
        for i in range(int(n)):
            for j in range(i + 1, int(n)):
                amp *= (abs(a[i] + b[j]) * abs(a[j] + b[i])
                        / (abs(a[i] - a[j]) * abs(b[i] - b[j])))
        if amp > 1e4:
            continue
        prod = cauchy_det(a, b)
        direct = cauchy_det_direct(a, b)
        assert abs(prod - direct) <= 1e-10 * abs(direct)
        done += 1
    # broadcast grids: entries along the first axis, one determinant per point
    a = np.array([0.9 + 0.2j, 1.4 - 0.3j, 0.6])[:, None, None] + 0.4j * rng.normal(size=(3, 4, 5))
    b = np.array([1.1, 0.7 + 0.1j, 1.6 - 0.2j])[:, None, None] + 0.4j * rng.normal(size=(3, 1, 5))
    grid = cauchy_det(a, b)
    assert grid.shape == (4, 5)
    for idx in np.ndindex(4, 5):
        direct = cauchy_det_direct(a[(slice(None),) + idx], b[:, 0, idx[1]])
        assert abs(grid[idx] - direct) <= 1e-12 * abs(direct)


def test_cauchy_det_singularity_reported():
    with pytest.raises(SingularityError) as err:
        cauchy_det([1.0, 2.0], [3.0, -2.0 + 1e-14j])
    assert err.value.indices == (1, 1)


# ----------------------------------------------------------------------
# laplace_R / cycle_E

@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_laplace_R_n1_closed_form(c):
    assert abs(laplace_R([c]) - closed_R1(c)) <= 1e-9 * closed_R1(c)


def test_laplace_R_value_R1():
    assert laplace_R([1.0]) == pytest.approx(R1, rel=1e-12)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_laplace_R_n1_definitional(c):
    # independent oracle: quadrature of exp(cx) K(x, x) dx
    L = min(26.0 / c + 14.0, 48.0)
    rule = composite_legendre(-L, 12.0, int(math.ceil(L + 12)), 10)
    x = rule.nodes
    kxx = np.diag(airy_kernel_matrix(x))
    oracle = float(np.sum(rule.weights * np.exp(c * x) * kxx))
    assert laplace_R([c]) == pytest.approx(oracle, abs=1e-8)


def test_laplace_R_n2_definitional():
    # 2-fold quadrature of exp(c.x) det[K(x_i, x_j)]
    c1, c2 = 1.0, 2.0
    L = 40.0
    rule = composite_legendre(-L, 12.0, int(L + 12), 10)
    x = rule.nodes
    kmat = airy_kernel_matrix(x)
    diag = np.diag(kmat)
    det_grid = np.outer(diag, diag) - kmat ** 2
    w1 = rule.weights * np.exp(c1 * x)
    w2 = rule.weights * np.exp(c2 * x)
    oracle = float(w1 @ det_grid @ w2)
    assert laplace_R([c1, c2]) == pytest.approx(oracle, abs=1e-6)


def test_laplace_R_product_vs_direct_determinant():
    # the same Gaussian integral with the determinant by pivoted elimination
    for c in (np.array([0.9, 1.4]), np.array([1.0, 0.8, 1.3])):
        def direct(*zs):
            z = np.stack(zs, axis=-1)
            a, b = -1j * z + c / 2.0, 1j * z + c / 2.0
            return np.linalg.det(1.0 / (a[..., :, None] + b[..., None, :])).real

        rules = [scaled_gauss_hermite(ci, 64) for ci in c]
        pref = math.exp(np.sum(c ** 3) / 12.0) / (2.0 * math.pi) ** c.size
        oracle = pref * tensor_integrate(direct, rules)
        assert laplace_R(c, nodes_per_axis=64) == pytest.approx(oracle, rel=1e-11)


def test_laplace_R_integrand_real_and_positive():
    # det[1/(a_i + b_j)] with a_i = c_i/2 - i z_i, b_j = conj(a_j) is a Gram
    # determinant, so laplace_R may integrate its real part alone
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        c = rng.uniform(0.3, 2.0, n).reshape((n, 1))
        z = rng.normal(0.0, 3.0, (n, 500))
        val = cauchy_det(-1j * z + c / 2.0, 1j * z + c / 2.0)
        assert np.all(val.real > 0)
        assert np.all(np.abs(val.imag) <= 1e-14 * val.real)


def test_laplace_R_order_symmetry():
    # the determinant structure makes R symmetric in the exponents
    assert laplace_R([0.9, 1.7]) == pytest.approx(laplace_R([1.7, 0.9]), rel=1e-10)


def test_laplace_R_validation():
    with pytest.raises(DomainError):
        laplace_R([1.0, -0.5])
    with pytest.raises(DomainError):
        laplace_R([])
    with pytest.raises(ConfigurationError):
        laplace_R([1.0] * 6)


def test_cycle_E_n1_equals_R():
    for c in (0.7, 1.0, 1.8):
        assert cycle_E([c]) == pytest.approx(laplace_R([c]), rel=1e-12)


def test_cycle_E_rotation_invariance():
    c = (1.1, 0.9, 1.4)
    v = cycle_E(c)
    assert cycle_E((0.9, 1.4, 1.1)) == pytest.approx(v, rel=1e-9)
    cc = (1.2, 1.2)
    assert cycle_E(cc) == pytest.approx(cycle_E(cc[::-1]), rel=1e-12)


def _cycles(perm):
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen:
            continue
        cur, j = [start], perm[start]
        seen.add(start)
        while j != start:
            cur.append(j)
            seen.add(j)
            j = perm[j]
        cycles.append(cur)
    return cycles


def _perm_expansion(c):
    n = len(c)
    total = 0.0
    for perm in itertools.permutations(range(n)):
        cycles = _cycles(perm)
        sign = (-1) ** (n - len(cycles))
        prod = 1.0
        for cyc in cycles:
            prod *= cycle_E([c[i] for i in cyc])
        total += sign * prod
    return total


def test_permutation_expansion_n2():
    c = [1.1, 0.9]
    assert _perm_expansion(c) == pytest.approx(laplace_R(c), abs=1e-9)


def test_permutation_expansion_n3():
    c = [1.2, 0.9, 1.5]
    assert _perm_expansion(c) == pytest.approx(laplace_R(c), abs=1e-8)


def test_laplace_R_node_doubling_self_convergence():
    v96 = laplace_R([0.9, 1.3], nodes_per_axis=96)
    v192 = laplace_R([0.9, 1.3], nodes_per_axis=192)
    assert abs(v96 - v192) < 1e-9


# ----------------------------------------------------------------------
# h_k moments

def test_airy_h_moment_k1_is_R():
    for C in (0.6, 1.0, 1.4):
        assert airy_h_moment(1, C) == pytest.approx(laplace_R([C]), rel=1e-12)


def test_airy_h_moment_k2_composition():
    C = 1.0
    expect = laplace_R([2 * C]) + laplace_R([C, C]) / 2.0
    assert airy_h_moment(2, C) == pytest.approx(expect, rel=1e-10)


def test_airy_h_moment_validation():
    with pytest.raises(ConfigurationError):
        airy_h_moment(0, 1.0)
    with pytest.raises(ConfigurationError):
        airy_h_moment(6, 1.0)
    with pytest.raises(DomainError):
        airy_h_moment(1, -1.0)


# ----------------------------------------------------------------------
# multiplicative statistic and F2

def test_mult_stat_u0_is_one():
    assert airy_mult_stat(ModelParams.from_C(1.0, 0.0)) == 1.0


def test_mult_stat_monotone_in_u():
    C = 1.0
    vals = [airy_mult_stat(ModelParams.from_C(C, u)) for u in (0.0, 0.1, 1.0, 5.0, 20.0)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_mult_stat_grid_doubling():
    p = ModelParams.from_C(0.8, 10.0)
    v80 = airy_mult_stat(p, default_mult_stat_grid(p, 80))
    v160 = airy_mult_stat(p, default_mult_stat_grid(p, 160))
    assert abs(v80 - v160) < 1e-7


def test_tracy_widom_f2_monotone():
    vals = [tracy_widom_f2(s) for s in (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_tracy_widom_f2_tails():
    assert abs(tracy_widom_f2(6.0) - 1.0) < 1e-6
    assert 0.0 < tracy_widom_f2(-10.0) < 1e-3


def test_tracy_widom_f2_known_value():
    # F2(0) from the same determinant at doubled resolution (self-converged)
    from airykpz.airy_side import default_f2_grid
    v = tracy_widom_f2(0.0)
    v2 = tracy_widom_f2(0.0, default_f2_grid(0.0, 160))
    assert abs(v - v2) < 1e-10
    assert v == pytest.approx(0.969372828355, abs=1e-9)


def test_tracy_widom_f2_domain():
    with pytest.raises(DomainError):
        tracy_widom_f2(-10.5)
    with pytest.raises(DomainError):
        tracy_widom_f2(6.5)
