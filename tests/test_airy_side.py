import math
import re

import numpy as np
import pytest

from airykpz import airy_side
from airykpz import quadrature
from airykpz.airy_side import (airy_h_moment, airy_h_moments, airy_kernel_matrix,
                               airy_mult_stat, laplace_R, tracy_widom_f2)
from airykpz.errors import ConfigurationError, DomainError, NumericalConsistencyError
from airykpz.params import ModelParams
from airykpz.quadrature import composite_legendre, gaussian_cauchy_factors
from airykpz.specfun import airy_both

from pointwise import (airy_kernel_two_outer, cauchy_det_direct, cauchy_factors, factor_grid,
                       gaussian_cauchy_integral,
                       half_line_kernel, log_det_series_by_compositions, log_det_series_of,
                       log_det_series_transposed, okounkov_equal_R, okounkov_h_moments,
                       okounkov_integral, pointwise_sum)

AIP0_SQ = 0.06698748377966397414  # Ai'(0)^2, 30-digit evaluation
R1 = 0.3066099715278760013815    # e^(1/12)/(2 sqrt(pi))


def closed_R1(c):
    return math.exp(c ** 3 / 12.0) / (2.0 * math.sqrt(math.pi) * c ** 1.5)


def closed_h2(C):
    # E h_2 in closed form; the formula of test_kpz_side.py::test_moment_k2_closed_form
    T = 2.0 * C ** 3
    g = math.sqrt(math.pi / T) * math.exp(T / 4.0) / (4.0 * math.pi)
    return math.exp(T / 12.0) * (
        (1.0 / (2.0 * math.pi * T) - g * math.erfc(math.sqrt(T) / 2.0)) / 2.0 + g)


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
    # for x, y >= 0 the integrand is below 1e-38 past a = 16
    rule = composite_legendre(0.0, 16.0, 16, 10)
    assert kernel_pair(1.0, 2.0) == pytest.approx(half_line_kernel(1.0, 2.0, rule)[0, 0],
                                                  abs=1e-9)
    assert half_line_kernel(0.0, 0.0, rule)[0, 0] == pytest.approx(AIP0_SQ, abs=1e-10)
    k55 = half_line_kernel(5.0, 5.0, rule)[0, 0]
    assert 0 < k55 < 1e-5


def test_kernel_representation_agreement_grid():
    # max over a 21x21 grid on [-8, 8]^2 of |ratio form - integral form| <= 1e-8
    xs = np.linspace(-8.0, 8.0, 21)
    integral = half_line_kernel(xs, xs, composite_legendre(0.0, 26.0, 26, 10))
    ratio = airy_kernel_matrix(xs)
    assert np.max(np.abs(ratio - integral)) <= 1e-8


def test_kernel_near_diagonal_continuity():
    # confluent branch joins the ratio branch smoothly across |x-y| = 1e-5
    x = -1.3
    below = kernel_pair(x, x + 0.9999e-5)   # confluent side
    above = kernel_pair(x, x + 1.0001e-5)   # ratio side
    assert below == pytest.approx(above, abs=1e-8)


def test_kernel_confluent_pair_found_in_any_order():
    # the pair (1, 3) is confluent but not adjacent in input order; both of
    # its entries take the limit at the midpoint, the rest the ratio form
    pts = np.array([3.0, -1.3, 0.5, -1.3 + 5e-6])
    kmat = airy_kernel_matrix(pts)
    m = 0.5 * (pts[1] + pts[3])
    am, apm = airy_both(m)
    assert kmat[1, 3] == kmat[3, 1] == apm ** 2 - m * am ** 2
    ratio = airy_kernel_two_outer(pts)
    far = ~np.eye(4, dtype=bool)
    far[1, 3] = far[3, 1] = False
    assert np.array_equal(kmat[far], ratio[far])


def test_kernel_matrix_is_the_two_outer_products_bitwise(monkeypatch):
    # on the grid of airy_h_moment(3, 0.6), 330 nodes and no confluent pair
    grids = []
    monkeypatch.setattr(airy_side, "composite_legendre",
                        lambda *args: grids.append(composite_legendre(*args)) or grids[-1])
    airy_h_moment(3, 0.6)
    [nodes] = [rule.nodes for rule in grids]
    assert nodes.size == 330
    assert airy_kernel_matrix(nodes).tobytes() == airy_kernel_two_outer(nodes).tobytes()


def test_kernel_domain_error():
    # the range is airy_both's; the kernel matrix has no check of its own
    for points in ([60.5, 0.0], [0.0, -60.5]):
        with pytest.raises(DomainError, match="airy argument outside"):
            airy_kernel_matrix(points)


# ----------------------------------------------------------------------
# Laplace transform of Ai-products and the Cauchy determinant

def test_okounkov_closed_form_value():
    assert okounkov_integral(1.0, 0.0, 0.0) == pytest.approx(R1, rel=1e-13)


def test_okounkov_symmetry_in_ab():
    assert okounkov_integral(1.3, 0.7, -0.4) == okounkov_integral(1.3, -0.4, 0.7)


def test_okounkov_against_quadrature():
    # direct quadrature of exp(xz) Ai(z+a) Ai(z+b) over z; for x in [0.5, 2]
    # and |a|, |b| <= 2 the integrand is below 1e-12 outside [-58, 19]
    rule = composite_legendre(-58.0, 19.0, 39, 14)
    z = rule.nodes
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(0.5, 2.0)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        closed = okounkov_integral(x, a, b)
        quad = float(np.sum(rule.weights * np.exp(x * z) * airy_both(z + a)[0]
                            * airy_both(z + b)[0]))
        assert quad == pytest.approx(closed, rel=1e-8, abs=1e-10)


def test_okounkov_domain_error():
    with pytest.raises(DomainError):
        okounkov_integral(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        okounkov_integral(-1.0, 0.0, 0.0)


# ----------------------------------------------------------------------
# the Cauchy factors of the partition expansion's reference integral
# (pointwise.gaussian_cauchy_integral): at x they multiply to
# det[1/(a_i + b_j)], a_i = alpha_i - i x_i, b_j = beta_j + i x_j.  At
# alpha = beta they are laplace_R's gaussian_cauchy_factors

def det_value(alpha, beta, x):
    """The determinant at the single point x, as the product of the factors."""
    return factor_grid(*cauchy_factors(alpha, beta, x)).item()


def test_cauchy_det_n1():
    # a_0 + b_0 = alpha_0 + beta_0 at every x: one real factor
    axis, pairs = cauchy_factors([2.0], [1.0], [0.7])
    assert axis[0].dtype == np.float64 and pairs == {}
    assert det_value([2.0], [1.0], [0.7]) == 1.0 / 3.0


def test_cauchy_det_hermitian_positive():
    # alpha = beta makes b = conj(a), a Gram determinant: real tables >= 0
    a = np.array([0.5, 1.1, 2.3])
    axis, pairs = cauchy_factors(a, a, [0.4, -1.3, 2.2])
    assert all(t.dtype == np.float64 and np.all(t >= 0) for t in [*axis, *pairs.values()])
    # laplace_R's factors are the same tables, bit for bit
    own_axis, own_pairs = gaussian_cauchy_factors(np.ones(3), a, 1)[1](
        *(np.atleast_1d(x) for x in (0.4, -1.3, 2.2)))
    assert all(np.array_equal(x, y) for x, y in zip(axis, own_axis))
    assert pairs.keys() == own_pairs.keys()
    assert all(np.array_equal(pairs[k], own_pairs[k]) for k in pairs)
    val = det_value(a, a, [0.4, -1.3, 2.2])
    assert val.real > 0 and val.imag == 0
    direct = cauchy_det_direct(a - 1j * np.array([0.4, -1.3, 2.2]),
                               a + 1j * np.array([0.4, -1.3, 2.2]))
    assert abs(val - direct) <= 1e-12 * abs(direct)


def test_cauchy_det_random_against_direct():
    rng = np.random.default_rng(7)
    done = 0
    while done < 100:
        n = rng.integers(1, 6)
        alpha, beta = rng.uniform(0.3, 2.0, n), rng.uniform(0.3, 2.0, n)
        x = rng.uniform(-1.0, 1.0, n)
        a, b = alpha - 1j * x, beta + 1j * x
        # skip draws whose determinant is too ill-conditioned for the
        # double-precision oracle to carry 10 digits
        amp = 1.0
        for i in range(int(n)):
            for j in range(i + 1, int(n)):
                amp *= (abs(a[i] + b[j]) * abs(a[j] + b[i])
                        / (abs(a[i] - a[j]) * abs(b[i] - b[j])))
        if amp > 1e4:
            continue
        prod = det_value(alpha, beta, x)
        direct = cauchy_det_direct(a, b)
        assert abs(prod - direct) <= 1e-10 * abs(direct)
        done += 1
    # tensor grids: entry i holds axis i's nodes, one determinant per grid point
    alpha, beta = np.array([0.9, 1.4, 0.6]), np.array([1.1, 0.7, 1.6])
    x = [0.4 * rng.normal(size=m) for m in (4, 5, 3)]
    axis, pairs = cauchy_factors(alpha, beta, x)
    assert [d.shape for d in axis] == [(4,), (5,), (3,)]
    assert {k: t.shape for k, t in pairs.items()} == {(0, 1): (4, 5), (0, 2): (4, 3),
                                                      (1, 2): (5, 3)}
    grid = factor_grid(axis, pairs)
    for idx in np.ndindex(4, 5, 3):
        xs = np.array([t[i] for t, i in zip(x, idx)])
        direct = cauchy_det_direct(alpha - 1j * xs, beta + 1j * xs)
        assert abs(grid[idx] - direct) <= 1e-12 * abs(direct)


def test_cauchy_det_phases_on_the_axes():
    # e^{i w_i x_i} rides on axis i; a pair with alpha_i - alpha_j != beta_i - beta_j
    # is complex, one with them equal is real
    alpha, beta, w, x = [0.2, 0.5], [1.0, 0.7], [0.0, 3.0], [0.3, -0.8]
    axis, pairs = cauchy_factors(alpha, beta, x, w)
    assert axis[0].dtype == np.float64 and axis[1].dtype == np.complex128
    assert pairs[0, 1].dtype == np.complex128
    a, b = np.array(alpha) - 1j * np.array(x), np.array(beta) + 1j * np.array(x)
    direct = np.exp(3.0j * -0.8) * cauchy_det_direct(a, b)
    assert abs(factor_grid(axis, pairs).item() - direct) <= 1e-14 * abs(direct)
    assert cauchy_factors([0.25, 0.5], [1.0, 1.25], x)[1][0, 1].dtype == np.float64


@pytest.mark.parametrize("alpha, beta, pair", [
    pytest.param([1.0, 2.0], [3.0, -2.0], (0, 1), id="off-diagonal"),
    pytest.param([1.0, 2.0], [-1.0, 3.0], (0, 0), id="diagonal"),
    # the interaction determinant of parts (2, 2) at w = (0, 2): a_i = -w_i,
    # b_j = w_j + 2, so alpha = -Re w and beta = Re w + 2, and entry (1, 0) is 1/0
    pytest.param([0.0, -2.0], [2.0, 4.0], (1, 0), id="interaction"),
])
def test_cauchy_nonpositive_sigma_raises(alpha, beta, pair):
    # alpha_i + beta_j <= 0 lets the pole of entry (i, j) reach the real axes
    with pytest.raises(DomainError, match=rf"pair \({pair[0]}, {pair[1]}\)"):
        gaussian_cauchy_integral([1.0, 1.0], alpha, beta, [0.0, 0.0])


# ----------------------------------------------------------------------
# laplace_R

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
    # the same Gaussian integral, summed point by point over the full grid
    # with the determinant by pivoted elimination
    for c in (np.array([0.9, 1.4]), np.array([1.0, 0.8, 1.3])):
        rules = gaussian_cauchy_factors(c, c / 2.0, 64)[0]
        z = np.stack(np.meshgrid(*(r.nodes for r in rules), indexing="ij"), axis=-1)
        w = math.prod(np.meshgrid(*(r.weights for r in rules), indexing="ij"))
        a, b = -1j * z + c / 2.0, 1j * z + c / 2.0
        det = np.linalg.det(1.0 / (a[..., :, None] + b[..., None, :]))
        pref = math.exp(np.sum(c ** 3) / 12.0) / (2.0 * math.pi) ** c.size
        oracle = pref * float(np.sum(w * det).real)
        assert laplace_R(c, nodes_per_axis=64) == pytest.approx(oracle, rel=1e-11)


def test_laplace_R_integrand_real_and_positive():
    # det[1/(a_i + b_j)] with a_i = c_i/2 - i z_i, b_j = conj(a_j) is a Gram
    # determinant: laplace_R's factors are float64 tables >= 0 from the start
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        c = rng.uniform(0.3, 2.0, n)
        z = [rng.normal(0.0, 3.0, 6) for _ in range(n)]
        axis, pairs = gaussian_cauchy_factors(c, c / 2.0, 1)[1](*z)
        assert all(t.dtype == np.float64 and np.all(t >= 0) for t in [*axis, *pairs.values()])
        val = factor_grid(axis, pairs)
        assert np.all(val.real > 0) and not np.any(val.imag)
        for idx in list(np.ndindex(val.shape))[::97]:
            zs = np.array([t[i] for t, i in zip(z, idx)])
            direct = cauchy_det_direct(c / 2.0 - 1j * zs, c / 2.0 + 1j * zs)
            assert abs(val[idx] - direct) <= 1e-10 * abs(direct)


def test_laplace_R_order_symmetry():
    # the determinant structure makes R symmetric in the exponents; laplace_R
    # sorts them, so any order gives the same bits
    assert laplace_R([0.9, 1.7]) == laplace_R([1.7, 0.9])
    assert (laplace_R([0.6, 1.2, 0.6], nodes_per_axis=64)
            == laplace_R([1.2, 0.6, 0.6], nodes_per_axis=64))


def test_laplace_R_validation():
    with pytest.raises(DomainError):
        laplace_R([1.0, -0.5])
    with pytest.raises(DomainError):
        laplace_R([])
    with pytest.raises(ConfigurationError):
        laplace_R([1.0] * 5)
    # each exponent is <= 20, but exp(sum c^3/12) = exp(843.75) overflows
    with pytest.raises(DomainError, match="overflows double precision"):
        laplace_R([15.0] * 3)
    # the prefactor alone bounds the exponents: exp(20.2^3/12) = exp(686.9)
    # is finite, exp(20.5^3/12) = exp(717.9) is not
    assert closed_R1(20.2) == pytest.approx(laplace_R([20.2]), rel=1e-12)
    with pytest.raises(DomainError, match=r"exp\(717.927\) overflows double precision"):
        laplace_R([20.5])
    # a finite prefactor times the sum can still overflow: e^{707.5}/(2 pi)^2
    # is 4.5e305, and the c = 0.001 axis's sum 1.1e3
    for c in ([20.4, 0.001], [20.42, 0.005]):
        with pytest.raises(DomainError, match=re.escape(f"laplace_R at exponents {c}: its "
                                                        "prefactor") + ".* overflows double"):
            laplace_R(c)
    for c in (math.nan, math.inf):
        with pytest.raises(DomainError, match="is not finite"):
            laplace_R([1.0, c])


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


@pytest.mark.parametrize("c, ell", [
    (0.6, 2), (0.6, 3), (1.0, 2), (1.0, 3),
    # the default 4-d trapezoid rule is capped at 56 nodes per axis where its
    # error target asks 165; 1.51e-7 off an oracle self-converged to 1e-14,
    # and explicit 72 and 100 nodes per axis give 4.9e-9 and 2.1e-11
    pytest.param(0.6, 4, marks=pytest.mark.xfail(
        strict=True, reason="quadrature._AXIS_CAP_4D binds (ROADMAP item 16)")),
])
def test_laplace_R_at_equal_exponents_matches_gaussian_kernels(c, ell):
    # R_l(c, ..., c) = l! e_l(Q_c) with Okounkov's Gaussian kernel Q_c, an
    # oracle independent of the Cauchy integral that both sides of the
    # all-ones partition share (ROADMAP item 3).  Left out: l = 4 at c >= 1
    # and l = 3 at c >= 1.4, where the oracle's alternating sum itself
    # self-converges only to 4.1e-13 and 7.6e-14
    want = okounkov_equal_R(c, ell)[-1]
    assert abs(laplace_R([c] * ell) / want - 1.0) <= 3e-14


@pytest.mark.parametrize("C", [1.0, 1.4, 2.0])
def test_airy_h_moments_match_gaussian_kernels(C):
    # the u-series of det(I - K f_u) against the same determinant on
    # L^2(0, inf) with Okounkov's Gaussian kernels (ROADMAP item 13): no
    # Airy function and no trace table in common; worst 1.4e-14 (C = 2,
    # h_4).  C = 0.6 needs ~900 oracle nodes and stays with item 13
    for got, want in zip(airy_h_moments(4, C), okounkov_h_moments(4, C), strict=True):
        assert abs(got / want - 1.0) <= 3e-14


def test_airy_h_moments_drop_the_orders_past_k_max():
    # the series always takes l_1..l_4, but the grid of k_max < 4 can
    # overflow the traces of higher orders (e^{3Cr} at k_max = 1, C = 12.1);
    # they are dropped without a warning, and the orders kept are finite
    for k_max, C in [(1, 12.1), (2, 6.1), (3, 4.1)]:
        vals = airy_h_moments(k_max, C)
        assert len(vals) == k_max and all(0.0 < v < math.inf for v in vals)
    assert airy_h_moment(1, 12.1) == pytest.approx(closed_R1(12.1), rel=1e-12)


def test_airy_h_moment_contraction_matches_pointwise_sum(monkeypatch):
    # the (1,1,1) term of the partition expansion of E h_3 at C = 0.6, with
    # 64 nodes per axis: laplace_R's contraction against the same factors
    # summed point by point
    fast = laplace_R([0.6] * 3, nodes_per_axis=64)
    dims = []

    def full_grid(f, rules):
        dims.append(len(rules))
        return pointwise_sum(f, rules).real

    monkeypatch.setattr(airy_side, "tensor_integrate", full_grid)
    assert fast == pytest.approx(laplace_R([0.6] * 3, nodes_per_axis=64), rel=1e-13)
    assert dims == [3]


@pytest.mark.parametrize("k, C, order", [(3, 0.6, None), (4, 1.0, 32), (4, 3.0, 96)])
def test_h_series_square_from_displacement(k, C, order, monkeypatch):
    # S^2 from the kernel's displacement structure, not from a Gram product,
    # against the Gram product: the README k = 3 grid at C = 0.6 (330
    # nodes), the benchmark's k = 4 grid at 32 nodes per panel, and C = 3
    # at 96, where the nodes are closest
    square = quadrature.gram
    monkeypatch.setattr(quadrature, "gram", lambda S: pytest.fail("_h_series called gram"))
    seen, table = [], airy_side._chain_traces
    monkeypatch.setattr(airy_side, "_chain_traces",
                        lambda S, S2, g: seen.append((S, S2)) or table(S, S2, g))
    airy_h_moment(k, C, order)
    assert not hasattr(airy_side, "gram")
    [(S, S2)] = seen
    assert np.array_equal(S2, S2.T)
    want = square(S)
    assert np.max(np.abs(S2 - want)) <= 1e-13 * np.max(np.abs(want))


def _traced_chain_traces(monkeypatch):
    """A list that collects the word traces of each ``_h_series`` call, the
    dict that ``quadrature.log_det_moments`` reads l_1, ..., l_4 off."""
    seen, table = [], airy_side._chain_traces
    monkeypatch.setattr(airy_side, "_chain_traces",
                        lambda S, S2, g: seen.append(table(S, S2, g)) or seen[-1])
    return seen


def _compositions_on(K, rule, C, k):
    # the oracle on _h_series's S and g
    g = np.exp(C * rule.nodes)
    s = np.sqrt(rule.weights * g)
    return log_det_series_by_compositions(K * np.multiply.outer(s, s), g, k)


@pytest.mark.parametrize("C", [0.6, 1.0, 1.4])
def test_h_series_table_matches_compositions(C, monkeypatch):
    # l_1..l_k as written out against one trace per composition, on the
    # grid airy_h_moment builds for each k
    traces, rules = _traced_chain_traces(monkeypatch), []
    monkeypatch.setattr(airy_side, "composite_legendre",
                        lambda *args: rules.append(composite_legendre(*args)) or rules[-1])
    for k in range(1, 5):
        airy_h_moment(k, C)
        expect = _compositions_on(airy_kernel_matrix(rules[-1].nodes), rules[-1], C, k)
        assert len(traces) == k
        for got, want in zip(log_det_series_of(traces[-1], k), expect, strict=True):
            assert abs(got / want - 1.0) <= 1e-13


def test_h_series_table_on_a_random_matrix():
    # a symmetric S with no kernel structure, its Gram square, and a
    # positive g: the trace table alone
    B = np.random.default_rng(7).normal(size=(40, 40))
    K = B + B.T
    rule, C = composite_legendre(-2.0, 2.0, 2, 20), 0.8
    g = np.exp(C * rule.nodes)
    s = np.sqrt(rule.weights * g)
    S = K * np.multiply.outer(s, s)
    S2 = quadrature.gram(S)
    traces = airy_side._chain_traces(S, S2, g)
    for got, want in zip(log_det_series_of(traces, 4), _compositions_on(K, rule, C, 4),
                         strict=True):
        assert abs(got / want - 1.0) <= 1e-13
    # each bound holds the trace's sum of |terms|, the one mixed-sign trace
    # tr S^3 G^a = sum_il (S^2)_il S_il g_i^a by Cauchy-Schwarz
    for a, word in enumerate([(1, 1, 1), (1, 1, 2)]):
        exact = np.einsum("il,il,i->", np.abs(S2), np.abs(S), g ** a)
        trace, bound = traces[word]
        assert abs(trace) < exact <= bound * (1 + 1e-14)
    assert all(t == m for word, (t, m) in traces.items() if word not in [(1, 1, 1), (1, 1, 2)])


@pytest.mark.parametrize("C, order", [(0.6, 32), (1.0, 32), (1.4, 32), (3.0, 96)])
def test_h_series_table_matches_transposed_sums(C, order, monkeypatch):
    # the row sums over the symmetric S and S^2 against the same traces
    # summed down columns, with tr (SG)^2 as one four-operand sum: the
    # benchmark's k = 4 grids at 32 nodes per panel, and C = 3 at 96
    seen, table = [], airy_side._chain_traces
    monkeypatch.setattr(airy_side, "_chain_traces",
                        lambda S, S2, g: seen.append((S, S2, g)) or table(S, S2, g))
    airy_h_moment(4, C, order)
    [(S, S2, g)] = seen
    for got, want in zip(log_det_series_of(table(S, S2, g), 4),
                         log_det_series_transposed(S, S2, g, 4), strict=True):
        assert abs(got / want - 1.0) <= 1e-14


def test_airy_h_moments_is_one_series(monkeypatch):
    # every order from one _h_series call on the k_max grid; airy_h_moment
    # is its last entry and refuses what it refuses
    calls = []
    series = airy_side._h_series
    monkeypatch.setattr(airy_side, "_h_series",
                        lambda rule, C, k: calls.append(rule.nodes[-1]) or series(rule, C, k))
    vals = airy_h_moments(3, 1.0)
    assert len(calls) == 1 and len(vals) == 3
    assert all(type(v) is float for v in vals)
    assert airy_h_moment(3, 1.0) == vals[-1]
    assert calls[1] == calls[0]
    # the k = 2 grid ends further left, so its own E h_2 is a different sum
    assert abs(airy_h_moment(2, 1.0) / vals[1] - 1.0) <= 1e-14
    assert calls[2] < calls[0]
    with pytest.raises(ConfigurationError, match="airy_h_moments supports integer"):
        airy_h_moments(5, 1.0)
    # the same refusal, word for word, as airy_h_moment at k = k_max
    for k_max, C in [(4, 3.2), (1, 0.39), (1, 12.2)]:
        with pytest.raises(DomainError) as want:
            airy_h_moment(k_max, C)
        last = airy_h_moments(k_max, C)[-1]
        assert type(last) is DomainError and str(last) == str(want.value)


def test_airy_h_moments_keeps_each_refused_order_as_its_entry():
    # at C = 4 the k = 4 grid leaves the Airy range: orders 1-3 are the
    # k = 3 series bit for bit, and order 4 is airy_h_moment(4, 4.0)'s refusal
    got, lower = airy_h_moments(4, 4.0), airy_h_moments(3, 4.0)
    assert got[:3] == lower and all(type(v) is float for v in lower)
    with pytest.raises(DomainError) as want:
        airy_h_moment(4, 4.0)
    assert type(got[3]) is DomainError and str(got[3]) == str(want.value)
    # below C = 0.4 no order's grid is accepted
    assert [type(v) for v in airy_h_moments(2, 0.39)] == [DomainError] * 2
    # a node count no rule takes refuses the series, so every order up to it
    assert ([type(v) for v in airy_h_moments(4, 4.0, 100000)]
            == [ConfigurationError] * 3 + [DomainError])


def test_airy_h_moments_checks_each_value_positive(monkeypatch):
    # a non-positive E h_2 is that order's NumericalConsistencyError entry;
    # the orders around it stay values
    monkeypatch.setattr(quadrature, "newton_h", lambda p: [1.0, 0.3, -1e-17, 0.5][:len(p) + 1])
    h1, h2, h3 = airy_h_moments(3, 1.0)
    assert (h1, h3) == (0.3, 0.5) and type(h1) is float and type(h3) is float
    assert type(h2) is NumericalConsistencyError
    assert str(h2) == "airy_h_moment(2, 1.0) = -1e-17 is not positive and finite"
    with pytest.raises(NumericalConsistencyError, match=re.escape(str(h2))):
        airy_h_moment(2, 1.0)


@pytest.mark.parametrize("C", [0.4, 0.5, 0.6, 1.0, 1.4, 2.0, 2.5])
def test_airy_h_moment_closed_forms(C):
    # at C = 0.4 the left edge of the grid, the kernel range -60, binds
    tol = 1e-9 if C < 0.5 else 2e-12
    assert abs(airy_h_moment(1, C) / closed_R1(C) - 1.0) <= tol
    assert abs(airy_h_moment(2, C) / closed_h2(C) - 1.0) <= tol


@pytest.mark.parametrize("C", [0.5, 1.0, 2.0, 3.0])
def test_airy_h_moment_self_convergence(C, monkeypatch):
    # Legendre order per panel 30 -> 45, and the left edge moved from
    # where e^{Cr} is roundoff out to the kernel range
    vals = [airy_h_moment(k, C) for k in range(1, 5)]
    for k, v in enumerate(vals, start=1):
        assert abs(airy_h_moment(k, C, nodes_per_axis=45) / v - 1.0) <= 1e-12
    monkeypatch.setattr(airy_side, "_H_LEFT_DECAY", math.inf)
    for k, v in enumerate(vals, start=1):
        assert abs(airy_h_moment(k, C) / v - 1.0) <= 1e-12


def test_airy_h_moment_validation():
    # k = 5 is outside the supported orders, and a float or bool k is not an order
    for k in (0, 5, 2.0, True):
        with pytest.raises(ConfigurationError):
            airy_h_moment(k, 1.0)
    assert airy_h_moment(np.int64(2), 1.0) == airy_h_moment(2, 1.0)
    with pytest.raises(DomainError):
        airy_h_moment(1, -1.0)
    with pytest.raises(DomainError):
        airy_h_moment(1, 0.39)
    with pytest.raises(DomainError):
        airy_h_moment(4, 3.2)
    # inside the Airy range, but e^{Cr} overflows at the right edge r = 59.21
    with pytest.raises(DomainError, match="overflows double precision"):
        airy_h_moment(1, 12.2)
    # no order per panel is no grid, as in every other pipeline
    with pytest.raises(ConfigurationError):
        airy_h_moment(1, 1.0, nodes_per_axis=0)


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
    v80 = airy_mult_stat(p, nodes=80)
    v160 = airy_mult_stat(p, nodes=160)
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
