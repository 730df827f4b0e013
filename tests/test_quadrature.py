import itertools
import math

import numpy as np
import pytest

from airykpz import quadrature
from airykpz.airy_side import airy_h_moment
from airykpz.errors import ConfigurationError, EvaluationError, NumericalConsistencyError
from airykpz.quadrature import (QuadratureRule, composite_legendre,
                                fredholm_det_matrix, gauss_hermite, gauss_legendre, gram,
                                hermite_axis_count, legendre_on, scaled_gauss_hermite,
                                tensor_integrate)

from airykpz.kpz_side import kpz_moment

from pointwise import pointwise_sum


def integrate(rule, f):
    return np.sum(rule.weights * f(rule.nodes))


def fredholm(kernel, rule):
    # the kernel evaluated on the rule's node pairs, as the pipelines do
    x = rule.nodes
    return fredholm_det_matrix(kernel(x[:, None], x[None, :]), rule.weights)


def test_gauss_legendre_n1_midpoint():
    rule = gauss_legendre(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_gauss_legendre_n2():
    rule = gauss_legendre(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gauss_legendre_exactness_degree7():
    # n = 4 integrates every monomial up to degree 2n-1 = 7 exactly
    rule = gauss_legendre(4)
    for d in range(8):
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        assert integrate(rule, lambda x: x ** d) == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("n", [16, 128, 512])
def test_gauss_legendre_high_order_sanity(n):
    rule = gauss_legendre(n)
    assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-14)
    assert integrate(rule, lambda x: x ** 20) == pytest.approx(2 / 21, abs=1e-13)


def test_gauss_hermite_n1():
    rule = gauss_hermite(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights == pytest.approx([math.sqrt(math.pi)], rel=1e-15)


def test_gauss_hermite_moments():
    assert integrate(gauss_hermite(2), lambda t: t ** 2) == pytest.approx(
        math.sqrt(math.pi) / 2, abs=1e-14)
    assert integrate(gauss_hermite(8), lambda t: np.ones_like(t)) == pytest.approx(
        math.sqrt(math.pi), abs=1e-14)


@pytest.mark.parametrize("n", [64, 256])
def test_gauss_hermite_high_order_sanity(n):
    rule = gauss_hermite(n)
    assert np.sum(rule.weights) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert integrate(rule, lambda t: t ** 4) == pytest.approx(
        0.75 * math.sqrt(math.pi), rel=1e-13)


def test_rule_invariants_and_validation():
    for rule in (gauss_legendre(7), gauss_hermite(33),
                 composite_legendre(-3.0, 2.0, 5, 8),
                 scaled_gauss_hermite(0.37, 21)):
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert len(rule.nodes) == len(rule.weights)
    with pytest.raises(ConfigurationError):
        gauss_legendre(0)
    with pytest.raises(ConfigurationError):
        gauss_legendre(513)
    with pytest.raises(ConfigurationError):
        gauss_hermite(257)
    with pytest.raises(ConfigurationError):
        QuadratureRule(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        QuadratureRule(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


@pytest.mark.parametrize("make", [gauss_legendre, gauss_hermite])
def test_rules_built_once_per_order_and_read_only(make):
    rule = make(24)
    assert make(24) is rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[:] = 1.0
    with pytest.raises(ValueError):
        rule.nodes *= 2.0


@pytest.mark.parametrize("call", [
    pytest.param(lambda: gauss_hermite(2.5), id="gauss_hermite-2.5"),
    pytest.param(lambda: gauss_legendre(3.7), id="gauss_legendre-3.7"),
    pytest.param(lambda: gauss_legendre(2.0), id="gauss_legendre-2.0"),
    pytest.param(lambda: gauss_hermite(True), id="gauss_hermite-True"),
    pytest.param(lambda: kpz_moment(2, 2.0, nodes_per_axis=40.5), id="kpz_moment-40.5"),
    pytest.param(lambda: kpz_moment(1, 2.0, nodes_per_axis=10.5), id="kpz_moment-1d-10.5"),
    pytest.param(lambda: airy_h_moment(1, 1.0, nodes_per_axis=2.5), id="airy_h_moment-2.5"),
])
def test_rule_orders_must_be_integers(call):
    # refused, not truncated (2.5 would build 2 nodes); the integer orders
    # 1 and 2 are cached first, so 2.0 and True must not hit their entries
    gauss_legendre(2), gauss_hermite(1)
    with pytest.raises(ConfigurationError, match="must be an integer"):
        call()


def test_derived_rules_bit_identical_to_uncached(monkeypatch):
    import airykpz.quadrature as quadrature
    cases = [lambda: composite_legendre(-3.0, 2.0, 5, 8), lambda: legendre_on(0.0, 18.5, 80),
             lambda: scaled_gauss_hermite(0.37, 21), lambda: scaled_gauss_hermite(1.0, 256)]
    # the second round reads every base rule from the cache
    rounds = [[make() for make in cases] for _ in range(2)]
    monkeypatch.setattr(quadrature, "gauss_legendre", quadrature.gauss_legendre.__wrapped__)
    monkeypatch.setattr(quadrature, "gauss_hermite", quadrature.gauss_hermite.__wrapped__)
    for make, *rules in zip(cases, *rounds):
        fresh = make()
        for rule in rules:
            assert rule.nodes.tobytes() == fresh.nodes.tobytes()
            assert rule.weights.tobytes() == fresh.weights.tobytes()


def test_map_affine_n1():
    mapped = legendre_on(0.0, 2.0, 1)
    assert mapped.nodes == pytest.approx([1.0])
    assert mapped.weights == pytest.approx([2.0])


def test_scaled_hermite_absorbs_gaussian():
    c = 1.7
    rule = scaled_gauss_hermite(c, 24)
    # integral of exp(-c z^2) z^2 dz = sqrt(pi/c)/(2c)
    assert integrate(rule, lambda z: z * z) == pytest.approx(
        math.sqrt(math.pi / c) / (2 * c), rel=1e-13)


def test_fredholm_zero_kernel_is_exactly_one():
    rule = legendre_on(0.0, 1.0, 30)
    assert fredholm(lambda x, y: 0.0 * x * y, rule) == 1.0


def test_fredholm_rank_one_identity():
    # k(x, y) = phi(x) phi(y) gives det = 1 - quadrature(phi^2)
    rule = legendre_on(0.0, 1.0, 40)
    phi = lambda x: np.cos(3.0 * x) + 0.5
    det = fredholm(lambda x, y: phi(x) * phi(y), rule)
    expect = 1.0 - np.sum(rule.weights * phi(rule.nodes) ** 2)
    assert det == pytest.approx(expect, abs=1e-14)


def test_fredholm_airy_kernel_self_convergence():
    from airykpz.airy_side import airy_kernel_matrix
    r80, r160 = legendre_on(0.0, 24.0, 80), legendre_on(0.0, 24.0, 160)
    d80 = fredholm_det_matrix(airy_kernel_matrix(r80.nodes), r80.weights)
    d160 = fredholm_det_matrix(airy_kernel_matrix(r160.nodes), r160.weights)
    assert abs(d80 - d160) < 1e-10


def test_fredholm_transpose_invariance():
    rule = legendre_on(-1.0, 2.0, 50)
    k = lambda x, y: np.exp(-(x - 0.3 * y) ** 2) + 0.1 * np.sin(x)
    kt = lambda x, y: k(y, x)
    assert fredholm(k, rule) == pytest.approx(fredholm(kt, rule), abs=1e-13)


def test_fredholm_nan_kernel_reports_node_pair():
    rule = legendre_on(0.0, 1.0, 8)

    def bad(x, y):
        out = x + y
        return np.where(x + y > 1.5, np.nan, out)

    with pytest.raises(EvaluationError) as err:
        fredholm(bad, rule)
    i, j = err.value.where
    assert rule.nodes[i] + rule.nodes[j] > 1.5


def _ones(*xs):
    return [np.ones(x.size) for x in xs], {}


def test_gram_is_one_full_einsum_and_bitwise_symmetric():
    # the shape of K_u's Airy factor matrix: 80 outer by ~950 inner nodes,
    # so the last block of rows is partial
    X = np.random.default_rng(3).standard_normal((80, 950))
    assert 80 % quadrature._GRAM_ROWS != 0
    G = gram(X)
    assert np.array_equal(G, np.einsum("il,jl->ij", X, X))
    assert np.array_equal(G, G.T)


def test_tensor_constant_on_square():
    rules = [legendre_on(-1.0, 1.0, 6)] * 2
    val = tensor_integrate(_ones, rules)
    assert val == pytest.approx(4.0, abs=1e-14)


def test_tensor_separable_gaussian():
    rules = [gauss_hermite(20)] * 2
    val = tensor_integrate(_ones, rules)
    assert val == pytest.approx(math.pi, rel=1e-14)
    trunc = [legendre_on(-8.0, 8.0, 60)] * 2
    val2 = tensor_integrate(lambda t, u: ([np.exp(-t * t), np.exp(-u * u)], {}), trunc)
    assert val2 == pytest.approx(math.pi, rel=1e-12)


def test_tensor_cubic_exactness_3d():
    rules = [legendre_on(0.0, 1.0, 2)] * 3
    val = tensor_integrate(lambda x, y, z: ([x ** 3, y ** 3, z ** 3], {}), rules)
    assert val == pytest.approx((1 / 4) ** 3, abs=1e-15)


def test_tensor_budget_and_dimension_errors():
    with pytest.raises(ConfigurationError):
        tensor_integrate(lambda *a: 1.0, [gauss_legendre(512)] * 4)  # > 1e8 nodes
    with pytest.raises(ConfigurationError):
        tensor_integrate(lambda *a: 1.0, [gauss_legendre(2)] * 5)


def test_tensor_oscillatory_and_deterministic():
    rules = [legendre_on(0.0, 1.0, 17), legendre_on(0.0, 2.0, 13)]
    f = lambda x, y: ([np.ones(x.size), np.ones(y.size)], {(0, 1): np.cos(np.add.outer(x, y))})
    v1 = tensor_integrate(f, rules)
    v2 = tensor_integrate(f, rules)
    assert isinstance(v1, float)
    assert v1 == v2  # bit-stable
    ref = ((np.exp(1j) - 1) / 1j * (np.exp(2j) - 1) / 1j).real
    assert v1 == pytest.approx(ref, rel=1e-12)


def _random_factors(rng, sizes, missing):
    """Random complex per-axis arrays and pair tables; the pairs in
    ``missing`` are left out (they are 1)."""
    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    axis = [cplx(n) for n in sizes]
    pairs = {(i, j): cplx(sizes[i], sizes[j])
             for i in range(len(sizes)) for j in range(i + 1, len(sizes))
             if (i, j) not in missing}
    return axis, pairs


@pytest.mark.parametrize("sizes, missing", [
    ((7,), ()),
    ((5, 8), ()),
    ((4, 6, 5), ((0, 2),)),
    ((3, 5, 4, 6), ((0, 2), (1, 3))),          # the four-axis cycle_E shape
], ids=["l1", "l2", "l3", "l4"])
def test_tensor_contraction_matches_pointwise_sum(sizes, missing):
    # the contraction is the full-grid sum of the factors' product, with a
    # left-out pair counting as 1; random complex factors, unequal axes
    rng = np.random.default_rng(len(sizes))
    axis, pairs = _random_factors(rng, sizes, missing)
    rules = [legendre_on(0.0, 1.0 + i, n) for i, n in enumerate(sizes)]
    ref = pointwise_sum(lambda *xs: (axis, pairs), rules)
    # fold the phase of the total into axis 0's factor: the total is then
    # real, |ref|, as the driver requires
    axis[0] = axis[0] * (abs(ref) / ref)
    assert tensor_integrate(lambda *xs: (axis, pairs), rules) == pytest.approx(
        abs(ref), rel=1e-12)


# A block is a run of consecutive axes tied together by pair tables; a
# pair across two blocks is left out of the dict, so it counts as 1.
def _block_pairs(blocks):
    """The axis pairs (i, j), i < j, that lie inside one block."""
    out, start = [], 0
    for m in blocks:
        out += itertools.combinations(range(start, start + m), 2)
        start += m
    return out


def _coupled(xs, blocks, table):
    return {(i, j): table(xs[i], xs[j]) for i, j in _block_pairs(blocks)}


_sq = lambda s, t: 1.0 + np.subtract.outer(s, t) ** 2


@pytest.mark.parametrize("blocks, f", [
    ([3], lambda *xs: ([np.exp(-x) for x in xs], _coupled(xs, [3], _sq))),
    ([2, 1], lambda *xs: ([np.exp(-xs[0]), np.exp(-xs[1]), np.cos(3 * xs[2])],
                          _coupled(xs, [2, 1], lambda s, t: 1 / (1 + np.add.outer(s, t) ** 2)))),
    ([1, 2], lambda *xs: ([np.cos(3 * xs[0]), np.ones(xs[1].size), np.ones(xs[2].size)],
                          _coupled(xs, [1, 2], lambda s, t: 1 / (1 + np.add.outer(s * s, t * t))))),
    ([1, 1, 1], lambda *xs: ([np.sin(xs[0]), np.exp(-xs[1]), np.cos(2 * xs[2])], {})),
    ([4], lambda *xs: ([np.exp(-x) for x in xs],
                       _coupled(xs, [4], lambda s, t: _sq(s, t) / (2 + np.multiply.outer(s, t))))),
])
def test_tensor_blocks_match_full_grid(blocks, f):
    # the contraction of an integrand whose axes are coupled only inside
    # blocks is the full-grid sum of the same factors, point by point
    r = legendre_on(0.0, 1.5, 11)
    rules = []
    for b, m in enumerate(blocks):
        rules += [r if b % 2 == 0 else gauss_hermite(9)] * m
    assert sorted(f(*(q.nodes for q in rules))[1]) == _block_pairs(blocks)
    full = pointwise_sum(f, rules)
    assert abs(full.imag) == 0.0
    assert tensor_integrate(f, rules) == pytest.approx(full.real, rel=1e-13)


def _spy_contract(monkeypatch, n_axes):
    """Record the table dtypes and value of each contraction over n_axes
    axes (a four-axis contraction recurses into three-axis ones)."""
    calls = []
    contract = quadrature._contract

    def spy(u, pairs):
        val = contract(u, pairs)
        if len(u) == n_axes:
            calls.append(([t.dtype for t in [*u, *pairs.values()]], val))
        return val

    monkeypatch.setattr(quadrature, "_contract", spy)
    return calls


def _nonnegative_complex_factors(sizes):
    """Random factors >= 0 of complex dtype: every imaginary part is 0."""
    rng = np.random.default_rng(10 + len(sizes))
    axis = [rng.random(n) + 0j for n in sizes]
    pairs = {(i, j): rng.random((sizes[i], sizes[j])) + 0j
             for i in range(len(sizes)) for j in range(i + 1, len(sizes))}
    rules = [legendre_on(0.0, 1.0 + i, n) for i, n in enumerate(sizes)]
    return axis, pairs, rules


@pytest.mark.parametrize("sizes", [(7,), (5, 8), (4, 6, 5), (3, 5, 4, 6)],
                         ids=["l1", "l2", "l3", "l4"])
def test_tensor_real_tables_contracted_in_real_arithmetic(sizes, monkeypatch):
    # complex tables whose imaginary parts are exactly 0 reach the
    # contraction as floats; being >= 0 they need no sum |w f| contraction
    axis, pairs, rules = _nonnegative_complex_factors(sizes)
    ref = quadrature._contract([a * r.weights for a, r in zip(axis, rules)], pairs)
    calls = _spy_contract(monkeypatch, len(sizes))
    val = tensor_integrate(lambda *xs: (axis, pairs), rules)
    assert len(calls) == 1
    assert all(dtype == np.float64 for dtype in calls[0][0])
    assert abs(val - ref.real) <= 1e-15 * abs(ref)


def test_tensor_one_imaginary_entry_keeps_complex_path(monkeypatch):
    axis, pairs, rules = _nonnegative_complex_factors((4, 6, 5))
    pairs[0, 2][1, 3] += 1j
    calls = _spy_contract(monkeypatch, 3)
    with pytest.raises(NumericalConsistencyError, match="is not finite and real"):
        tensor_integrate(lambda *xs: (axis, pairs), rules)
    assert len(calls) == 2
    assert all(dtype == np.complex128 for dtype in calls[0][0])


def test_tensor_negative_real_entry_gets_its_own_magnitude(monkeypatch):
    # one negative entry: sum |w f| is contracted separately and exceeds |sum w f|
    axis, pairs, rules = _nonnegative_complex_factors((4, 6, 5))
    pairs[0, 1][2, 3] = -5.0
    calls = _spy_contract(monkeypatch, 3)
    val = tensor_integrate(lambda *xs: (axis, pairs), rules)
    assert len(calls) == 2
    assert all(dtype == np.float64 for dtype in calls[0][0] + calls[1][0])
    assert val == calls[0][1]
    assert calls[1][1] / abs(val) > 1.0


def test_tensor_rejects_complex_integrand():
    # the total of an integrand that is not real is an error, never
    # silently truncated to its real part
    rules = [legendre_on(0.0, 1.0, 8)]
    with pytest.raises(NumericalConsistencyError):
        tensor_integrate(lambda x: ([np.exp(1j * x)], {}), rules)
    with pytest.raises(NumericalConsistencyError):
        tensor_integrate(lambda x: ([np.where(x > 0.5, np.nan, 1.0)], {}), rules)
    # a complex-typed integrand with a real total is integrated
    assert tensor_integrate(lambda x: ([np.cos(x) + 0j], {}), rules) == pytest.approx(
        math.sin(1.0), rel=1e-14)


def test_tensor_blocks_deterministic():
    rules = [scaled_gauss_hermite(0.7, 40), scaled_gauss_hermite(1.1, 40),
             scaled_gauss_hermite(0.9, 40)]
    d = lambda s, t: 1.0 / (1.0 + 1j * np.subtract.outer(s, t))
    for blocks in ([3], [2, 1]):
        def f(*xs):
            return [np.cos(xs[0]), np.ones(xs[1].size), np.exp(-xs[2] ** 2)], {
                (i, j): d(xs[i], xs[j]) * d(xs[j], xs[i]).T for i, j in _block_pairs(blocks)}

        first = tensor_integrate(f, rules)
        assert all(tensor_integrate(f, rules) == first for _ in range(3))


def test_tensor_integrand_called_once_with_axis_nodes():
    # f sees each axis's nodes once, never the points of the full grid
    rules = [gauss_legendre(4), gauss_legendre(5), gauss_legendre(3)]
    seen = []

    def f(*xs):
        seen.append(xs)
        return [np.ones(x.size) for x in xs], {}

    assert tensor_integrate(f, rules) == pytest.approx(8.0, rel=1e-14)
    assert len(seen) == 1
    assert [x.tolist() for x in seen[0]] == [r.nodes.tolist() for r in rules]


def test_tensor_blocks_validation():
    # a pair table is keyed (i, j), i < j, by two axes of the integral and
    # shaped (n_i, n_j); anything else is a caller's error
    a, b = legendre_on(0.0, 1.0, 5), legendre_on(0.0, 2.0, 4)
    ones = [np.ones(5), np.ones(4)]
    bad = [
        ([np.ones(5)], {}),                              # one factor short
        ([np.ones(5), np.ones(5)], {}),                  # wrong axis length
        (ones, {(1, 0): np.ones((4, 5))}),               # pair key not i < j
        (ones, {(0, 2): np.ones((5, 4))}),               # axis out of range
        (ones, {(0, 1): np.ones((4, 5))}),               # table transposed
    ]
    for factors in bad:
        with pytest.raises(ConfigurationError):
            tensor_integrate(lambda *xs: factors, [a, b])
    assert tensor_integrate(lambda *xs: (ones, {(0, 1): np.ones((5, 4))}), [a, b]) == (
        pytest.approx(2.0))


def test_hermite_axis_count_floor_and_cap():
    # no pole (d_min = inf) gives the floor; a near pole is capped per dimension
    assert hermite_axis_count(math.inf, 1) == 48
    assert hermite_axis_count(math.inf, 1, extra_floor=80) == 80
    assert hermite_axis_count(0.465, 3) == 256
    assert hermite_axis_count(0.465, 4) == 56
