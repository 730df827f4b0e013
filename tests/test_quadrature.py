import itertools
import math

import numpy as np
import pytest

from airykpz.errors import ConfigurationError, EvaluationError
from airykpz.quadrature import (QuadratureRule, composite_legendre,
                                fredholm_det_matrix, gauss_hermite, gauss_legendre,
                                hermite_axis_count, legendre_on, scaled_gauss_hermite,
                                tensor_integrate)


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


def test_tensor_constant_on_square():
    rules = [legendre_on(-1.0, 1.0, 6)] * 2
    val = tensor_integrate(lambda x, y: np.ones_like(x), rules)
    assert val == pytest.approx(4.0, abs=1e-14)


def test_tensor_separable_gaussian():
    rules = [gauss_hermite(20)] * 2
    val = tensor_integrate(lambda t, u: np.ones_like(t), rules)
    assert val == pytest.approx(math.pi, rel=1e-14)
    trunc = [legendre_on(-8.0, 8.0, 60)] * 2
    val2 = tensor_integrate(lambda t, u: np.exp(-t * t - u * u), trunc)
    assert val2 == pytest.approx(math.pi, rel=1e-12)


def test_tensor_cubic_exactness_3d():
    rules = [legendre_on(0.0, 1.0, 2)] * 3
    val = tensor_integrate(lambda x, y, z: (x ** 3) * (y ** 3) * (z ** 3), rules)
    assert val == pytest.approx((1 / 4) ** 3, abs=1e-15)


def test_tensor_budget_and_dimension_errors():
    with pytest.raises(ConfigurationError):
        tensor_integrate(lambda *a: 1.0, [gauss_legendre(512)] * 4)  # > 1e8 nodes
    with pytest.raises(ConfigurationError):
        tensor_integrate(lambda *a: 1.0, [gauss_legendre(2)] * 6)


def test_tensor_oscillatory_and_deterministic():
    rules = [legendre_on(0.0, 1.0, 17), legendre_on(0.0, 2.0, 13)]
    f = lambda x, y: np.cos(x + y)
    v1 = tensor_integrate(f, rules)
    v2 = tensor_integrate(f, rules)
    assert isinstance(v1, float)
    assert v1 == v2  # bit-stable
    ref = ((np.exp(1j) - 1) / 1j * (np.exp(2j) - 1) / 1j).real
    assert v1 == pytest.approx(ref, rel=1e-12)


def test_tensor_rejects_complex_integrand():
    # a complex integrand is an error, never silently truncated to its real part
    rules = [legendre_on(0.0, 1.0, 4)] * 2
    with pytest.raises(ConfigurationError):
        tensor_integrate(lambda x, y: np.exp(1j * (x + y)), rules)
    with pytest.raises(ConfigurationError):
        tensor_integrate(lambda x, y: np.ones_like(x) + 0j, rules)


def test_hermite_axis_count_floor_and_cap():
    # no pole (d_min = inf) gives the floor; a near pole is capped per dimension
    assert hermite_axis_count(math.inf, 1) == 48
    assert hermite_axis_count(math.inf, 1, extra_floor=80) == 80
    assert hermite_axis_count(0.465, 3) == 256
    assert hermite_axis_count(0.465, 4) == 56


def _vandermonde_sq(*xs):
    out = np.ones_like(xs[0])
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out = out * (xs[i] - xs[j]) ** 2
    return out


@pytest.mark.parametrize("blocks, f", [
    ([3], lambda x, y, z: np.exp(-(x + y + z)) * (1 + _vandermonde_sq(x, y, z))),
    ([2, 1], lambda x, y, z: np.exp(-(x + y)) * np.cos(3 * z) * (1 + (x - y) ** 2 * z)),
    ([1, 2], lambda x, y, z: np.cos(3 * x) / (1 + y * y + z * z + x * y * z)),
    ([1, 1, 1], lambda x, y, z: np.sin(x + 2 * y) * np.exp(-z * x)),
    ([4], lambda x, y, z, u: np.exp(-(x + y + z + u)) * (1 + _vandermonde_sq(x, y, z, u))
     / (2 + x * y * z * u)),
])
def test_tensor_blocks_match_full_grid(blocks, f):
    # summing the sorted tuples of each symmetric block, weighted by their
    # permutation counts, is the full grid sum reordered
    r = legendre_on(0.0, 1.5, 11)
    rules = []
    for b, m in enumerate(blocks):
        rules += [r if b % 2 == 0 else gauss_hermite(9)] * m
    full = tensor_integrate(f, rules)
    assert tensor_integrate(f, rules, blocks) == pytest.approx(full, rel=1e-13)


@pytest.mark.parametrize("n, blocks, expect", [
    (150, [3], math.comb(152, 3)),              # spans two chunks
    (20, [2, 1], math.comb(21, 2) * 20),
    (20, [1, 2], 20 * math.comb(21, 2)),
    (12, [4], math.comb(15, 4)),
    (12, [2, 2], math.comb(13, 2) ** 2),
    (12, None, 12 ** 4),
])
def test_tensor_blocks_evaluate_sorted_tuples_only(n, blocks, expect):
    # a block of size m over n nodes costs C(n + m - 1, m) points, never
    # more than the ~4e5-point chunk at a time
    batches = []

    def f(*xs):
        batches.append(xs[0].size)
        assert all(x.shape == xs[0].shape for x in xs)
        return np.ones_like(xs[0])

    dim = sum(blocks) if blocks else 4
    val = tensor_integrate(f, [gauss_legendre(n)] * dim, blocks)
    assert sum(batches) == expect
    assert max(batches) <= 4e5
    assert val == pytest.approx(2.0 ** dim, rel=1e-13)


def test_tensor_blocks_visit_sorted_tuples_in_order():
    # lexicographic order, block by block, nondecreasing within a block
    rule = gauss_legendre(4)
    seen = []

    def f(*xs):
        seen.extend(zip(*(np.searchsorted(rule.nodes, x).tolist() for x in xs)))
        return np.ones_like(xs[0])

    tensor_integrate(f, [rule] * 5, [2, 1, 2])
    pairs = list(itertools.combinations_with_replacement(range(4), 2))
    assert seen == [a + (b,) + c for a in pairs for b in range(4) for c in pairs]


def test_tensor_blocks_validation():
    f = lambda *xs: np.ones_like(xs[0])
    a, b = legendre_on(0.0, 1.0, 5), legendre_on(0.0, 2.0, 5)
    with pytest.raises(ConfigurationError):
        tensor_integrate(f, [a, b, a], [2, 1])      # rules differ inside a block
    with pytest.raises(ConfigurationError):
        tensor_integrate(f, [a, a, gauss_legendre(6)], [3])
    with pytest.raises(ConfigurationError):
        tensor_integrate(f, [a] * 3, [2, 2])        # sizes exceed the dimension
    with pytest.raises(ConfigurationError):
        tensor_integrate(f, [a] * 3, [2])           # sizes fall short of it
    with pytest.raises(ConfigurationError):
        tensor_integrate(f, [a] * 3, [3, 0])
    assert tensor_integrate(f, [a, legendre_on(0.0, 1.0, 5), b], [2, 1]) == pytest.approx(2.0)


def test_tensor_blocks_deterministic():
    rules = [scaled_gauss_hermite(0.7, 40)] * 3
    f = lambda x, y, z: np.cos(x * y * z) + np.cos(x + y + z)
    first = tensor_integrate(f, rules, [3])
    assert all(tensor_integrate(f, rules, [3]) == first for _ in range(3))
