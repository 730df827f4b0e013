import itertools
import math

import numpy as np
import pytest

from airykpz.airy_side import airy_h_moment, airy_mult_stat, laplace_R
from airykpz.errors import ConfigurationError, DomainError, NumericalConsistencyError
from airykpz.kpz_side import (Partition, _ku_matrix, _partition_term, kpz_laplace, kpz_moment,
                              kpz_moment_nested, partitions, symmetry_factor)
from airykpz import kpz_side
from airykpz.params import ModelParams
from airykpz.quadrature import QuadratureRule, composite_legendre, legendre_on, tensor_integrate

from pointwise import (bose_exponent, cauchy_det_direct, cauchy_factors, factor_grid, ku_kernel,
                       pointwise_sum)


# ----------------------------------------------------------------------
# partitions

def test_partitions_k1():
    assert [p.parts for p in partitions(1)] == [(1,)]


def test_partitions_k4_descending_lex():
    assert [p.parts for p in partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_count_k10():
    assert len(partitions(10)) == 42


def _partition_counts_pentagonal(n_max):
    # independent count: Euler's pentagonal-number recurrence
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_partitions_counts_match_pentagonal_recurrence():
    counts = _partition_counts_pentagonal(20)
    for k in range(1, 21):
        assert len(partitions(k)) == counts[k]


def test_partition_invariants():
    lam = Partition((3, 2, 2, 1))
    assert lam.weight == 8
    assert lam.length == 4
    assert lam.multiplicities == {3: 1, 2: 2, 1: 1}
    assert sum(size * cnt for size, cnt in lam.multiplicities.items()) == lam.weight
    assert sum(lam.multiplicities.values()) == lam.length


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((2, 0))
    with pytest.raises(ConfigurationError):
        partitions(0)
    with pytest.raises(ConfigurationError):
        partitions(21)


def test_symmetry_factor():
    assert symmetry_factor(Partition((3, 1))) == 1
    assert symmetry_factor(Partition((1, 1, 1, 1))) == 24
    assert symmetry_factor(Partition((2, 2, 1))) == 2


# ----------------------------------------------------------------------
# exponent algebra

def test_bose_exponent_single_part():
    w = 0.3 + 0.7j
    assert bose_exponent(w, 1, 2.0) == pytest.approx(w * w)


def test_bose_exponent_simple_sum():
    # 0^2 + 1^2 + 2^2 = 5 at T = 2
    assert bose_exponent(0.0, 3, 2.0) == pytest.approx(5.0)


def test_bose_exponent_summed_vs_closed():
    # closed polynomial form (T/2)(L w^2 + L(L-1) w + L(L-1)(2L-1)/6)
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = complex(rng.normal(), rng.normal())
        L = int(rng.integers(1, 5))
        T = float(rng.uniform(0.4, 6.0))
        s = bose_exponent(w, L, T)
        cl = (T / 2.0) * (L * w * w + L * (L - 1) * w + L * (L - 1) * (2 * L - 1) / 6.0)
        assert abs(s - cl) <= 1e-12 * max(1.0, abs(cl))


def test_exponent_identity_transported():
    # the shifted-square exponent exp(C^3 sum(lambda^3/12 +
    # lambda (w + lambda/2 - 1/2)^2)), after the k/12 bookkeeping factor
    # exp(-C^3 k/12), equals prod_j exp(bose(w_j)) at T = 2C^3; compared
    # through the log to keep huge magnitudes finite
    rng = np.random.default_rng(9)
    for lam in [(3, 1), (2, 2, 1), (4,), (2, 1, 1, 1), (1,)]:
        k = sum(lam)
        C = float(rng.uniform(0.5, 1.5))
        T = 2.0 * C ** 3
        w = rng.normal(size=len(lam)) + 1j * rng.normal(size=len(lam))
        summed_log = sum(bose_exponent(wj, p, T) for wj, p in zip(w, lam))
        shifted_log = C ** 3 * sum(p ** 3 / 12.0 + p * (wj + p / 2.0 - 0.5) ** 2
                                   for wj, p in zip(w, lam)) - C ** 3 * k / 12.0
        # ratio of the exponentials within 1e-11 of 1
        assert abs(np.exp(shifted_log - summed_log) - 1.0) <= 1e-11


# ----------------------------------------------------------------------
# interaction determinant det[1/(w_j + lambda_j - w_i)]: the Cauchy
# determinant of a_i = -w_i, b_j = w_j + lambda_j, so the factors of
# gaussian_cauchy_factors at alpha = -Re w, beta = Re w + lambda, x = Im w

def det_value(w, lam):
    """The determinant at the single point w."""
    w = np.asarray(w, dtype=complex)
    return factor_grid(*cauchy_factors(-w.real, w.real + lam.parts, w.imag)).item()


def test_interaction_det_single():
    assert det_value([0.5j], Partition((3,))) == pytest.approx(1.0 / 3.0)


def test_interaction_det_equal_w_is_zero():
    # rows coincide when the w's do
    val = det_value([0.0, 0.0], Partition((2, 1)))
    assert abs(val) < 1e-15


def test_interaction_det_shift_invariance():
    lam = Partition((3, 2))
    w = np.array([0.4j, -1.1j])
    v0 = det_value(w, lam)
    v1 = det_value(w + 0.77j, lam)
    assert v1 == pytest.approx(v0, rel=1e-12)


def _cofactor_det(M):
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1) ** j * M[0, j] * _cofactor_det(minor)
    return total


def test_interaction_det_against_cofactor_expansion():
    rng = np.random.default_rng(13)
    for parts in [(2,), (2, 1), (3, 2), (3, 2, 1), (2, 2, 2)]:
        lam = Partition(parts)
        ell = lam.length
        w = 1j * rng.normal(size=ell) + rng.normal(size=ell) * 0.1
        mat = np.empty((ell, ell), dtype=complex)
        for i in range(ell):
            for j in range(ell):
                mat[i, j] = 1.0 / (w[j] + parts[j] - w[i])
        ref = _cofactor_det(mat)
        val = det_value(w, lam)
        assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))
        assert abs(val - cauchy_det_direct(-w, w + parts)) <= 1e-12 * max(1.0, abs(ref))


def _partition_tables(monkeypatch, parts, T=2.0, nodes=12):
    """The factor tables _partition_term hands to the tensor driver."""
    seen = []

    def spy(f, rules):
        seen.append(f(*(r.nodes for r in rules)))
        return 1.0

    monkeypatch.setattr(kpz_side, "tensor_integrate", spy)
    _partition_term(Partition(parts), T, nodes)
    return seen[0]


@pytest.mark.parametrize("parts", [(1, 1), (1, 1, 1), (1, 1, 1, 1)])
def test_all_ones_tables_real_and_non_negative(monkeypatch, parts):
    # no phase on any axis and the pair factor d^2/(1 + d^2): the
    # contraction is real from the start
    axis, pairs = _partition_tables(monkeypatch, parts)
    assert all(t.dtype == np.float64 and np.all(t >= 0) for t in [*axis, *pairs.values()])


def test_mixed_part_tables_complex_equal_part_pairs_real(monkeypatch):
    axis, pairs = _partition_tables(monkeypatch, (2, 2, 1))
    assert all(t.dtype == np.complex128 for t in axis[:2]) and axis[2].dtype == np.float64
    assert pairs[0, 1].dtype == np.float64
    assert pairs[0, 2].dtype == pairs[1, 2].dtype == np.complex128


# ----------------------------------------------------------------------
# h = sum of monomial symmetric functions (the combinatorial backbone)

def _h_direct(xs, k):
    return sum(math.prod(c) for c in itertools.combinations_with_replacement(xs, k))


def _monomial_sym(xs, lam):
    n = len(xs)
    if len(lam) > n:
        return 0.0
    exps = tuple(lam) + (0,) * (n - len(lam))
    total = 0.0
    for perm in set(itertools.permutations(exps)):
        total += math.prod(x ** e for x, e in zip(xs, perm))
    return total


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_h_equals_sum_of_monomials(k):
    xs = (0.9, 0.5, 0.2)
    direct = _h_direct(xs, k)
    expanded = sum(_monomial_sym(xs, p.parts) for p in partitions(k))
    assert abs(direct - expanded) <= 1e-12 * max(1.0, abs(direct))


# ----------------------------------------------------------------------
# moments

@pytest.mark.parametrize("T", [0.5, 2.0, 8.0])
def test_kpz_moment_k1_closed_form(T):
    closed = math.exp(T / 24.0) / math.sqrt(2.0 * math.pi * T)
    assert abs(kpz_moment(1, T) - closed) <= 1e-8 * closed


def test_kpz_moment_k1_matches_airy():
    assert kpz_moment(1, 2.0) == pytest.approx(airy_h_moment(1, 1.0), rel=1e-10)


def test_kpz_moment_k2_matches_airy():
    lhs = airy_h_moment(2, 1.0)
    rhs = kpz_moment(2, 2.0)
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


@pytest.mark.parametrize("C", [0.6, 1.0, 1.4, 2.0])
def test_moment_k2_closed_form(C):
    # both k = 2 partition integrals reduce to closed form; with
    # g = sqrt(pi/T) e^{T/4} / (4 pi):
    # E = exp(T/12) [(1/(2 pi T) - g erfc(sqrt(T)/2)) / 2 + g]
    T = 2.0 * C ** 3
    g = math.sqrt(math.pi / T) * math.exp(T / 4.0) / (4.0 * math.pi)
    closed = math.exp(T / 12.0) * (
        (1.0 / (2.0 * math.pi * T) - g * math.erfc(math.sqrt(T) / 2.0)) / 2.0 + g)
    assert kpz_moment(2, T) == pytest.approx(closed, rel=1e-9)
    assert airy_h_moment(2, C) == pytest.approx(closed, rel=1e-9)


def test_kpz_moment_node_doubling():
    v = kpz_moment(2, 2.0, nodes_per_axis=64)
    v2 = kpz_moment(2, 2.0, nodes_per_axis=128)
    assert abs(v - v2) < 1e-9


def test_kpz_moment_contraction_matches_pointwise_sum(monkeypatch):
    # k = 3 at C = 0.6 with 64 nodes per axis: the (1,1,1) partition's
    # contraction against the same factors summed point by point
    T = 2.0 * 0.6 ** 3
    fast = kpz_moment(3, T, nodes_per_axis=64)
    dims = []

    def full_grid(f, rules):
        dims.append(len(rules))
        return pointwise_sum(f, rules).real

    monkeypatch.setattr(kpz_side, "tensor_integrate", full_grid)
    assert fast == pytest.approx(kpz_moment(3, T, nodes_per_axis=64), rel=1e-13)
    assert dims == [1, 2, 3]


def _record_orders(monkeypatch):
    """Per-axis Hermite order of each tensor integral kpz_side runs, in call order."""
    orders = []

    def spy(f, rules):
        rules = list(rules)
        assert len({len(r) for r in rules}) == 1
        orders.append(len(rules[0]))
        return tensor_integrate(f, rules)

    monkeypatch.setattr(kpz_side, "tensor_integrate", spy)
    return orders


def _term_orders(orders, k, T, nodes_per_axis=None):
    orders.clear()
    kpz_moment(k, T, nodes_per_axis)
    return dict(zip((lam.parts for lam in partitions(k)), orders))


def test_hermite_orders_of_the_readme_grid_and_the_bench_k4_terms(monkeypatch):
    orders = _record_orders(monkeypatch)
    # verify-theorem2 --C 0.6,1.0,1.4 --k-max 3: the pole rule lifts these
    # terms above the floor of 48 (C = 0.6 to the cap of 256)
    lifted = {0.6: {(1, 1): 256, (2, 1): 186, (1, 1, 1): 256},
              1.0: {(1, 1): 81, (1, 1, 1): 81}, 1.4: {}}
    for C, special in lifted.items():
        for k in (1, 2, 3):
            assert _term_orders(orders, k, 2.0 * C ** 3) == {
                lam.parts: special.get(lam.parts, 48) for lam in partitions(k)}
    # k = 4 at 32 nodes: the 1-d (4,) term takes its phase floor ceil(9T) + 16
    for C, n4 in ((0.6, 32), (1.0, 34), (1.4, 66)):
        assert _term_orders(orders, 4, 2.0 * C ** 3, 32) == {
            lam.parts: n4 if lam.parts == (4,) else 32 for lam in partitions(4)}


def test_explicit_order_above_the_hermite_cap_raises_on_every_term(monkeypatch):
    # the 1-d terms used to drop an explicit 300 to 256 silently while the
    # tensor terms raised; up to 256 an explicit order is kept or lifted
    # to the phase floor as before
    orders = _record_orders(monkeypatch)
    assert _term_orders(orders, 4, 16.0, 100) == {(4,): 160, (3, 1): 100, (2, 2): 100,
                                                  (2, 1, 1): 100, (1, 1, 1, 1): 100}
    assert _term_orders(orders, 3, 16.0, 256) == {(3,): 256, (2, 1): 256, (1, 1, 1): 256}
    for k in (1, 2):
        with pytest.raises(ConfigurationError, match=r"order must be in \[1, 256\], got 300"):
            kpz_moment(k, 2.0, nodes_per_axis=300)


@pytest.mark.parametrize("n", [0, -5])
def test_explicit_order_below_one_raises_on_every_term(n):
    # refused before a 1-d term's lift to its phase floor, which would hide it
    for call in (lambda: kpz_moment(1, 2.0, nodes_per_axis=n),
                 lambda: kpz_moment(2, 2.0, nodes_per_axis=n),
                 lambda: laplace_R([1.0], n), lambda: laplace_R([1.0, 2.0], n)):
        with pytest.raises(ConfigurationError, match="nodes_per_axis must be an integer >= 1"):
            call()


@pytest.mark.parametrize("C", [0.6, 1.0, 1.4])
def test_partition_term_matches_laplace_R(C):
    # the paper's per-partition match: the KPZ residue term of lambda at
    # T = 2C^3, times e^{kT/24}, is R_l(C lambda) (worst measured gap
    # 2.75e-10, at (2, 1), C = 1).  An all-ones term agrees by construction
    # (within 7.5e-16): z = C t maps its integral onto laplace_R's, so both
    # sides evaluate one discrete sum, and its agreement shows no convergence
    T = 2.0 * C ** 3
    for k in (1, 2, 3):
        for lam in partitions(k):
            assert _partition_term(lam, T) * math.exp(k * T / 24.0) == pytest.approx(
                laplace_R([C * p for p in lam.parts]), rel=1e-9)


def test_kpz_moment_validation():
    # k = 5 is outside the supported orders, and a float or bool k is not an order
    for k in (0, 5, 2.0, True):
        with pytest.raises(ConfigurationError):
            kpz_moment(k, 2.0)
    with pytest.raises(DomainError):
        kpz_moment(2, -1.0)


def test_kpz_moment_prefactor_overflow_is_a_domain_error():
    # the (4,) term's prefactor at T = 128 is exp(896), beyond double precision
    with pytest.raises(DomainError, match=r"partition \(4,\) at T = 128"):
        kpz_moment(4, 128.0)
    # so is the normalization exp(kT/24) at k = 1, T = 2e4: exp(833)
    with pytest.raises(DomainError, match=r"kpz_moment\(1, 20000.0\): its normalization"):
        kpz_moment(1, 2e4)
    with pytest.raises(DomainError, match=r"kpz_moment_nested\(1, 20000.0\)"):
        kpz_moment_nested(1, 2e4)
    # T = inf passes T > 0, but its normalization exp(inf) is not a number
    with pytest.raises(DomainError, match=r"kpz_moment\(1, inf\): its normalization"):
        kpz_moment(1, math.inf)
    # the nested integrand peaks at exp((T/2) sum a_j^2) on its contours:
    # exp(1000) at k = 1, T = 8000 and exp(742.5) at k = 3, T = 90 (default
    # offsets 0.5 and 3.5, 2, 0.5), while the normalizations stay finite
    with pytest.raises(DomainError, match=r"nested\(1, 8000.0\): its contour prefactor"):
        kpz_moment_nested(1, 8000.0)
    with pytest.raises(DomainError, match=r"nested\(3, 90.0\): its contour prefactor"):
        kpz_moment_nested(3, 90.0)


# ----------------------------------------------------------------------
# nested contours

def test_contour_spec_validation():
    # the contours are given as exactly k offsets, each more than 1 below its
    # predecessor, so the interaction poles z_A - z_B = 1 stay off-contour
    for offsets in [(3.5, 2.0, 0.5), (2.0, 1.5), (0.5, 2.0), [[2.0, 0.5]]]:
        with pytest.raises(ConfigurationError):
            kpz_moment_nested(2, 2.0, offsets)
    # the default contours are the admissible offsets (2.0, 0.5) at k = 2
    assert kpz_moment_nested(2, 2.0, [2.0, 0.5]) == kpz_moment_nested(2, 2.0)


def test_nested_k1_offset_independence():
    T = 2.0
    closed = math.exp(T / 24.0) / math.sqrt(2.0 * math.pi * T)
    vals = []
    for a1 in (0.5, 1.0, 2.0):
        vals.append(kpz_moment_nested(1, T, (a1,)))
    assert max(vals) - min(vals) < 1e-9
    for v in vals:
        assert abs(v - closed) <= 1e-8 * closed


def test_nested_k2_matches_expansion():
    lhs = kpz_moment_nested(2, 2.0)
    rhs = kpz_moment(2, 2.0)
    assert abs(lhs - rhs) <= 1e-5 * abs(rhs)


def test_nested_validation():
    for k in (0, 4, 2.0, True):
        with pytest.raises(ConfigurationError):
            kpz_moment_nested(k, 2.0)
    with pytest.raises(ConfigurationError):
        kpz_moment_nested(2, 2.0, (2.0,))


@pytest.mark.parametrize("k, T", [(3, 2.0 * 1.4 ** 3), (2, 16.0)])
def test_nested_lost_to_cancellation_raises(k, T):
    # the nested sums cancel to -6.0e11 and -3.27 here, against Airy-side
    # moments 15.75 and 7.31: a moment is positive, so these must raise
    with pytest.raises(NumericalConsistencyError, match="is not positive"):
        kpz_moment_nested(k, T)


# ----------------------------------------------------------------------
# Laplace-transform kernel and determinant

def test_ku_kernel_symmetry():
    p = ModelParams.from_C(1.0, 1.0)
    assert ku_kernel(0.7, 2.1, p) == pytest.approx(ku_kernel(2.1, 0.7, p), rel=1e-12)


def test_ku_kernel_vanishes_with_u():
    vals = [ku_kernel(0.5, 0.5, ModelParams.from_C(1.0, u)) for u in (1.0, 1e-3, 1e-6)]
    assert vals[0] > vals[1] > vals[2] > 0
    assert vals[2] < 1e-6


def test_ku_kernel_flip_variable_oracle():
    # same kernel through the mirrored integral f(y) Ai(x+y) Ai(x'+y) dy
    # on an independently built grid
    from airykpz.specfun import airy_both, logistic
    p = ModelParams.from_C(1.0, 2.0)
    x, xp = 0.4, 1.3
    lo = -(20.0 + abs(math.log(p.u))) / p.C - max(x, xp)
    hi = 12.0 + max(x, xp)
    rule = composite_legendre(lo, hi, int(math.ceil((hi - lo) / 0.8)), 12)
    y = rule.nodes
    f = logistic(p.C * y + math.log(p.u))
    ax, _ = airy_both(x + y)
    axp, _ = airy_both(xp + y)
    oracle = float(np.sum(rule.weights * f * ax * axp))
    assert ku_kernel(x, xp, p) == pytest.approx(oracle, abs=1e-10)


def test_ku_kernel_domain_errors():
    p = ModelParams.from_C(1.0, 1.0)
    with pytest.raises(DomainError):
        ku_kernel(-0.1, 0.5, p)
    with pytest.raises(DomainError):
        ku_kernel(0.5, 0.5, ModelParams.from_C(1.0, 0.0))


def test_default_inner_rule_rejects_tiny_C():
    # the hinted C is accepted at any node count
    for C, u, hint in [(0.3, 1.0, 0.7), (0.5, 10.0, 0.78), (0.2, 1e-5, 0.9), (0.1, 1e5, 1.09)]:
        with pytest.raises(ConfigurationError, match=f"beyond its supported range.*"
                                                     f"use C >= {hint:.2f}"):
            kpz_laplace(ModelParams.from_C(C, u))
        for nodes in (80, 200):
            assert 0.0 < kpz_laplace(ModelParams.from_C(hint, u), nodes) <= 1.0


def test_kpz_laplace_u0():
    assert kpz_laplace(ModelParams.from_C(1.0, 0.0)) == 1.0


def test_kpz_laplace_decreasing_in_u():
    vals = [kpz_laplace(ModelParams.from_C(1.0, u)) for u in (0.0, 0.5, 1.0, 4.0)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_theorem1_point_match():
    # independent kernels, independent grids
    p = ModelParams.from_T(2.0, 1.0)
    lhs = airy_mult_stat(p)
    rhs = kpz_laplace(p)
    assert abs(lhs - rhs) < 1e-8


def test_kpz_laplace_outer_doubling():
    p = ModelParams.from_C(1.0, 1.0)
    v80 = kpz_laplace(p, nodes=80)
    v160 = kpz_laplace(p, nodes=160)
    assert abs(v80 - v160) < 1e-9


# kpz_laplace's 80-node outer rule at C = 1, u = 1: [0, 22/C]
OUTER_C1_U1 = legendre_on(0.0, 22.0, 80)


def test_kpz_laplace_truncated_inner_rule_raises():
    # an inner rule that stops at r = 5 cuts off the Fermi tail of K_u;
    # unchecked, the determinant reads 0.79488 against the true 0.79069
    p = ModelParams.from_C(1.0, 1.0)
    with pytest.raises(NumericalConsistencyError):
        _ku_matrix(OUTER_C1_U1.nodes, p, composite_legendre(-30.0, 5.0, 35, 10))


def test_kpz_laplace_inner_rule_beyond_airy_range_raises():
    # r up to 65 puts x - r below -60 at the outer nodes near x = 0, and r
    # down to -45 puts it above +60 at the outer nodes near x = 22; the
    # range check on both sides is airy_both's, reached through the K_u grid
    p = ModelParams.from_C(1.0, 1.0)
    for lo, hi in ((-30.0, 65.0), (-45.0, 42.0)):
        with pytest.raises(DomainError, match="airy argument outside"):
            _ku_matrix(OUTER_C1_U1.nodes, p, composite_legendre(lo, hi, int(hi - lo), 10))


def _ku_grids(monkeypatch, cells):
    """(params, outer nodes, inner rule) of every K_u that kpz_laplace
    builds over ``cells`` of (C, u, nodes), the cells it rejects left out."""
    seen = []

    def spy(xs, params, inner_rule):
        seen.append((params, xs, inner_rule))
        return real(xs, params, inner_rule)

    real = kpz_side._ku_matrix
    monkeypatch.setattr(kpz_side, "_ku_matrix", spy)
    for C, u, nodes in cells:
        try:
            kpz_laplace(ModelParams.from_C(C, u), nodes)
        except ConfigurationError:
            pass
    return seen


def test_ku_inner_rule_starts_at_minus_12_inside_the_airy_range(monkeypatch):
    # for x >= 0 and r < -12, Ai(x - r) < Ai(12) ~ 1.4e-13; with the left
    # edge at -12 every argument the accepted cells need lies in [-60, 60]
    cells = list(itertools.product((0.5, 0.8, 1.0, 1.6, 4.0), (1e-4, 1.0, 1e4), (40, 120)))
    grids = _ku_grids(monkeypatch, cells)
    assert len(grids) >= 18
    assert max(xs[-1] for _, xs, _ in grids) > 24.0     # where -(12 + x_max) would leave it
    for params, xs, inner in grids:
        assert -12.0 < inner.nodes[0] < -11.9
        assert np.sum(inner.weights) == pytest.approx(
            (20.0 + abs(math.log(params.u))) / params.C + xs[-1] + 12.0, rel=1e-13)
        args = np.subtract.outer(xs, inner.nodes)
        assert -60.0 <= args.min() and args.max() <= 60.0


def test_ku_matrix_left_edge_at_minus_12_loses_nothing(monkeypatch):
    # the same rule with unit panels prepended down to -(12 + x_max): every
    # entry moves by at most 1e-14 of its Gram bound sqrt(K_ii K_jj), which
    # on the diagonal is the entry itself.  Off the diagonal some entries
    # cancel to ~1e-28 from terms ~1e-13, so a bare relative gap there
    # measures roundoff, not truncation
    cells = [(1.0, 1e-3, 80), (1.0, 1.0, 120), (1.6, 0.1, 80), (1.6, 1e3, 40),
             (3.0, 10.0, 120)]
    grids = _ku_grids(monkeypatch, cells)
    assert len(grids) == len(cells)
    for params, xs, inner in grids:
        assert -12.0 < inner.nodes[0] < -11.9
        m = math.ceil(xs[-1])
        left = composite_legendre(-12.0 - m, -12.0, m, 10)
        extended = QuadratureRule(np.concatenate([left.nodes, inner.nodes]),
                                  np.concatenate([left.weights, inner.weights]))
        K = _ku_matrix(xs, params, inner)
        K_ext = _ku_matrix(xs, params, extended)
        scale = np.sqrt(np.outer(np.diag(K_ext), np.diag(K_ext)))
        assert np.all(np.abs(K - K_ext) <= 1e-14 * scale)
