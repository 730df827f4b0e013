import itertools
import math
import re

import numpy as np
import pytest

from airykpz import airy_side
from airykpz.airy_side import (_h_rule, airy_h_moment, airy_h_moments, airy_kernel_matrix,
                               airy_mult_stat, laplace_R)
from airykpz.errors import ConfigurationError, DomainError, NumericalConsistencyError
from airykpz.kpz_side import kpz_moment, kpz_moment_nested, kpz_moments
from airykpz import kpz_side
from airykpz.params import ModelParams
from airykpz.quadrature import (LOG_DET_WORDS, QuadratureRule, composite_legendre, fredholm_det_matrix,
                                legendre_on)

import pointwise
from pointwise import (bose_exponent, cauchy_det_direct, cauchy_factors, compositions,
                       cycle_trace, factor_grid, kpz_blocks, ku_kernel, ku_matrix_on,
                       kpz_laplace_reference, log_det_series_by_cycles, log_det_series_of,
                       one_u_laplace, partition_term, partitions, symmetry_factor)


# ----------------------------------------------------------------------
# partitions (the test references' partition expansion)

def test_partitions_k1():
    assert partitions(1) == [(1,)]


def test_partitions_k4_descending_lex():
    assert partitions(4) == [
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
    # partitions builds only valid tuples: distinct, of nonincreasing
    # positive int parts that sum to k
    for k in range(1, 21):
        parts = partitions(k)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert type(lam) is tuple and all(type(p) is int and p > 0 for p in lam)
            assert list(lam) == sorted(lam, reverse=True)
            assert sum(lam) == k


def test_partition_validation():
    # a part that is not positive is refused by the Gaussian-Cauchy
    # integral's sigma_ij > 0 check, at its diagonal sigma_jj = lambda_j
    with pytest.raises(DomainError, match=r"pair \(1, 1\)"):
        partition_term((2, 0), 2.0)
    with pytest.raises(ConfigurationError):
        partitions(0)
    with pytest.raises(ConfigurationError):
        partitions(21)


def test_symmetry_factor():
    assert symmetry_factor((3, 1)) == 1
    assert symmetry_factor((1, 1, 1, 1)) == 24
    assert symmetry_factor((2, 2, 1)) == 2
    assert symmetry_factor((3, 3, 2, 2, 2, 1)) == 12


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
# determinant of a_i = -w_i, b_j = w_j + lambda_j, so the factors of the
# reference gaussian_cauchy_integral at alpha = -Re w, beta = Re w + lambda,
# x = Im w

def det_value(w, parts):
    """The determinant at the single point w."""
    w = np.asarray(w, dtype=complex)
    return factor_grid(*cauchy_factors(-w.real, w.real + parts, w.imag)).item()


def test_interaction_det_single():
    assert det_value([0.5j], (3,)) == pytest.approx(1.0 / 3.0)


def test_interaction_det_equal_w_is_zero():
    # rows coincide when the w's do
    val = det_value([0.0, 0.0], (2, 1))
    assert abs(val) < 1e-15


def test_interaction_det_shift_invariance():
    lam = (3, 2)
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
        ell = len(parts)
        w = 1j * rng.normal(size=ell) + rng.normal(size=ell) * 0.1
        mat = np.empty((ell, ell), dtype=complex)
        for i in range(ell):
            for j in range(ell):
                mat[i, j] = 1.0 / (w[j] + parts[j] - w[i])
        ref = _cofactor_det(mat)
        val = det_value(w, parts)
        assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))
        assert abs(val - cauchy_det_direct(-w, w + parts)) <= 1e-12 * max(1.0, abs(ref))


def _partition_tables(monkeypatch, parts, T=2.0, nodes=12):
    """The factor tables the reference partition_term hands to the tensor driver."""
    seen = []

    def spy(f, rules):
        seen.append(f(*(r.nodes for r in rules)))
        return 1.0

    monkeypatch.setattr(pointwise, "tensor_integrate", spy)
    partition_term(parts, T, nodes)
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
    expanded = sum(_monomial_sym(xs, p) for p in partitions(k))
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


def test_kpz_moment_contraction_matches_pointwise_sum():
    # k = 4 at C = 0.6 with 64 nodes per contour: the series' O(n^2) traces
    # (Cauchy-displacement products, one sum over pairs of nodes each)
    # against every composition's cycle trace by dense products
    T = 2.0 * 0.6 ** 3
    d, F = zip(*(kpz_side._contour(n, T, 64) for n in range(1, 5)))
    blocks = kpz_blocks(T, 4, 64)
    fast = log_det_series_of(kpz_side._cycle_traces(list(d), list(F)), 4)
    dense = log_det_series_by_cycles(lambda n, m: blocks[n, m], 4)
    assert fast == pytest.approx([x.real for x in dense], rel=1e-13)
    assert max(abs(x.imag) / abs(x) for x in dense) < 1e-15


def _record_counts(monkeypatch):
    """The node count of each contour kpz_side builds, in call order."""
    counts, real = [], kpz_side.trapezoid_axis

    def spy(*args):
        counts.append(len(real(*args)))
        return real(*args)

    monkeypatch.setattr(kpz_side, "trapezoid_axis", spy)
    return counts


def _contour_counts(counts, k, T, nodes_per_axis=None):
    counts.clear()
    kpz_moment(k, T, nodes_per_axis)
    return list(counts)


def test_hermite_orders_of_the_readme_grid_and_the_bench_k4_terms(monkeypatch):
    # the orders (node counts) of the Hermite-weight axes e^{-s x^2}, one
    # trapezoid rule per contour: each follows its Gaussian scale Tn/2, its
    # phase and its nearest pole, uncapped
    counts = _record_counts(monkeypatch)
    # verify-theorem2 --C 0.6,1.0,1.4 --k-max 3
    readme = {0.6: [165, 83, 55], 1.0: [79, 43, 33], 1.4: [51, 31, 29]}
    for C, expect in readme.items():
        for k in (1, 2, 3):
            assert _contour_counts(counts, k, 2.0 * C ** 3) == expect[:k]
    # k = 4 at 32 nodes: every contour takes exactly 32
    for C in (0.6, 1.0, 1.4):
        assert _contour_counts(counts, 4, 2.0 * C ** 3, 32) == [32] * 4
    # by default no contour is capped
    assert _contour_counts(counts, 4, 2.0 * 0.6 ** 3) == [165, 83, 55, 41]


def test_explicit_count_binds_every_contour_up_to_the_memory_bound(monkeypatch):
    # an explicit count is exactly the count of every contour, contour 1
    # included (no floor at its default count).  The blocks of order n pair
    # contours a and n - a; at 3663 nodes five complex tables of 3663^2
    # entries fit in 2^30 bytes, at 3664 they do not, and every order from
    # 2 up is refused before any contour past the first or any block is built
    counts = _record_counts(monkeypatch)
    assert _contour_counts(counts, 4, 2.0, 20) == [20] * 4
    assert _contour_counts(counts, 1, 2.0, 300) == [300]
    # l = (1, 0, 0, 0) stands in for the traces: h_k = 1/k!.  At T = 2 so
    # many nodes would underflow the outer weights of contours 2 to 4
    built = []
    monkeypatch.setattr(kpz_side, "_cycle_traces", lambda d, F: built.append(
        [len(x) for x in d]) or {word: (float(word == (1,)), 0.0) for word in LOG_DET_WORDS})
    assert kpz_moments(4, 0.02, 3663) == pytest.approx([1.0, 1 / 2, 1 / 6, 1 / 24])
    assert built == [[3663] * 4]
    counts.clear()
    one, *refused = kpz_moments(4, 0.02, 3664)
    assert one == 1.0 and built[-1] == [3664] and counts == [3664]
    assert all(type(r) is ConfigurationError for r in refused)
    assert str(refused[0]) == ("kpz_moment(2, 0.02): a block of 13424896 entries exceeds "
                               "the 13421772 one series may hold; use fewer nodes per axis")
    with pytest.raises(ConfigurationError, match="one series may hold"):
        kpz_moment(2, 0.02, 3664)


@pytest.mark.parametrize("n", [0, -5])
def test_explicit_order_below_one_raises_on_every_term(n):
    # refused by name, on one contour and on a tensor axis alike
    for call in (lambda: kpz_moment(1, 2.0, nodes_per_axis=n),
                 lambda: kpz_moment(2, 2.0, nodes_per_axis=n),
                 lambda: laplace_R([1.0], n), lambda: laplace_R([1.0, 2.0], n)):
        with pytest.raises(ConfigurationError, match="nodes_per_axis must be an integer >= 1"):
            call()


@pytest.mark.parametrize("C", [0.6, 1.0, 1.4, 2.0, 2.5, 3.0, 4.0])
def test_partition_term_matches_laplace_R(C):
    # the paper's per-partition match, with the KPZ side's partition
    # expansion in the test references: the residue term of lambda at
    # T = 2C^3, times e^{kT/24}, is R_l(C lambda).  A term with a part above
    # 1 sits on shifted contours that laplace_R's discrete sum does not
    # share (worst measured gap 1.9e-13, at (4,), C = 4).  An all-ones term
    # agrees by construction: z = C t maps its integral onto laplace_R's, so
    # both sides evaluate one discrete sum (within 7e-16), and its agreement
    # shows no convergence.  Four parts are past the tensor layer's three
    # axes; test_kpz_cycle_traces_match_airy_chain_traces covers k = 4,
    # (1, 1, 1, 1) included, with distinct kernels
    T = 2.0 * C ** 3
    for k in (1, 2, 3, 4):
        for lam in (lam for lam in partitions(k) if len(lam) < 4):
            assert partition_term(lam, T) * math.exp(k * T / 24.0) == pytest.approx(
                laplace_R([C * p for p in lam]), rel=1e-12)


@pytest.mark.parametrize("C", [0.6, 1.0, 1.4, 2.0, 2.5, 3.0, 4.0])
def test_kpz_cycle_traces_match_airy_chain_traces(C, monkeypatch):
    # the paper's match at the level of cycles, measured here and not
    # proved: each KPZ cycle trace tr(A_{n1 n2} ... A_{nj n1}) on kpz_side's
    # contours equals the Airy u-series chain trace tr(S G^{n1-1} ... S
    # G^{nj-1}) on airy_h_moments' grid, for all 15 compositions of n <= 4
    # (n <= 3 at C = 4, past which the Airy grid leaves its range).  Two
    # kernels on two grids, the all-ones cycles included; the worst
    # measured gaps are 8.5e-15 at C = 0.6, 1.2e-14 at 1 and 4.8e-14 at 3
    n_max = 4 if C < 4.0 else 3
    blocks = kpz_blocks(2.0 * C ** 3, n_max)
    rule = _h_rule(n_max, C, None)
    g = np.exp(C * rule.nodes)
    s = np.sqrt(rule.weights * g)
    S = airy_kernel_matrix(rule.nodes) * np.multiply.outer(s, s)
    for n in range(1, n_max + 1):
        for comp in compositions(n):
            kpz = cycle_trace(lambda a, b: blocks[a, b], comp)
            airy = cycle_trace(lambda a, b: S * g ** (a - 1), comp)
            assert abs(kpz - airy) <= 1e-13 * abs(airy), comp
    # and on the code that computes the moments: the word traces that
    # kpz_moments and airy_h_moments hand to quadrature.log_det_moments
    # (worst measured gaps 1.2e-14 at C = 0.6 and 1, 4.8e-14 at 3)
    seen, chain = [], airy_side._chain_traces
    monkeypatch.setattr(airy_side, "_chain_traces",
                        lambda *args: seen.append(chain(*args)) or seen[-1])
    airy_h_moments(n_max, C)
    [airy] = seen
    d, F = zip(*(kpz_side._contour(n, 2.0 * C ** 3, None) for n in range(1, n_max + 1)))
    kpz = kpz_side._cycle_traces(list(d), list(F))
    assert sorted(kpz) == sorted(w for w in LOG_DET_WORDS if sum(w) <= n_max)
    for word, (trace, _) in kpz.items():
        assert abs(trace - airy[word][0]) <= 1e-13 * abs(airy[word][0]), word


def test_kpz_moment_is_the_last_entry_of_its_series():
    T = 2.0 * 1.4 ** 3
    for k in (1, 2, 3, 4):
        assert kpz_moment(k, T) == kpz_moments(k, T)[-1]
        assert kpz_moments(k, T) == kpz_moments(4, T)[:k]


def test_uncapped_k4_meets_the_airy_side_at_C_0_6():
    # the partition expansion's (1, 1, 1, 1) term, on a 4-d tensor grid
    # capped at 56 nodes per axis, was 1.3e-10 off airy_h_moment here; the
    # series' contours are uncapped (measured 2.1e-15 off)
    assert kpz_moment(4, 2.0 * 0.6 ** 3) == pytest.approx(airy_h_moment(4, 0.6), rel=1e-13)


def test_contour_factor_is_the_bose_exponent():
    # F_n(t) 2 pi/weight(t) is e^{nT/24} times exp((T/2) sum_{j<n} (w + j)^2)
    # at w = -sigma_n + it, over the Gaussian e^{-(Tn/2) t^2} in the weight
    T = 2.0 * 1.4 ** 3
    for n in (1, 2, 3, 4):
        d, F = kpz_side._contour(n, T, 9)
        rule = kpz_side.trapezoid_axis(T * n / 2.0, 0.1 * T * n * (n - 1) / 2.0,
                                       min(1.0 + 0.45 * (n - 1), n - 0.45 * (n - 1)), 9)
        assert np.array_equal(d.imag, -rule.nodes)
        w = -d.real + 1j * rule.nodes
        expect = np.exp([bose_exponent(x, n, T) + n * T / 24.0 + T * n * t * t / 2.0
                         for x, t in zip(w, rule.nodes)])
        assert np.allclose(F * 2.0 * math.pi / rule.weights, expect, rtol=1e-13, atol=0)


@pytest.mark.parametrize("C", [2.0, 2.5, 3.0, 4.0])
def test_shifted_contours_meet_the_airy_side_at_large_C(C):
    # on the shifted contours every cell airy_h_moment accepts (k = 4 at
    # C = 4 is past its Airy range) is within 1.4e-13 of it; on the
    # imaginary axis C = 2, k = 3 was 2.8e-6 off, and C = 2.5 and 3 at
    # k >= 3 and C = 4 at k >= 2 were lost to cancellation
    for k in range(1, 5 if C < 4.0 else 4):
        assert kpz_moment(k, 2.0 * C ** 3) == pytest.approx(airy_h_moment(k, C), rel=1e-12)


@pytest.mark.parametrize("k, T", [(2, 128.0), (3, 54.0)])
def test_positive_kpz_moments_lost_to_cancellation_raise(monkeypatch, k, T):
    # C = 4, k = 2 and C = 3, k = 3 on the unshifted contours (theta = 0):
    # the phase T k(k-1)/2 of contour k makes l_k's roundoff bound
    # eps sum |terms| 1.8e-2 and 1.4 of it.  Under the partition expansion
    # these sums came out positive and wrong (2.45e-2 off, and 2.6e44
    # against 2.5e24), so only the cancellation gate refuses them, naming
    # the order
    monkeypatch.setattr(kpz_side, "_CONTOUR_SHIFT", 0.0)
    with pytest.raises(NumericalConsistencyError,
                       match=re.escape(f"kpz_moment({k}, {T}): l_{k} = ")
                       + ".* is lost to cancellation"):
        kpz_moment(k, T)


def test_kpz_moment_validation():
    # k = 5 is outside the supported orders, and a float or bool k is not an order
    for k in (0, 5, 2.0, True):
        with pytest.raises(ConfigurationError):
            kpz_moment(k, 2.0)
    with pytest.raises(DomainError):
        kpz_moment(2, -1.0)


def test_kpz_moment_prefactor_overflow_is_a_domain_error():
    # contour 4's prefactor at T = 300 is exp(763.5), times the normalization
    # exp(50), beyond double precision: order 4 is refused and the orders
    # below keep their values
    with pytest.raises(DomainError, match=r"kpz_moment\(4, 300.0\): its normalization and "
                                          r"contour prefactor exp\(813.5\) overflows"):
        kpz_moment(4, 300.0)
    *below, refused = kpz_moments(4, 300.0)
    assert type(refused) is DomainError and all(type(v) is float for v in below)
    # so is the normalization exp(kT/24) at k = 1, T = 2e4: exp(833)
    with pytest.raises(DomainError, match=r"kpz_moment\(1, 20000.0\): its normalization"):
        kpz_moment(1, 2e4)
    with pytest.raises(DomainError, match=r"kpz_moment_nested\(1, 20000.0\)"):
        kpz_moment_nested(1, 2e4)
    # T = inf is no KPZ time: ModelParams refuses it before any exp
    with pytest.raises(DomainError, match=r"^ModelParams requires T > 0 and finite, got inf"):
        kpz_moment(1, math.inf)
    # the nested integrand peaks at exp((T/2) sum a_j^2) on its contours:
    # exp(1000) at k = 1, T = 8000 on offset 0.5 and exp(742.5) at k = 3,
    # T = 90 on offsets 3.5, 2, 0.5, while the normalizations stay finite
    with pytest.raises(DomainError, match=r"nested\(1, 8000.0\): its contour prefactor"):
        kpz_moment_nested(1, 8000.0, (0.5,))
    with pytest.raises(DomainError, match=r"nested\(3, 90.0\): its contour prefactor"):
        kpz_moment_nested(3, 90.0, (3.5, 2.0, 0.5))


# ----------------------------------------------------------------------
# nested contours

def test_contour_spec_validation():
    # the contours are given as exactly k offsets, each more than 1 below its
    # predecessor, so the interaction poles z_A - z_B = 1 stay off-contour
    for offsets in [(3.5, 2.0, 0.5), (2.0, 1.5), (0.5, 2.0), [[2.0, 0.5]]]:
        with pytest.raises(ConfigurationError):
            kpz_moment_nested(2, 2.0, offsets)
    # the default contours at k = 2, T = 2 are centred on the saddle, spaced 2
    assert kpz_moment_nested(2, 2.0, [1.0, -1.0]) == kpz_moment_nested(2, 2.0)


def test_nested_k1_offset_independence():
    T = 2.0
    closed = math.exp(T / 24.0) / math.sqrt(2.0 * math.pi * T)
    vals = []
    for a1 in (0.5, 1.0, 2.0):
        vals.append(kpz_moment_nested(1, T, (a1,)))
    assert max(vals) - min(vals) < 1e-12 * closed
    for v in vals:
        assert abs(v - closed) <= 1e-12 * closed


def test_nested_k2_matches_expansion():
    lhs = kpz_moment_nested(2, 2.0)
    rhs = kpz_moment(2, 2.0)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_nested_validation():
    for k in (0, 4, 2.0, True):
        with pytest.raises(ConfigurationError):
            kpz_moment_nested(k, 2.0)
    with pytest.raises(ConfigurationError):
        kpz_moment_nested(2, 2.0, (2.0,))


@pytest.mark.parametrize("k, T", [(1, 1000.0), (2, 16.0), (3, 2.0 * 1.4 ** 3), (3, 16.0)])
def test_nested_large_T_cells_meet_the_airy_side(k, T):
    # on the old offsets 0.5 + 1.5(k - j) these returned 2.79e70 against
    # 1.57e16 at (1, 1000) and 2.5e52 against 1.26e6 at (3, 16), and were
    # lost to cancellation at (2, 16) and (3, 5.488); the centred contours
    # meet the closed form e^{T/24}/sqrt(2 pi T) and airy_h_moment within
    # 1.2e-13
    ref = (math.exp(T / 24.0) / math.sqrt(2.0 * math.pi * T) if k == 1
           else airy_h_moment(k, (T / 2.0) ** (1.0 / 3.0)))
    assert kpz_moment_nested(k, T) == pytest.approx(ref, rel=1e-12)


def test_nested_offsets_near_a_pole_exceed_the_node_budget():
    # offsets 1.1 apart leave the pole of (z_A - z_B)/(z_A - z_B - 1) 0.1
    # from the contour: the strip half-width 0.1 asks a step the node budget
    # does not allow, so the call raises (on Legendre nodes it returned a
    # value 4.4e-2 off)
    with pytest.raises(ConfigurationError, match="exceeds the 100000000 budget"):
        kpz_moment_nested(3, 2.0, (1.1, 0.0, -1.1))


@pytest.mark.parametrize("k, T", [(2, 200.0), (2, 250.0), (3, 54.0), (3, 70.0)])
def test_nested_lost_to_cancellation_raises(k, T):
    # the centred contours' spacing is floored at 1.25 here, so the peak
    # e^{(T/2) sum a_j^2} grows with T (e^{97.7} at (2, 250), e^{109.4} at
    # (3, 70)): the sums' roundoff bound eps sum |w f| is 6.8e-5, 0.07,
    # 2.7e-4 and 2 times the sum, above MOMENT_RTOL = 1e-5, so the tensor
    # driver refuses them; under a gate of 1e-3, (2, 200) and (3, 54)
    # passed 1.0e-6 and 2.3e-6 off kpz_moment
    with pytest.raises(NumericalConsistencyError,
                       match=re.escape(f"kpz_moment_nested({k}, {T}): tensor sum ")
                       + ".* lost to cancellation"):
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
    for C, u, hint in [(0.3, 1.0, 0.7), (0.5, 10.0, 0.78), (0.2, 1e-5, 0.7), (0.1, 1e5, 1.09)]:
        with pytest.raises(DomainError, match=f"beyond its supported range.*"
                                                     f"use C >= {hint:.2f}"):
            one_u_laplace(ModelParams.from_C(C, u))
        for nodes in (80, 200):
            assert 0.0 < one_u_laplace(ModelParams.from_C(hint, u), nodes) <= 1.0


def test_kpz_laplace_u0():
    assert one_u_laplace(ModelParams.from_C(1.0, 0.0)) == 1.0


def test_kpz_laplace_decreasing_in_u():
    vals = [one_u_laplace(ModelParams.from_C(1.0, u)) for u in (0.0, 0.5, 1.0, 4.0)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_theorem1_point_match():
    # independent kernels, independent grids
    p = ModelParams.from_T(2.0, 1.0)
    lhs = airy_mult_stat(p)
    rhs = one_u_laplace(p)
    assert abs(lhs - rhs) < 1e-8


def test_kpz_laplace_outer_doubling():
    p = ModelParams.from_C(1.0, 1.0)
    v80 = one_u_laplace(p, nodes=80)
    v160 = one_u_laplace(p, nodes=160)
    assert abs(v80 - v160) < 1e-9


# the 80-node outer rule of kpz_laplaces at C = 1, u = 1: [0, 22/C]
OUTER_C1_U1 = legendre_on(0.0, 22.0, 80)


def test_kpz_laplace_truncated_inner_rule_raises():
    # an inner rule that stops at r = 5 cuts off the Fermi tail of K_u;
    # unchecked, the determinant reads 0.79488 against the true 0.79069
    p = ModelParams.from_C(1.0, 1.0)
    with pytest.raises(NumericalConsistencyError):
        ku_matrix_on(OUTER_C1_U1.nodes, p, composite_legendre(-30.0, 5.0, 35, 10))


def test_kpz_laplace_inner_rule_beyond_airy_range_raises():
    # r up to 65 puts x - r below -60 at the outer nodes near x = 0, and r
    # down to -45 puts it above +60 at the outer nodes near x = 22; the
    # range check on both sides is airy_both's, reached through the K_u grid
    p = ModelParams.from_C(1.0, 1.0)
    for lo, hi in ((-30.0, 65.0), (-45.0, 42.0)):
        with pytest.raises(DomainError, match="airy argument outside"):
            ku_matrix_on(OUTER_C1_U1.nodes, p, composite_legendre(lo, hi, int(hi - lo), 10))


def _ku_grids(monkeypatch, cells):
    """(params, outer nodes, inner rule) of every K_u grid that one_u_laplace
    builds over ``cells`` of (C, u, nodes), the cells it rejects left out."""
    seen = []

    def spy(params, nodes):
        outer, inner, airy = real(params, nodes)
        seen.append((params, outer.nodes, inner))
        return outer, inner, airy

    real = kpz_side._ku_grid
    monkeypatch.setattr(kpz_side, "_ku_grid", spy)
    for C, u, nodes in cells:
        try:
            one_u_laplace(ModelParams.from_C(C, u), nodes)
        except DomainError:
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
            (20.0 + math.log(max(params.u, 1.0))) / params.C + xs[-1] + 12.0, rel=1e-13)
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
        K = ku_matrix_on(xs, params, inner)
        K_ext = ku_matrix_on(xs, params, extended)
        scale = np.sqrt(np.outer(np.diag(K_ext), np.diag(K_ext)))
        assert np.all(np.abs(K - K_ext) <= 1e-14 * scale)


def test_one_u_kpz_laplaces_is_kpz_laplace_on_its_own_grid():
    # u's own grid: the outer rule on [0, (22 + log+ u)/C] and the inner
    # rule it implies
    C = 1.6
    for u in (1e-4, 1.0, 1e4):
        p = ModelParams.from_C(C, u)
        outer = legendre_on(0.0, (22.0 + math.log(max(u, 1.0))) / C, 80)
        inner = kpz_side._ku_inner_rule(p, float(outer.nodes[-1]))
        own = fredholm_det_matrix(ku_matrix_on(outer.nodes, p, inner), outer.weights)
        assert kpz_side.kpz_laplaces(C, [u]) == [own]


@pytest.mark.parametrize("C", [1.0, 1.6])
def test_shared_ku_grid_is_no_farther_from_the_reference(C):
    # the README cells: u = 0.1 and 1 on the grid of u = 10, whose outer edge
    # is farther out, move about 10x closer to the wider, finer grid; u = 10
    # is on its own grid
    us = [0.1, 1.0, 10.0]
    for u, shared in zip(us, kpz_side.kpz_laplaces(C, us)):
        p = ModelParams.from_C(C, u)
        ref, own = kpz_laplace_reference(p), one_u_laplace(p)
        if u == max(us):
            assert shared == own
        else:
            assert abs(shared - ref) <= 0.2 * abs(own - ref)


def test_kpz_laplaces_keeps_each_error_with_its_u(monkeypatch):
    # u = 1e6 needs C >= 1.17: it keeps the refusal of its own grid, and
    # u = 1 gets the bits of its own grid
    one, refused = kpz_side.kpz_laplaces(0.8, [1.0, 1e6])
    assert one == one_u_laplace(ModelParams.from_C(0.8, 1.0))
    with pytest.raises(DomainError, match="use C >= 1.17") as alone:
        one_u_laplace(ModelParams.from_C(0.8, 1e6))
    assert type(refused) is DomainError and str(refused) == str(alone.value)
    # a probability refusal names its u: at C = 23.73 the u = 1e300
    # determinant underflows on the grid u = 1 shares
    fine, under = kpz_side.kpz_laplaces(23.73, [1.0, 1e300])
    assert 0.0 < fine < 1.0
    assert type(under) is DomainError
    assert str(under) == "u = 1e+300: kpz_laplace = -0.0 underflows double precision"
    # so does a consistency refusal, in the order of the u given: each
    # fake determinant is keyed to the u whose matrix it is handed
    monkeypatch.setattr(kpz_side, "_ku_matrix", lambda airy, params, inner: params.u)
    monkeypatch.setattr(kpz_side, "fredholm_det_matrix", lambda u, w: {4.0: 2.0, 0.5: 0.5}[u])
    bad, good = kpz_side.kpz_laplaces(1.0, [4.0, 0.5])
    assert good == 0.5
    assert type(bad) is NumericalConsistencyError
    assert str(bad) == "u = 4.0: kpz_laplace = 2.0 outside (0, 1]"
    # a u = 0 is exactly 1 and builds nothing, so a node count that no
    # Legendre rule takes refuses only the other u
    monkeypatch.setattr(kpz_side, "airy_ai", None)
    assert kpz_side.kpz_laplaces(1.0, [0.0, 0.0]) == [1.0, 1.0]
    zero, one = kpz_side.kpz_laplaces(1.0, [0.0, 1.0], 600)
    assert zero == 1.0
    assert type(one) is ConfigurationError and "got 600" in str(one)
