import itertools
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from airykpz.airy_side import airy_mult_stat, laplace_R, tracy_widom_f2
from airykpz.errors import ConfigurationError
from airykpz.montecarlo import (BIAS_GUARD, EstimatorResult, _edge_rows, _tridiagonal,
                                complete_homogeneous, draw_edge_samples,
                                estimate_h_moment, estimate_mult_stat, sample_gue_edge)
from airykpz.params import ModelParams
from airykpz.quadrature import legendre_on

from conftest import MC_COUNT, MC_KEEP, MC_N

TW2_MEAN = -1.771086807411601  # verified against our own F2 integration to 7e-13


def test_sample_shape_and_ordering(edge_samples):
    assert edge_samples.shape == (MC_COUNT, MC_KEEP)
    assert np.all(np.diff(edge_samples, axis=1) <= 0)


def test_sample_determinism():
    a = sample_gue_edge(200, 16, 777)
    b = sample_gue_edge(200, 16, 777)
    assert np.array_equal(a, b)
    c = sample_gue_edge(200, 16, 777, sample_index=3)
    d = sample_gue_edge(200, 16, 777, sample_index=3)
    assert np.array_equal(c, d)
    assert not np.array_equal(a, c)


def test_single_draw_is_row_zero_of_the_ensemble():
    # one seeded stream: the default sample_index is the ensemble's first row
    assert np.array_equal(sample_gue_edge(200, 16, 777),
                          draw_edge_samples(200, 16, 777, 3)[0])


def test_sample_validation():
    with pytest.raises(ConfigurationError):
        sample_gue_edge(20, 4, 0)
    with pytest.raises(ConfigurationError):
        sample_gue_edge(100, 65, 0)
    with pytest.raises(ConfigurationError):
        sample_gue_edge(50, 64, 0)      # more kept points than eigenvalues


@pytest.mark.parametrize("seed", [None, -1, 1.5, "7"])
def test_seed_must_be_non_negative_integer(seed):
    # None would draw OS entropy and a negative seed is numpy's ValueError
    with pytest.raises(ConfigurationError):
        sample_gue_edge(200, 16, seed)
    with pytest.raises(ConfigurationError):
        draw_edge_samples(200, 16, seed, 2)


# kept-point counts per matrix size, and draws per size; N = 50 and 200 are
# solved whole (the window's cap binds), N = 400 and 800 are windowed
WINDOW_CASES = {50: (48,), 200: (48,), 400: (32, 48, 64), 800: (48,)}
WINDOW_DRAWS = {50: 100, 200: 60, 400: 200, 800: 20}


@pytest.mark.parametrize("N", sorted(WINDOW_CASES))
def test_window_matches_full_solve(N):
    # the windowed draw against the full solve of the same variates
    worst = 0.0
    for i in range(WINDOW_DRAWS[N]):
        full = eigh_tridiagonal(*_tridiagonal(N, 2026, i), eigvals_only=True)
        for m in WINDOW_CASES[N]:
            ref = N ** (1.0 / 6.0) * (full[-m:][::-1] - 2.0 * math.sqrt(N))
            got = sample_gue_edge(N, m, 2026, sample_index=i)
            worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= 1e-10


def test_edge_rows_bounds_and_monotone():
    for N in (*range(50, 1001), 2000, 5000):
        rows = [_edge_rows(N, m) for m in range(1, min(64, N) + 1)]
        assert all(m <= r <= N for m, r in enumerate(rows, start=1))
        assert all(a <= b for a, b in zip(rows, rows[1:]))
    # the cap binds: the window is the whole matrix
    assert _edge_rows(50, 48) == 50 and _edge_rows(200, 48) == 200
    # and it does not at the README grid, N = 400, keep-top 48
    assert _edge_rows(400, 32) < _edge_rows(400, 48) < _edge_rows(400, 64) < 400
    assert _edge_rows(800, 48) < 800


def test_bulk_edge_location(edge_samples):
    # largest eigenvalue sits at the soft edge 2 sqrt(N)
    n_use = 200
    lam_max = 2.0 * math.sqrt(MC_N) + edge_samples[:n_use, 0] * MC_N ** (-1.0 / 6.0)
    ratio = np.mean(lam_max) / (2.0 * math.sqrt(MC_N))
    assert 0.95 <= ratio <= 1.05


def test_newton_identities_against_monomial_expansion():
    xs = np.array([1.3, 0.71, 0.42, 1.9, 0.05])
    for k in range(0, 5):
        direct = sum(math.prod(c)
                     for c in itertools.combinations_with_replacement(xs, k))
        rec = complete_homogeneous(xs, k)[0]
        assert abs(rec - direct) <= 1e-12 * max(1.0, abs(direct))


def test_h_moment_k0_exact(edge_samples):
    res = estimate_h_moment(edge_samples[:10], 0, 0.5)
    assert res.mean == 1.0 and res.stderr == 0.0


def test_h_values_pointwise_positive(edge_samples):
    for s in edge_samples[:50]:
        for k in (1, 2, 3):
            val = complete_homogeneous(np.exp(0.5 * s), k)[0]
            assert val > 0


def test_h_moment_against_analytic(edge_samples):
    res = estimate_h_moment(edge_samples, 1, 0.5)
    analytic = laplace_R([0.5])
    assert res.n_samples == MC_COUNT
    assert abs(res.mean - analytic) <= max(3.0 * res.stderr, 0.07 * analytic)


def test_mult_stat_u0_exact(edge_samples):
    res = estimate_mult_stat(edge_samples[:10], 0.0, 0.5)
    assert res.mean == 1.0 and res.stderr == 0.0 and res.bias_bound == 0.0


def test_mult_stat_products_in_unit_interval(edge_samples):
    for s in edge_samples[:100]:
        prod = float(np.prod(1.0 / (1.0 + 1.0 * np.exp(0.5 * s))))
        assert 0.0 < prod <= 1.0


def test_mult_stat_against_analytic(edge_samples):
    res = estimate_mult_stat(edge_samples, 1.0, 0.5)
    analytic = airy_mult_stat(ModelParams.from_C(0.5, 1.0))
    assert abs(res.mean - analytic) <= max(3.0 * res.stderr, 0.03)
    assert not res.flagged


def test_bias_guard_passes_at_default(edge_samples):
    res = estimate_mult_stat(edge_samples[:200], 10.0, 0.5)
    assert res.bias_bound < BIAS_GUARD
    assert not res.flagged


def test_bias_guard_flags_heavy_tail(edge_samples):
    # C = 0.3 with u = 10 leaves a visible per-factor tail bound; the
    # estimate must come back flagged, not silently
    res = estimate_mult_stat(edge_samples[:200], 10.0, 0.3)
    assert res.bias_bound > BIAS_GUARD
    assert res.flagged


@pytest.mark.parametrize("C", [0.3, 0.5])
def test_bias_bound_independent_of_column_order(edge_samples, C):
    # the bound comes from each draw's least point, wherever it sits
    fwd = estimate_mult_stat(edge_samples[:200], 10.0, C)
    rev = estimate_mult_stat(edge_samples[:200, ::-1], 10.0, C)
    assert rev.bias_bound == fwd.bias_bound
    assert rev.flagged == fwd.flagged


def test_top_point_mean_matches_tracy_widom(edge_samples):
    # the F2-mean oracle: E[a1] = -int_{-10}^{0} F2 + int_0^6 (1 - F2)
    neg = legendre_on(-10.0, 0.0, 40)
    pos = legendre_on(0.0, 6.0, 24)
    f2_mean = -float(np.sum(neg.weights * [tracy_widom_f2(float(s)) for s in neg.nodes])) \
        + float(np.sum(pos.weights * [1.0 - tracy_widom_f2(float(s)) for s in pos.nodes]))
    assert f2_mean == pytest.approx(TW2_MEAN, abs=1e-6)
    a1 = edge_samples[:, 0]
    stderr = a1.std(ddof=1) / math.sqrt(len(a1))
    # 0.05 allowance for the edge bias at N = 400, measured to fall about
    # as N^(-0.6) (README, "Monte Carlo cross-check")
    assert abs(a1.mean() - f2_mean) <= 3.0 * stderr + 0.05


def test_estimator_determinism(edge_samples):
    r1 = estimate_h_moment(edge_samples[:500], 2, 0.5)
    r2 = estimate_h_moment(edge_samples[:500], 2, 0.5)
    assert r1 == r2


def test_estimator_validation(edge_samples):
    with pytest.raises(ConfigurationError):
        estimate_h_moment(edge_samples, 4, 0.5)
    with pytest.raises(ConfigurationError):
        estimate_h_moment(edge_samples, 1, 0.2)
    with pytest.raises(ConfigurationError):
        estimate_h_moment(edge_samples[:1], 1, 0.5)
    small = draw_edge_samples(100, 16, 3, 4)   # m < 32: truncation unbounded
    with pytest.raises(ConfigurationError):
        estimate_h_moment(small, 1, 0.5)
    with pytest.raises(ConfigurationError):
        estimate_mult_stat(small, 1.0, 0.5)
    with pytest.raises(ConfigurationError):
        EstimatorResult(mean=0.0, stderr=-1.0, n_samples=5)


@pytest.mark.parametrize("estimator", [estimate_h_moment, estimate_mult_stat])
def test_estimators_reject_1d_array(edge_samples, estimator):
    # one draw's points are not a (draws, kept) array
    with pytest.raises(ConfigurationError):
        estimator(edge_samples[0], 1, 0.5)
