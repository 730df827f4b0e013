import itertools
import math
import multiprocessing
import os

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from airykpz import montecarlo
from airykpz.airy_side import airy_mult_stat, laplace_R, tracy_widom_f2
from airykpz.errors import ConfigurationError, DomainError, NumericalConsistencyError
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
    with pytest.raises(ConfigurationError):
        sample_gue_edge(400.0, 16, 0)
    with pytest.raises(ConfigurationError):
        sample_gue_edge(200, 16.0, 0)


@pytest.mark.parametrize("seed", [None, -1, 1.5, "7"])
def test_seed_must_be_non_negative_integer(seed):
    # None would draw OS entropy and a negative seed is numpy's ValueError
    with pytest.raises(ConfigurationError):
        sample_gue_edge(200, 16, seed)
    with pytest.raises(ConfigurationError):
        draw_edge_samples(200, 16, seed, 2)


@pytest.mark.parametrize("count", [0, -1, 2.5, "3", True, None])
def test_count_must_be_positive_integer(count):
    # a float count would reach the range cuts; True would be one draw
    with pytest.raises(ConfigurationError):
        draw_edge_samples(200, 16, 777, count)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_draws_identical_at_any_worker_count(monkeypatch, cpus):
    # each draw has its own stream: cutting the indices into worker ranges,
    # more workers than draws included, changes no bit of the array
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    for n in (1, 2, 5):
        rows = np.stack([sample_gue_edge(200, 16, 777, i) for i in range(n)])
        assert np.array_equal(draw_edge_samples(200, 16, 777, n), rows)
        assert multiprocessing.active_children() == []


def test_no_affinity_call_means_one_in_process_worker(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert montecarlo._usable_cpus() == 1


@pytest.mark.parametrize("cpus", [1, 2])
def test_eigensolver_failure_names_the_draw_and_leaves_no_worker(monkeypatch, cpus):
    def fail(d, e):
        return np.zeros_like(d), 1   # dsterf's info > 0: no convergence
    # forked workers inherit the patched module
    monkeypatch.setattr(montecarlo, "dsterf", fail)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    with pytest.raises(NumericalConsistencyError, match=r"seed=777, sample_index=0\)"):
        draw_edge_samples(200, 16, 777, 5)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("args", [(20, 16, 777, 4), (200, 65, 777, 4), (400.0, 16, 777, 4),
                                  (200, 16, -1, 4), (200, 16, 777, 2.5)])
def test_bad_arguments_raise_before_any_worker_starts(monkeypatch, args):
    def no_fork():
        raise AssertionError("a worker was started")
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(ConfigurationError):
        draw_edge_samples(*args)


# kept-point counts per matrix size, and draws per size (380 in all).  N = 50
# is solved whole (the window's cap binds); the others are windowed, and
# N = 150, 250 and 300 are where the local scale sits furthest below N^(1/3)
WINDOW_CASES = {50: (48,), 150: (16,), 200: (48,), 250: (64,), 300: (64,),
                400: (32, 48, 64), 800: (48,)}
WINDOW_DRAWS = {50: 40, 150: 40, 200: 40, 250: 40, 300: 40, 400: 160, 800: 20}


@pytest.mark.parametrize("N", sorted(WINDOW_CASES))
def test_window_matches_full_solve(N):
    # the windowed draw against the full solve of the same variates; over
    # 2000 draws the worst is 2.1e-12 at N = 400 and 3.6e-12 at N = 800,
    # while a margin of 8 local units gives 4e-11 to 1.5e-8
    worst = 0.0
    for i in range(WINDOW_DRAWS[N]):
        full = eigh_tridiagonal(*_tridiagonal(N, 2026, i), eigvals_only=True)
        for m in WINDOW_CASES[N]:
            ref = N ** (1.0 / 6.0) * (full[-m:][::-1] - 2.0 * math.sqrt(N))
            got = sample_gue_edge(N, m, 2026, sample_index=i)
            worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= 2e-11


def test_edge_rows_bounds_and_monotone():
    for N in (*range(50, 1001), 2000, 5000):
        rows = [_edge_rows(N, m) for m in range(1, min(64, N) + 1)]
        assert all(m <= r <= N for m, r in enumerate(rows, start=1))
        assert all(a <= b for a, b in zip(rows, rows[1:]))
    # the cap binds: the window is the whole matrix
    assert _edge_rows(50, 48) == 50 and _edge_rows(100, 48) == 100
    # and it does not from N = 200 on; 282 of 400 rows on the README grid
    assert _edge_rows(200, 48) == 193
    assert _edge_rows(400, 32) < _edge_rows(400, 48) == 282 < _edge_rows(400, 64) < 400
    assert _edge_rows(800, 48) == 386


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
    # h_0 = 1 is no moment order: check_order refuses k = 0, as every side does
    with pytest.raises(ConfigurationError,
                       match=r"^estimate_h_moment supports integer 1 <= k <= 3, got 0$"):
        estimate_h_moment(edge_samples[:10], 0, 0.5)


@pytest.mark.parametrize("k", [2.0, True])
def test_h_moment_refuses_a_float_or_bool_order(edge_samples, k):
    with pytest.raises(ConfigurationError, match=r"supports integer 1 <= k <= 3"):
        estimate_h_moment(edge_samples[:10], k, 0.5)


def test_h_moment_takes_a_numpy_integer_order(edge_samples):
    assert estimate_h_moment(edge_samples[:10], np.int64(2), 0.5) == \
        estimate_h_moment(edge_samples[:10], 2, 0.5)


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


def test_h_moment_refuses_an_overflowing_exponent(edge_samples):
    # the top point of some draw exceeds log(DBL_MAX) / 1000 = 0.71
    assert np.max(edge_samples[:200, 0]) > 0.71
    with pytest.raises(DomainError, match=r"estimate_h_moment\(k=1, C=1000.0\).*overflows"):
        estimate_h_moment(edge_samples[:200], 1, 1000.0)


@pytest.mark.parametrize("estimator", [estimate_h_moment, estimate_mult_stat])
@pytest.mark.parametrize("C", [math.nan, math.inf])
def test_estimators_refuse_non_finite_C(edge_samples, estimator, C):
    with pytest.raises(DomainError, match=rf"^ModelParams requires C > 0 .* got {C!r}$"):
        estimator(edge_samples[:10], 1, C)


@pytest.mark.parametrize("C", [0.0, -1000.0])
def test_mult_stat_refuses_C_not_positive(edge_samples, C):
    # C = 0 would return 2^-m with bias 1, and C = -1000 overflow exp
    with pytest.raises(DomainError, match=rf"^ModelParams requires C > 0 .* got {C!r}$"):
        estimate_mult_stat(edge_samples[:20], 1.0, C)


def test_mult_stat_refuses_an_infinite_u(edge_samples):
    # every factor would be 0: mean 0 with stderr 0, a silent wrong number
    with pytest.raises(DomainError, match=r"^ModelParams requires u >= 0 and finite, got inf$"):
        estimate_mult_stat(edge_samples[:20], math.inf, 0.5)


def test_mult_stat_factors_do_not_overflow(edge_samples):
    # 1/(1 + u e^{C a}) as a logistic: no overflow warning at C = 1000,
    # and u = 0 still gives exactly 1
    res = estimate_mult_stat(edge_samples[:200], 1.0, 1000.0)
    assert 0.0 < res.mean <= 1.0 and math.isfinite(res.stderr)
    res0 = estimate_mult_stat(edge_samples[:10], 0.0, 1000.0)
    assert res0.mean == 1.0 and res0.stderr == 0.0 and res0.bias_bound == 0.0


def test_estimator_result_rejects_nan_stderr():
    with pytest.raises(ConfigurationError):
        EstimatorResult(mean=1.0, stderr=math.nan, n_samples=5)


@pytest.mark.parametrize("estimator", [estimate_h_moment, estimate_mult_stat])
def test_estimators_reject_1d_array(edge_samples, estimator):
    # one draw's points are not a (draws, kept) array
    with pytest.raises(ConfigurationError):
        estimator(edge_samples[0], 1, 0.5)


@pytest.mark.parametrize("estimator", [estimate_h_moment, estimate_mult_stat])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_estimators_reject_non_finite_points(edge_samples, estimator, bad):
    pts = np.array(edge_samples[:3])
    pts[1, 5] = bad
    with pytest.raises(ConfigurationError):
        estimator(pts, 1, 0.5)
    with pytest.raises(ConfigurationError):
        estimator(np.full((3, 40), bad), 1, 0.5)


@pytest.mark.parametrize("estimator", [estimate_h_moment, estimate_mult_stat])
def test_estimators_reject_ragged_draws(edge_samples, estimator):
    ragged = [edge_samples[0], edge_samples[1][:40]]
    with pytest.raises(ConfigurationError):
        estimator(ragged, 1, 0.5)
