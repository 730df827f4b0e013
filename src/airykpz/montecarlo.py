"""Stochastic oracle: sample the GUE soft edge and estimate Airy-side
expectations empirically.

The finite-N model is the symmetric tridiagonal beta = 2 ensemble
(diagonal N(0,1), off-diagonal j ~ chi(2(N-j))/sqrt(2); spectrum edge at
2 sqrt(N)).  Top eigenvalues rescaled by a_i = N^(1/6)(lambda_i - 2 sqrt(N))
approximate the Airy points; no higher-order edge correction is applied,
so estimates carry an edge bias: on the README mc-check grid it is -0.7%
of E h_1 at N = 400, falls about as N^(-0.6), and sits well inside the
mc-check tolerances (README, "Monte Carlo cross-check").

Only the leading ``_edge_rows(N, m)`` rows of the matrix are solved, by one
LAPACK ``dsterf`` call (eigenvalues only, Pal-Walker-Kahan QL/QR).  Row j
has off-diagonals near sqrt(N - j), so an eigenvalue lambda is classically
allowed in rows j < N - lambda^2/4 and its eigenvector decays faster than
exponentially past that turning row (Edelman & Sutton, J. Stat. Phys. 2007),
on the local Airy scale (lambda^2/4)^(1/3) rows.  The window reaches the
turning row of the m-th kept eigenvalue plus a decay margin in that scale;
the rows past it change no kept eigenvalue beyond roundoff.  Every draw
uses the full-length variates, so a windowed draw is the full solve of the
same (seed, index) to within ~4e-12 in rescaled units
(``tests/test_montecarlo.py::test_window_matches_full_solve``).

Draws are plain arrays: one draw is the 1-d array of its m rescaled points,
nonincreasing, and an ensemble is the (draws, m) array whose row i is draw
i of the seed's stream.  An ensemble is drawn in one forked worker process
per usable CPU, each over a contiguous range of indices; every draw has its
own stream, so the array is the same bytes at any CPU count.  The h_k
estimates (k <= 3) use both moment series' Newton recursion, ``newton_h``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsterf

from .errors import (ConfigurationError, NumericalConsistencyError, check_order, checked_exp,
                     is_integer)
from .params import ModelParams
from .quadrature import newton_h
from .specfun import logistic

__all__ = [
    "EstimatorResult", "sample_gue_edge", "draw_edge_samples",
    "complete_homogeneous", "estimate_h_moment", "estimate_mult_stat",
    "BIAS_GUARD", "MIN_KEPT", "MAX_H_ORDER",
]

#: per-factor truncation-bias level above which estimates are flagged
BIAS_GUARD = 1e-6

#: fewest kept points per draw the estimators accept; below it the
#: truncation of the Airy point process leaves their bias unbounded
MIN_KEPT = 32

#: highest k for which estimate_h_moment's tail truncation is controlled
MAX_H_ORDER = 3

#: rows solved past the m-th eigenvalue's turning row j_t, in units of the
#: local Airy scale (N - j_t)^(1/3); at 8 units kept points move by up to 1.5e-8
_EDGE_MARGIN = 10.0


@dataclass(frozen=True)
class EstimatorResult:
    """Sample mean with standard error.  bias_bound, where set, is the gap
    of one omitted tail factor from 1, not a bound on the total truncation
    bias (None where no gap is computed)."""

    mean: float
    stderr: float
    n_samples: int
    bias_bound: float | None = None
    flagged: bool = False

    def __post_init__(self):
        if not self.stderr >= 0 or self.n_samples < 2:
            raise ConfigurationError("EstimatorResult needs stderr >= 0 and >= 2 samples")


def _tridiagonal(N: int, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of one size-N draw, from the stream of
    (seed, index); off-diagonal j has 2(N-j) chi degrees of freedom."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    diag = rng.standard_normal(N)
    off = np.sqrt(rng.chisquare(2.0 * np.arange(N - 1, 0, -1))) / math.sqrt(2.0)
    return diag, off


def _edge_rows(N: int, m: int) -> int:
    """Leading rows of the size-N tridiagonal matrix that fix its top m
    eigenvalues to roundoff.

    The m-th eigenvalue sits near lambda_m = 2 sqrt(N) + z_m N^(-1/6), z_m the
    m-th zero of Ai (DLMF 9.9.6, leading term); its turning row is
    j_t = N - lambda_m^2 / 4, which lies too deep at m ~ 48 for the
    linearised |z_m| N^(1/3).  Past j_t the off-diagonals are near
    sqrt(N - j) and the eigenvector decays like Ai on the local scale
    (N - j_t)^(1/3) = (lambda_m / 2)^(2/3) rows, below N^(1/3) whenever
    lambda_m < 2 sqrt(N).  The window adds _EDGE_MARGIN such units and is
    capped at N, where it is the whole matrix.
    """
    z_m = -(3.0 * math.pi * (4 * m - 1) / 8.0) ** (2.0 / 3.0)
    lam_m = max(2.0 * math.sqrt(N) + z_m * N ** (-1.0 / 6.0), 0.0)
    depth = lam_m * lam_m / 4.0          # N - j_t
    return min(N, math.ceil(N - depth + _EDGE_MARGIN * depth ** (1.0 / 3.0)))


def _check_draw(N: int, m: int, seed: int, sample_index: int) -> None:
    """Raise ConfigurationError unless (N, m, seed, sample_index) names a draw."""
    if not (is_integer(N) and 50 <= N <= 5000):
        raise ConfigurationError(f"matrix size N must be an integer in [50, 5000], got {N!r}")
    if not (is_integer(m) and 1 <= m <= min(64, N)):
        raise ConfigurationError(
            f"kept-point count m must be an integer in [1, min(64, N)], got {m!r}")
    for name, val in (("seed", seed), ("sample_index", sample_index)):
        if not (is_integer(val) and val >= 0):
            raise ConfigurationError(f"{name} must be a non-negative integer, got {val!r}")


def sample_gue_edge(N: int, m: int, seed: int, sample_index: int = 0) -> np.ndarray:
    """One draw of the rescaled top-m GUE eigenvalues, as a nonincreasing
    1-d array of m points.

    Deterministic given (N, m, seed, sample_index); the draw is row
    sample_index of draw_edge_samples(N, m, seed, count).  The variates are
    drawn for the whole matrix; one dsterf call solves its leading
    _edge_rows(N, m), and a non-zero info from it raises
    NumericalConsistencyError naming the draw.
    """
    _check_draw(N, m, seed, sample_index)
    diag, off = _tridiagonal(N, seed, sample_index)
    n = _edge_rows(N, m)
    eigs, info = dsterf(diag[:n], off[:n - 1])
    if info != 0:
        raise NumericalConsistencyError(
            f"tridiagonal eigensolver dsterf returned info={info} (N={N}, "
            f"seed={seed!r}, sample_index={sample_index!r})")
    top = eigs[-m:][::-1]
    return N ** (1.0 / 6.0) * (top - 2.0 * math.sqrt(N))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: draw in-process
        return 1


def _draw_range(N: int, m: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Draws start, ..., stop - 1 of the seed's stream as rows of one array."""
    return np.stack([sample_gue_edge(N, m, seed, i) for i in range(start, stop)])


def draw_edge_samples(N: int, m: int, seed: int, count: int) -> np.ndarray:
    """count independent draws as a (count, m) array; row i is
    sample_gue_edge(N, m, seed, i).

    The indices are cut into one contiguous range per usable CPU (at most
    count ranges), each drawn in its own worker process; the array is the
    same bytes at any CPU count.  Workers are forked, not spawned: a spawned
    worker re-runs the caller's __main__, which breaks a top-level script
    that calls this function.  Every worker has exited when this returns
    or raises.
    """
    if not (is_integer(count) and count >= 1):
        raise ConfigurationError(f"sample count must be a positive integer, got {count!r}")
    _check_draw(N, m, seed, 0)
    workers = min(_usable_cpus(), count)
    if workers == 1:
        return _draw_range(N, m, seed, 0, count)
    # imported here so that importing this module starts no pool machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    cuts = [count * w // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        blocks = [pool.submit(_draw_range, N, m, seed, a, b) for a, b in zip(cuts, cuts[1:])]
        return np.concatenate([block.result() for block in blocks])


def _points_matrix(samples: np.ndarray) -> np.ndarray:
    try:
        pts = np.asarray(samples, dtype=float)
    except ValueError as exc:   # ragged draws, or entries that are not numbers
        raise ConfigurationError(
            "estimators need a rectangular (draws, kept) array of numbers") from exc
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ConfigurationError("estimators need a (draws, kept) array of at least 2 draws")
    if pts.shape[1] < MIN_KEPT:
        raise ConfigurationError(
            f"samples keep too few points (< {MIN_KEPT}); truncation bias unbounded")
    if not np.all(np.isfinite(pts)):
        raise ConfigurationError("samples hold non-finite points")
    return pts


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    n = vals.size
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n))
    return mean, stderr


def complete_homogeneous(values: np.ndarray, k: int) -> np.ndarray:
    """h_k of the columns of a (rows, m) value matrix, one result per row:
    :func:`airykpz.quadrature.newton_h` of the row power sums
    p_j = sum_i values_i^j."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    p = [np.sum(values ** j, axis=1) for j in range(1, k + 1)]
    return np.ones(values.shape[0]) * newton_h(p)[k]


def estimate_h_moment(samples: np.ndarray, k: int, C: float) -> EstimatorResult:
    """Empirical E[h_k(exp(C a_1), exp(C a_2), ...)] over the kept points
    of a (draws, kept) sample array.

    k is an order of errors.check_order up to MAX_H_ORDER and C a
    ModelParams scaling; below C = 0.3 the tail truncation is not
    controlled, a ConfigurationError.  Each draw's h_k is at most
    binom(m + k - 1, k) exp(k C max a), and the standard error sums the
    draws' squares; where that sum would overflow, errors.checked_exp
    raises DomainError before any exp is formed.
    """
    check_order("estimate_h_moment", k, MAX_H_ORDER)
    ModelParams.from_C(C, 0.0)
    if not C >= 0.3:
        raise ConfigurationError("estimate_h_moment requires C >= 0.3 "
                                 "(tail truncation control)")
    pts = _points_matrix(samples)
    draws, m = pts.shape
    log_h = k * C * float(np.max(pts)) + math.log(math.comb(m + k - 1, k))
    checked_exp(f"estimate_h_moment(k={k}, C={C!r}) squared h_k sum",
                2.0 * log_h + math.log(draws))
    vals = complete_homogeneous(np.exp(C * pts), k)
    mean, stderr = _mean_stderr(vals)
    return EstimatorResult(mean=mean, stderr=stderr, n_samples=pts.shape[0])


def estimate_mult_stat(samples: np.ndarray, u: float, C: float) -> EstimatorResult:
    """Empirical E prod_i 1/(1 + u exp(C a_i)) over the kept points of a
    (draws, kept) sample array.

    Each omitted tail factor lies in (1 - u exp(C a_m), 1), a_m the least
    kept point of its draw; the reported bias_bound is the worst per-factor
    gap u exp(C a_m) across draws, and the result is flagged when it
    exceeds BIAS_GUARD.  The N - m omitted factors together can move the
    product by more than that gap.  The factors are
    logistic(-(C a_i + log u)), which overflows at no C; at u = 0 each is
    exactly 1.  (C, u) is checked as a ModelParams.
    """
    ModelParams.from_C(C, u)
    pts = _points_matrix(samples)
    log_u = math.log(u) if u > 0 else -math.inf
    y = -(C * pts + log_u)
    vals = np.prod(logistic(y, out=y), axis=1)
    mean, stderr = _mean_stderr(vals)
    bias = float(np.max(u * np.exp(C * np.min(pts, axis=1))))
    return EstimatorResult(mean=mean, stderr=stderr, n_samples=pts.shape[0],
                           bias_bound=bias, flagged=bias > BIAS_GUARD)
