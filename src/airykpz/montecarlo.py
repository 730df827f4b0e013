"""Stochastic oracle: sample the GUE soft edge and estimate Airy-side
expectations empirically.

The finite-N model is the symmetric tridiagonal beta = 2 ensemble
(diagonal N(0,1), off-diagonal j ~ chi(2(N-j))/sqrt(2); spectrum edge at
2 sqrt(N)).  Top eigenvalues rescaled by a_i = N^(1/6)(lambda_i - 2 sqrt(N))
approximate the Airy points; no higher-order edge correction is applied,
so estimates carry an edge bias: on the README mc-check grid it is -0.7%
of E h_1 at N = 400, falls about as N^(-0.6), and sits well inside the
mc-check tolerances (README, "Monte Carlo cross-check").

Only the leading ``_edge_rows(N, m)`` rows of the matrix are solved.  Row j
has off-diagonals near sqrt(N - j), so an eigenvalue lambda is classically
allowed in rows j < N - lambda^2/4 and its eigenvector decays faster than
exponentially past that turning row (Edelman & Sutton, J. Stat. Phys. 2007).
The window reaches the turning row of the m-th kept eigenvalue plus a decay
margin; the rows past it change no kept eigenvalue beyond roundoff.  Every
draw uses the full-length variates, so a windowed draw is the full solve of
the same (seed, index) to within ~4e-12 in rescaled units
(``tests/test_montecarlo.py::test_window_matches_full_solve``).

Draws are plain arrays: one draw is the 1-d array of its m rescaled points,
nonincreasing, and an ensemble is the (draws, m) array whose row i is draw
i of the seed's stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigurationError, NumericalConsistencyError

__all__ = [
    "EstimatorResult", "sample_gue_edge", "draw_edge_samples",
    "complete_homogeneous", "estimate_h_moment", "estimate_mult_stat",
    "BIAS_GUARD",
]

#: per-factor truncation-bias level above which estimates are flagged
BIAS_GUARD = 1e-6

#: rows solved past the m-th eigenvalue's turning row, in units of N^(1/3)
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
        if self.stderr < 0 or self.n_samples < 2:
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
    N - lambda_m^2 / 4, which lies too deep at m ~ 48 for the linearised
    |z_m| N^(1/3).  The window adds _EDGE_MARGIN N^(1/3) rows and is
    capped at N, where it is the whole matrix.
    """
    z_m = -(3.0 * math.pi * (4 * m - 1) / 8.0) ** (2.0 / 3.0)
    lam_m = max(2.0 * math.sqrt(N) + z_m * N ** (-1.0 / 6.0), 0.0)
    turning = N - lam_m * lam_m / 4.0
    return min(N, math.ceil(turning + _EDGE_MARGIN * N ** (1.0 / 3.0)))


def sample_gue_edge(N: int, m: int, seed: int, sample_index: int = 0) -> np.ndarray:
    """One draw of the rescaled top-m GUE eigenvalues, as a nonincreasing
    1-d array of m points.

    Deterministic given (N, m, seed, sample_index); the draw is row
    sample_index of draw_edge_samples(N, m, seed, count).  The variates are
    drawn for the whole matrix; the eigensolve sees its leading
    _edge_rows(N, m).
    """
    if not 50 <= N <= 5000:
        raise ConfigurationError("matrix size N must be in [50, 5000]")
    if not 1 <= m <= min(64, N):
        raise ConfigurationError("kept-point count m must be in [1, min(64, N)]")
    for name, val in (("seed", seed), ("sample_index", sample_index)):
        if not (isinstance(val, (int, np.integer)) and val >= 0):
            raise ConfigurationError(f"{name} must be a non-negative integer, got {val!r}")
    diag, off = _tridiagonal(N, seed, sample_index)
    n = _edge_rows(N, m)
    try:
        eigs = eigh_tridiagonal(diag[:n], off[:n - 1], eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - stev is robust
        raise NumericalConsistencyError(
            f"tridiagonal eigensolver failed (N={N}, seed={seed!r}, "
            f"sample_index={sample_index!r}): {exc}") from exc
    top = eigs[-m:][::-1]
    return N ** (1.0 / 6.0) * (top - 2.0 * math.sqrt(N))


def draw_edge_samples(N: int, m: int, seed: int, count: int) -> np.ndarray:
    """count independent draws as a (count, m) array; row i is
    sample_gue_edge(N, m, seed, i)."""
    if count < 1:
        raise ConfigurationError("need at least one sample")
    return np.stack([sample_gue_edge(N, m, seed, i) for i in range(count)])


def _points_matrix(samples: np.ndarray, min_kept: int) -> np.ndarray:
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ConfigurationError("estimators need a (draws, kept) array of at least 2 draws")
    if pts.shape[1] < min_kept:
        raise ConfigurationError(
            f"samples keep too few points (< {min_kept}); truncation bias unbounded")
    return pts


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    n = vals.size
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n))
    return mean, stderr


def complete_homogeneous(values: np.ndarray, k: int) -> np.ndarray:
    """h_k of the columns of a (rows, m) value matrix, one result per row.

    Uses power sums p_j = sum_i values_i^j and the Newton recursion
    j h_j = sum_{i<=j} p_i h_{j-i}; h_0 = 1.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    p = [None] + [np.sum(values ** j, axis=1) for j in range(1, k + 1)]
    h = [np.ones(values.shape[0])]
    for j in range(1, k + 1):
        acc = np.zeros(values.shape[0])
        for i in range(1, j + 1):
            acc += p[i] * h[j - i]
        h.append(acc / j)
    return h[k]


def estimate_h_moment(samples: np.ndarray, k: int, C: float) -> EstimatorResult:
    """Empirical E[h_k(exp(C a_1), exp(C a_2), ...)] over the kept points
    of a (draws, kept) sample array."""
    if not 0 <= k <= 3:
        raise ConfigurationError("estimate_h_moment supports 0 <= k <= 3")
    if not C >= 0.3:
        raise ConfigurationError("estimate_h_moment requires C >= 0.3 "
                                 "(tail truncation control)")
    pts = _points_matrix(samples, min_kept=32)
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
    product by more than that gap.
    """
    if not u >= 0:
        raise ConfigurationError("estimate_mult_stat requires u >= 0")
    pts = _points_matrix(samples, min_kept=32)
    vals = np.prod(1.0 / (1.0 + u * np.exp(C * pts)), axis=1)
    mean, stderr = _mean_stderr(vals)
    bias = float(np.max(u * np.exp(C * np.min(pts, axis=1))))
    return EstimatorResult(mean=mean, stderr=stderr, n_samples=pts.shape[0],
                           bias_bound=bias, flagged=bias > BIAS_GUARD)
