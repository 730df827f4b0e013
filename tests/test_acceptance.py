"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Tolerances are fixed here, not configurable.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.special import erfcx

from airykpz.airy_side import (airy_h_moment, airy_kernel_matrix, airy_mult_stat,
                               laplace_R, tracy_widom_f2)
from airykpz.kpz_side import kpz_moment, kpz_moment_nested
from airykpz.montecarlo import estimate_h_moment, estimate_mult_stat
from airykpz.params import ModelParams
from airykpz.quadrature import MOMENT_RTOL, composite_legendre
from airykpz.specfun import airy_both

from pointwise import (bose_exponent, cauchy_det_direct, cauchy_factors, factor_grid,
                       half_line_kernel, okounkov_integral, one_u_laplace, partitions,
                       symmetry_factor)


def _report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_theorem2_agreement():
    # one tolerance for every order, the library's moment target: k <= 4 at
    # the default grids, and k = 4 at 32 nodes per axis
    tol = 1e-5
    assert MOMENT_RTOL == tol
    t0 = time.time()
    worst = 0.0
    for C in (0.6, 1.0, 1.4):
        for k, nodes in ((1, None), (2, None), (3, None), (4, None), (4, 32)):
            lhs = airy_h_moment(k, C, nodes_per_axis=nodes)
            rhs = kpz_moment(k, 2.0 * C ** 3, nodes_per_axis=nodes)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    dt = time.time() - t0
    _report("criterion 1 (moments identity)", worst < tol and dt < 600,
            f"k<=4 and k=4@32 worst rel {worst:.2e} < {tol:g}; {dt:.1f}s")


def _r1(c):
    """R_1(c) = E sum_i e^{c a_i}, the Laplace transform of the Airy density."""
    return math.exp(c ** 3 / 12.0) / (2.0 * math.sqrt(math.pi) * c ** 1.5)


def test_criterion_2_closed_form_anchor():
    worst = 0.0
    for C in (0.6, 1.0, 1.4):
        T = 2.0 * C ** 3
        closed = _r1(C)
        assert closed == pytest.approx(
            math.exp(T / 24.0) / math.sqrt(2.0 * math.pi * T), rel=1e-14)
        worst = max(worst,
                    abs(airy_h_moment(1, C) - closed) / closed,
                    abs(kpz_moment(1, T) - closed) / closed)
    # k = 2: E h_2 = R_1(2C) + (R_1(C)^2 - X)/2, X the Okounkov kernel's
    # trace of Q_1^2, e^{C^3/6} sqrt(2 pi C) erfcx(sqrt(C^3/2))/(8 pi C^2).
    # airy_h_moment's clipped left edge costs it 3e-10 at C = 0.4
    worst_kpz2 = worst_airy2 = 0.0
    for C in (0.4, 0.5, 0.6, 1.0, 1.4, 2.0, 2.5):
        X = (math.exp(C ** 3 / 6.0) * math.sqrt(2.0 * math.pi * C)
             * erfcx(math.sqrt(C ** 3 / 2.0)) / (8.0 * math.pi * C ** 2))
        closed = _r1(2.0 * C) + (_r1(C) ** 2 - X) / 2.0
        worst_kpz2 = max(worst_kpz2, abs(kpz_moment(2, 2.0 * C ** 3) - closed) / closed)
        if C >= 0.5:
            worst_airy2 = max(worst_airy2, abs(airy_h_moment(2, C) - closed) / closed)
    _report("criterion 2 (k=1 and k=2 closed-form anchors)",
            worst < 1e-8 and worst_kpz2 < 1e-13 and worst_airy2 < 1e-12,
            f"k=1 worst rel {worst:.2e} < 1e-8; k=2 kpz worst rel {worst_kpz2:.2e} < 1e-13, "
            f"airy (C >= 0.5) {worst_airy2:.2e} < 1e-12")


def test_criterion_3_theorem1_agreement():
    t0 = time.time()
    worst = 0.0
    for u in (0.1, 1.0, 10.0):
        for C in (0.8, 1.0, 1.6):
            p = ModelParams.from_C(C, u)
            lhs = airy_mult_stat(p, nodes=80)
            rhs = one_u_laplace(p)   # 80-node outer Fredholm grid by default
            worst = max(worst, abs(lhs - rhs))
    dt = time.time() - t0
    _report("criterion 3 (Laplace identity, 80-node grids)",
            worst < 1e-6 and dt < 300,
            f"worst |diff| {worst:.2e} < 1e-6; {dt:.1f}s")


def test_criterion_4_nested_contour_oracle():
    closed = math.exp(2.0 / 24.0) / math.sqrt(4.0 * math.pi)
    vals1 = []
    for a1 in (0.5, 1.0, 2.0):
        vals1.append(kpz_moment_nested(1, 2.0, (a1,)))
    spread = (max(vals1) - min(vals1)) / closed
    rel2 = abs(kpz_moment_nested(2, 2.0) - kpz_moment(2, 2.0)) / kpz_moment(2, 2.0)
    rel3 = abs(kpz_moment_nested(3, 2.0) - kpz_moment(3, 2.0)) / kpz_moment(3, 2.0)
    ok = spread < 1e-12 and all(abs(v - closed) < 1e-12 * closed for v in vals1) \
        and rel2 < 1e-12 and rel3 < 1e-12
    _report("criterion 4 (nested vs expanded contours)", ok,
            f"k=1 relative offset spread {spread:.2e} < 1e-12; k=2 rel {rel2:.2e} < 1e-12; "
            f"k=3 rel {rel3:.2e} < 1e-12")


def test_criterion_5_tracy_widom_limit():
    T_ladder = (8.0, 64.0, 512.0)
    ok = True
    worst_final = 0.0
    for a in (-2.0, -1.0, 0.0, 1.0):
        f2 = tracy_widom_f2(a)
        diffs = []
        for T in T_ladder:
            C = (T / 2.0) ** (1.0 / 3.0)
            p = ModelParams.from_C(C, math.exp(-C * a))
            diffs.append(abs(airy_mult_stat(p) - f2))
        ok = ok and all(b <= a_ + 1e-12 for a_, b in zip(diffs, diffs[1:]))
        worst_final = max(worst_final, diffs[-1])
    ok = ok and worst_final < 0.05
    _report("criterion 5 (Tracy-Widom limit)", ok,
            f"gaps nonincreasing along T={T_ladder}; worst at T=512 "
            f"{worst_final:.3e} < 0.05")


def test_criterion_6_monte_carlo_cross_check(edge_samples):
    t0 = time.time()
    est_h = estimate_h_moment(edge_samples, 1, 0.5)
    ref_h = airy_h_moment(1, 0.5)
    tol_h = max(3.0 * est_h.stderr, 0.07 * ref_h)
    dev_h = abs(est_h.mean - ref_h)
    est_m = estimate_mult_stat(edge_samples, 1.0, 0.5)
    ref_m = airy_mult_stat(ModelParams.from_C(0.5, 1.0))
    tol_m = max(3.0 * est_m.stderr, 0.03)
    dev_m = abs(est_m.mean - ref_m)
    dt = time.time() - t0
    ok = dev_h <= tol_h and dev_m <= tol_m and not est_m.flagged and dt < 600
    _report("criterion 6 (Monte Carlo cross-check, N=400, 2000 samples)", ok,
            f"h_1 dev {dev_h:.3e} <= {tol_h:.3e}; mult dev {dev_m:.3e} <= "
            f"{tol_m:.3e}; bias {est_m.bias_bound:.1e}; {dt:.1f}s")


# ----------------------------------------------------------------------
# criterion 7: property suites

def _cauchy_amplification(a, b):
    # sensitivity of det[1/(a_i+b_j)] to entry rounding; the 1e-10
    # comparison is only meaningful in doubles when this is moderate
    amp = 1.0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            amp *= (abs(a[i] + b[j]) * abs(a[j] + b[i])
                    / (abs(a[i] - a[j]) * abs(b[i] - b[j])))
    return amp


def _check_cauchy_identity():
    rng = np.random.default_rng(2016)
    worst = 0.0
    done = 0
    while done < 100:
        # a point of the Gaussian-Cauchy family: a = alpha - i x, b = beta + i x
        n = int(rng.integers(1, 6))
        alpha, beta = rng.uniform(0.3, 2.0, n), rng.uniform(0.3, 2.0, n)
        x = rng.uniform(-1.0, 1.0, n)
        a, b = alpha - 1j * x, beta + 1j * x
        if _cauchy_amplification(a, b) > 1e4:
            continue
        direct = cauchy_det_direct(a, b)
        prod = factor_grid(*cauchy_factors(alpha, beta, x)).item()
        worst = max(worst, abs(prod - direct) / abs(direct))
        done += 1
    return worst, worst <= 1e-10


def _check_exponent_identity():
    rng = np.random.default_rng(40)
    worst = 0.0
    for lam in [(1,), (2,), (3, 1), (2, 2, 1), (4,), (2, 1, 1, 1)]:
        k = sum(lam)
        C = float(rng.uniform(0.5, 1.5))
        T = 2.0 * C ** 3
        w = rng.normal(size=len(lam)) + 1j * rng.normal(size=len(lam))
        summed = sum(bose_exponent(wj, p, T) for wj, p in zip(w, lam))
        shifted = C ** 3 * sum(p ** 3 / 12.0 + p * (wj + p / 2.0 - 0.5) ** 2
                               for wj, p in zip(w, lam)) - C ** 3 * k / 12.0
        worst = max(worst, abs(np.exp(shifted - summed) - 1.0))
    return worst, worst <= 1e-11


def _check_kernel_representations():
    xs = np.linspace(-8.0, 8.0, 21)
    integral = half_line_kernel(xs, xs, composite_legendre(0.0, 26.0, 26, 10))
    worst = float(np.max(np.abs(airy_kernel_matrix(xs) - integral)))
    return worst, worst <= 1e-8


def _check_okounkov():
    # exp(xz) Ai(z+a) Ai(z+b) is below 1e-12 outside [-58, 19] for these x, a, b
    rule = composite_legendre(-58.0, 19.0, 39, 14)
    z = rule.nodes
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10):
        x = float(rng.uniform(0.5, 2.0))
        a, b = rng.uniform(-2.0, 2.0, size=2)
        quad = float(np.sum(rule.weights * np.exp(x * z) * airy_both(z + a)[0]
                            * airy_both(z + b)[0]))
        worst = max(worst, abs(quad - okounkov_integral(x, a, b)))
    return worst, worst <= 1e-8


def _check_partition_expansion():
    # the u-series of det(I - K f_u) against E h_k expanded over partitions
    # into Laplace transforms of the correlation functions
    C = 1.0
    worst = 0.0
    for k in (1, 2, 3):
        expansion = sum(laplace_R([C * p for p in lam]) / symmetry_factor(lam)
                        for lam in partitions(k))
        worst = max(worst, abs(airy_h_moment(k, C) - expansion) / expansion)
    return worst, worst <= 1e-10


def _check_h_monomial_expansion():
    xs = (0.9, 0.5, 0.2)
    worst = 0.0
    for k in range(1, 5):
        direct = sum(math.prod(q)
                     for q in itertools.combinations_with_replacement(xs, k))
        total = 0.0
        for p in partitions(k):
            if len(p) > len(xs):
                continue
            exps = p + (0,) * (len(xs) - len(p))
            total += sum(math.prod(x ** e for x, e in zip(xs, perm))
                         for perm in set(itertools.permutations(exps)))
        worst = max(worst, abs(direct - total))
    return worst, worst <= 1e-12


def _check_airy_ode():
    xs = np.linspace(-15.0, 15.0, 200)
    h = 1e-3
    d2 = (-airy_both(xs + 2 * h)[0] + 16 * airy_both(xs + h)[0] - 30 * airy_both(xs)[0]
          + 16 * airy_both(xs - h)[0] - airy_both(xs - 2 * h)[0]) / (12 * h ** 2)
    resid = np.abs(d2 - xs * airy_both(xs)[0]) / np.maximum(1.0, np.abs(airy_both(xs)[0]))
    worst = float(np.max(resid))
    return worst, worst <= 1e-6


def _check_node_doubling():
    checks = []
    v = laplace_R([0.9, 1.3], nodes_per_axis=96)
    checks.append(abs(laplace_R([0.9, 1.3], nodes_per_axis=192) - v) < 1e-9)
    v = kpz_moment(2, 2.0, nodes_per_axis=64)
    checks.append(abs(kpz_moment(2, 2.0, nodes_per_axis=128) - v) < 1e-9)
    p = ModelParams.from_C(1.0, 1.0)
    v = airy_mult_stat(p, nodes=80)
    checks.append(abs(airy_mult_stat(p, nodes=160) - v) < 1e-7)
    v = one_u_laplace(p, nodes=80)
    checks.append(abs(one_u_laplace(p, nodes=160) - v) < 1e-7)
    from airykpz.airy_side import default_f2_grid
    v = tracy_widom_f2(-2.0, default_f2_grid(-2.0, 80))
    checks.append(abs(tracy_widom_f2(-2.0, default_f2_grid(-2.0, 160)) - v) < 1e-9)
    v = kpz_moment_nested(2, 2.0, nodes_per_axis=128)
    # the doubling residue of the nested contours sits near 4e-16
    checks.append(abs(kpz_moment_nested(2, 2.0, nodes_per_axis=256) - v) < 1e-12)
    return checks, all(checks)


def test_criterion_7_property_suites():
    results = {
        "cauchy(100 rnd, 1e-10)": _check_cauchy_identity(),
        "exponent identity (1e-11)": _check_exponent_identity(),
        "kernel forms on [-8,8]^2 (1e-8)": _check_kernel_representations(),
        "okounkov vs quadrature (1e-8)": _check_okounkov(),
        "u-series vs partition expansion k<=3 (1e-10)": _check_partition_expansion(),
        "h/m expansion (1e-12)": _check_h_monomial_expansion(),
        "airy ODE residual (1e-6)": _check_airy_ode(),
        "node-doubling self-convergence": _check_node_doubling(),
    }
    ok = all(flag for _, flag in results.values())
    detail = "; ".join(
        f"{name}: {'ok' if flag else f'FAIL ({val})'}"
        for name, (val, flag) in results.items())
    _report("criterion 7 (property suites)", ok, detail)
