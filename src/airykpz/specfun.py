"""High-accuracy real-argument Airy function Ai, its derivative and the
overflow-safe logistic function.

Self-contained: no special-function library is used.  Ai and Ai' are
evaluated from the Maclaurin series for |x| <= 7.2 and from asymptotic
expansions beyond.  The series suffers catastrophic cancellation between
its two constituent series (their terms grow like exp((2/3)|x|^{3/2})
while Ai stays O(1) or decays), so the series is summed in double-double
arithmetic; the switchover at 7.2 is where the asymptotic branches reach
~1e-13 relative accuracy, keeping both branches within the 1e-10/1e-11
agreement targets validated in the test suite.

All entry points accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["airy_both", "logistic"]

SUPPORTED_RANGE = 60.0
_SERIES_CUT = 7.2

# Ai(0) = 3^(-2/3)/Gamma(2/3) and Ai'(0) = -3^(-1/3)/Gamma(1/3), split into
# hi+lo double-double pairs (lo parts from a 45-digit evaluation).
_AI0_HI = 0.3550280538878172
_AI0_LO = 2.05233632436212e-17
_AIP0_HI = -0.2588194037928068
_AIP0_LO = 2.522243111610832e-17

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


# ----------------------------------------------------------------------
# double-double primitives (vectorized, branch-free)

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)

def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi

def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err

def _dd_add(ah, al, bh, bl):
    sh, sl = _two_sum(ah, bh)
    sl = sl + (al + bl)
    return _two_sum(sh, sl)

def _dd_mul(ah, al, bh, bl):
    ph, pl = _two_prod(ah, bh)
    pl = pl + (ah * bl + al * bh)
    return _two_sum(ph, pl)

def _dd_div_scalar(ah, al, d):
    # (ah, al) / d with d an exactly representable double
    qh = ah / d
    ph, pl = _two_prod(qh, d)
    ql = ((ah - ph) - pl + al) / d
    return _two_sum(qh, ql)


# ----------------------------------------------------------------------
# Maclaurin series, |x| <= 7.2

def _airy_series(x):
    """Sum Ai = c1*f - c2*g and Ai' = c1*f' - c2*g' in double-double.

    Term recurrences (t <- t * x^3 / r_k):
        f : a0 = 1,     r = (3k+2)(3k+3)
        g : b0 = x,     r = (3k+3)(3k+4)
        f': p1 = x^2/2, r = (3k)(3k+2)      (series starts at k = 1)
        g': q0 = 1,     r = (3k+1)(3k+3)
    """
    x = np.asarray(x, dtype=float)
    x2h, x2l = _two_prod(x, x)
    x3h, x3l = _dd_mul(x2h, x2l, x, np.zeros_like(x))

    ah, al = np.ones_like(x), np.zeros_like(x)          # f term
    bh, bl = x.copy(), np.zeros_like(x)                 # g term
    qh, ql = np.ones_like(x), np.zeros_like(x)          # g' term
    ph, pl = 0.5 * x2h, 0.5 * x2l                       # f' term (k=1), x^2/2 exact halving

    fh, fl = ah.copy(), al.copy()
    gh, gl = bh.copy(), bl.copy()
    fph, fpl = np.zeros_like(x), np.zeros_like(x)
    gph, gpl = qh.copy(), ql.copy()
    fph, fpl = _dd_add(fph, fpl, ph, pl)

    for k in range(200):
        ra = (3 * k + 2) * (3 * k + 3)
        rb = (3 * k + 3) * (3 * k + 4)
        rq = (3 * k + 1) * (3 * k + 3)
        kk = k + 1
        rp = (3 * kk) * (3 * kk + 2)

        th, tl = _dd_div_scalar(x3h, x3l, float(ra))
        ah, al = _dd_mul(ah, al, th, tl)
        th, tl = _dd_div_scalar(x3h, x3l, float(rb))
        bh, bl = _dd_mul(bh, bl, th, tl)
        th, tl = _dd_div_scalar(x3h, x3l, float(rq))
        qh, ql = _dd_mul(qh, ql, th, tl)
        th, tl = _dd_div_scalar(x3h, x3l, float(rp))
        ph, pl = _dd_mul(ph, pl, th, tl)

        fh, fl = _dd_add(fh, fl, ah, al)
        gh, gl = _dd_add(gh, gl, bh, bl)
        gph, gpl = _dd_add(gph, gpl, qh, ql)
        fph, fpl = _dd_add(fph, fpl, ph, pl)

        scale = np.maximum(np.abs(fh), 1.0)
        if np.all(np.abs(ah) < 1e-36 * scale) and np.all(np.abs(bh) < 1e-36 * scale):
            break

    aih, ail = _dd_add(*_dd_mul(fh, fl, np.full_like(x, _AI0_HI), np.full_like(x, _AI0_LO)),
                       *_dd_mul(gh, gl, np.full_like(x, _AIP0_HI), np.full_like(x, _AIP0_LO)))
    aph, apl = _dd_add(*_dd_mul(fph, fpl, np.full_like(x, _AI0_HI), np.full_like(x, _AI0_LO)),
                       *_dd_mul(gph, gpl, np.full_like(x, _AIP0_HI), np.full_like(x, _AIP0_LO)))
    return aih + ail, aph + apl


# ----------------------------------------------------------------------
# asymptotic expansions, |x| > 7.2

def _asym_coeffs(nmax=28):
    u = [1.0]
    for k in range(nmax):
        u.append(u[k] * (6 * k + 1) * (6 * k + 3) * (6 * k + 5) / (216.0 * (2 * k + 1) * (k + 1)))
    v = [1.0] + [-(6 * k + 1.0) / (6 * k - 1.0) * u[k] for k in range(1, nmax + 1)]
    return np.array(u), np.array(v)

_U, _V = _asym_coeffs()


def _airy_asym_pos(x):
    zeta = (2.0 / 3.0) * x ** 1.5
    sA = np.zeros_like(x)
    sV = np.zeros_like(x)
    term_prev = np.full_like(x, np.inf)
    zk = np.ones_like(x)
    live = np.ones_like(x, dtype=bool)
    for k in range(len(_U)):
        ta = (-1.0) ** k * _U[k] / zk
        tv = (-1.0) ** k * _V[k] / zk
        live = live & (np.abs(ta) < term_prev)   # stop at the smallest term
        term_prev = np.where(live, np.abs(ta), term_prev)
        sA = np.where(live, sA + ta, sA)
        sV = np.where(live, sV + tv, sV)
        zk = zk * zeta
    pref = np.exp(-zeta) / (2.0 * np.sqrt(np.pi) * x ** 0.25)
    ai = pref * sA
    aip = -np.exp(-zeta) * x ** 0.25 / (2.0 * np.sqrt(np.pi)) * sV
    return ai, aip


def _airy_asym_neg(x):
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    c = np.cos(zeta - 0.25 * np.pi)
    s = np.sin(zeta - 0.25 * np.pi)
    Se = np.zeros_like(z); So = np.zeros_like(z)
    Ve = np.zeros_like(z); Vo = np.zeros_like(z)
    term_prev = np.full_like(z, np.inf)
    live = np.ones_like(z, dtype=bool)
    zk = np.ones_like(z)        # zeta^(2j)
    for j in range(len(_U) // 2):
        sgn = (-1.0) ** j
        te = sgn * _U[2 * j] / zk
        to = sgn * _U[2 * j + 1] / (zk * zeta)
        live = live & (np.abs(te) < term_prev)
        term_prev = np.where(live, np.abs(te), term_prev)
        Se = np.where(live, Se + te, Se)
        So = np.where(live, So + to, So)
        Ve = np.where(live, Ve + sgn * _V[2 * j] / zk, Ve)
        Vo = np.where(live, Vo + sgn * _V[2 * j + 1] / (zk * zeta), Vo)
        zk = zk * zeta * zeta
    ai = (c * Se + s * So) / (np.sqrt(np.pi) * z ** 0.25)
    aip = (s * Ve - c * Vo) * z ** 0.25 / np.sqrt(np.pi)
    return ai, aip


# ----------------------------------------------------------------------
# public surface

def airy_both(x):
    """Return (Ai(x), Ai'(x)) for scalar or array x, |x| <= 60.

    Relative accuracy ~1e-11 or better away from the zeros of Ai on the
    negative axis; absolute accuracy ~1e-12 everywhere in range.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError("airy argument must be finite")
    if arr.size and np.max(np.abs(arr)) > SUPPORTED_RANGE:
        raise DomainError(
            f"airy argument outside supported interval [-{SUPPORTED_RANGE:g}, {SUPPORTED_RANGE:g}]")
    flat = arr.ravel()
    ai = np.empty_like(flat)
    aip = np.empty_like(flat)
    ser = np.abs(flat) <= _SERIES_CUT
    pos = flat > _SERIES_CUT
    neg = flat < -_SERIES_CUT
    if ser.any():
        ai[ser], aip[ser] = _airy_series(flat[ser])
    if pos.any():
        ai[pos], aip[pos] = _airy_asym_pos(flat[pos])
    if neg.any():
        ai[neg], aip[neg] = _airy_asym_neg(flat[neg])
    ai = ai.reshape(arr.shape)
    aip = aip.reshape(arr.shape)
    if arr.ndim == 0:
        return float(ai), float(aip)
    return ai, aip


def logistic(x):
    """1/(1 + exp(-x)) for real array x, without overflow at any |x|."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x > 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out
