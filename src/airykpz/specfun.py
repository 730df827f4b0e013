"""High-accuracy real-argument Airy function Ai, its derivative and the
overflow-safe logistic function.

Self-contained: no special-function library is used.  On the whole
supported range [-60, 60], Ai and Ai' come from one fixed table of
degree-23 Taylor expansions of Ai about centres every 0.25 on
[-60.25, 60.25], evaluated at the nearest centre (|h| <= 0.125): one
Horner pass over the centre's coefficients yields the polynomial and its
derivative, Ai and Ai' (:func:`airy_both`), or the polynomial alone,
Ai (:func:`airy_ai`), with the same bits at half the work; both pass one
range check.  The coefficients follow from the Airy equation y'' = x y
(DLMF 9.2.1): a_2 = x0 a_0 / 2 and (n+2)(n+1) a_{n+2} = x0 a_n + a_{n-1}.

The table is built once at import by one march of Taylor steps of that
equation, leftward from the asymptotic value (DLMF 9.7) at 60.25 to
-60.25 (stable, because Ai is the solution recessive to the right), then
scaled once so that its value at 0 is the closed-form Ai(0): the march
is linear, and its seed carries the rounding of zeta ~ 311.8 (4.7e-14).
Import raises unless the scaled Ai'(0) meets the closed form to 1e-14
relative (measured 2.2e-16) and the march lands on the asymptotic value
at -60.25 to 1e-12 of the local envelope (measured 1.5e-15 for Ai,
7.0e-14 for Ai').  The asymptotic expansions serve only to seed and
check the table.  Accuracy against a 40-digit reference is pinned by
``tests/test_specfun.py::test_airy_against_mpmath``: 2e-14 relative on
[0, 60] and 1e-14 of the local envelope on [-60, 0) (measured 4.2e-15
and 2.7e-15).

All entry points accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericalConsistencyError

__all__ = ["airy_ai", "airy_both", "logistic"]

SUPPORTED_RANGE = 60.0

# Ai(0) = 3^(-2/3)/Gamma(2/3) and Ai'(0) = -3^(-1/3)/Gamma(1/3)
_AI0 = 0.3550280538878172
_AIP0 = -0.2588194037928068

_STEP = 0.25
_EDGE = SUPPORTED_RANGE + _STEP   # outermost centres: seed and landing of the march
_DEGREE = 23


# ----------------------------------------------------------------------
# asymptotic expansions: seed and check the table at import

def _asym_coeffs(nmax=28):
    u = [1.0]
    for k in range(nmax):
        u.append(u[k] * (6 * k + 1) * (6 * k + 3) * (6 * k + 5) / (216.0 * (2 * k + 1) * (k + 1)))
    v = [1.0] + [-(6 * k + 1.0) / (6 * k - 1.0) * u[k] for k in range(1, nmax + 1)]
    return np.array(u), np.array(v)

_U, _V = _asym_coeffs()


def _asym_sums(zeta):
    """S_u = sum_k (-1)^k u_k / zeta^k and S_v likewise (DLMF 9.7.5-6),
    both cut at the smallest term of S_u; zeta real, or i times real for
    the oscillatory side, whose even and odd terms (DLMF 9.7.9-10) are
    then the real and imaginary parts."""
    su, sv = np.zeros_like(zeta), np.zeros_like(zeta)
    term_prev = np.full(zeta.shape, np.inf)
    zk = np.ones_like(zeta)
    live = np.ones(zeta.shape, dtype=bool)
    for k in range(len(_U)):
        ta = (-1.0) ** k * _U[k] / zk
        tv = (-1.0) ** k * _V[k] / zk
        live = live & (np.abs(ta) < term_prev)   # stop at the smallest term
        term_prev = np.where(live, np.abs(ta), term_prev)
        su = np.where(live, su + ta, su)
        sv = np.where(live, sv + tv, sv)
        zk = zk * zeta
    return su, sv


def _airy_asym_pos(x):
    zeta = (2.0 / 3.0) * x ** 1.5
    su, sv = _asym_sums(zeta)
    pref = np.exp(-zeta) / (2.0 * np.sqrt(np.pi) * x ** 0.25)
    return pref * su, -np.exp(-zeta) * x ** 0.25 / (2.0 * np.sqrt(np.pi)) * sv


def _airy_asym_neg(x):
    """Ai(-z) = Re[e^{-i(zeta - pi/4)} S_u(i zeta)]/(sqrt(pi) z^{1/4}) and
    Ai'(-z) = -Im[e^{-i(zeta - pi/4)} S_v(i zeta)] z^{1/4}/sqrt(pi)."""
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    su, sv = _asym_sums(1j * zeta)
    phase = np.exp(-1j * (zeta - 0.25 * np.pi))
    return ((phase * su).real / (np.sqrt(np.pi) * z ** 0.25),
            -(phase * sv).imag * z ** 0.25 / np.sqrt(np.pi))


# ----------------------------------------------------------------------
# Taylor table

def _taylor_coeffs(x0, ai, aip):
    """Taylor coefficients a_0..a_{_DEGREE} of Ai about x0 from Ai(x0), Ai'(x0)."""
    a = [ai, aip, 0.5 * x0 * ai]
    for n in range(1, _DEGREE - 1):
        a.append((x0 * a[n] + a[n - 1]) / ((n + 2) * (n + 1)))
    return np.array(a)


def _horner(table, j, h, derivative=True):
    """p = sum table[n][j] * h**n and, with ``derivative``, dp/dh from one
    Horner sweep, gathering one coefficient row per step; p's recurrence
    never reads dp, so it has the same bits either way."""
    p = np.take(table[-1], j)
    dp = np.zeros_like(p) if derivative else None
    for row in table[-2::-1]:
        if derivative:
            dp *= h
            dp += p
        p *= h
        p += np.take(row, j)
    return p, dp


def _march(x0, ai, aip, step, n):
    """Coefficient rows about x0 + k*step, k = 0..n-1, from Ai(x0), Ai'(x0)."""
    powers = step ** np.arange(_DEGREE + 1)
    rows = []
    for k in range(n):
        a = _taylor_coeffs(x0 + k * step, ai, aip)
        rows.append(a)
        ai, aip = a @ powers, (a[1:] * np.arange(1, _DEGREE + 1)) @ powers[:-1]
    return rows


def _taylor_table():
    n = round(_EDGE / _STEP)
    ai, aip = _airy_asym_pos(np.array([_EDGE]))
    rows = np.array(_march(_EDGE, ai[0], aip[0], -_STEP, 2 * n + 1))   # centres _EDGE .. -_EDGE
    rows *= _AI0 / rows[n, 0]                            # the one normalization
    if abs(rows[n, 1] / _AIP0 - 1.0) > 1e-14:
        raise NumericalConsistencyError(
            f"Taylor march scaled to Ai(0) reached Ai'(0) = {rows[n, 1]!r}; closed form {_AIP0!r}")
    ai, aip = _airy_asym_neg(np.array([-_EDGE]))
    env, env_p = 1.0 / (np.sqrt(np.pi) * _EDGE ** 0.25), _EDGE ** 0.25 / np.sqrt(np.pi)
    if abs(rows[-1, 0] - ai[0]) > 1e-12 * env or abs(rows[-1, 1] - aip[0]) > 1e-12 * env_p:
        raise NumericalConsistencyError(
            f"Taylor march reached Ai(-{_EDGE:g}) = {rows[-1, 0]!r}, "
            f"Ai'(-{_EDGE:g}) = {rows[-1, 1]!r}; asymptotic values {ai[0]!r}, {aip[0]!r}")
    return rows[::-1].T.copy()                           # centres -_EDGE .. _EDGE


_AI_T = _taylor_table()


def _nearest_centre(x):
    """Index j of the table centre nearest x, and the offset h of x from
    it; DomainError unless every x is finite and |x| <= 60.  The one Airy
    range check."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError("airy argument must be finite")
    if arr.size and np.max(np.abs(arr)) > SUPPORTED_RANGE:
        raise DomainError(
            f"airy argument outside supported interval [-{SUPPORTED_RANGE:g}, {SUPPORTED_RANGE:g}]")
    j = np.rint((arr + _EDGE) / _STEP).astype(np.intp)
    return j, arr - (j * _STEP - _EDGE)


# ----------------------------------------------------------------------
# public surface

def airy_both(x):
    """Return (Ai(x), Ai'(x)) for scalar or array x, |x| <= 60.

    One Taylor table serves the whole range.  Measured against a 40-digit
    reference: 4.2e-15 relative on [0, 60], and on [-60, 0), where Ai and
    Ai' have zeros, 2.7e-15 of the local envelope (|x|^(-1/4)/sqrt(pi) for
    Ai, |x|^(1/4)/sqrt(pi) for Ai'); the tests hold 2e-14 and 1e-14.
    """
    j, h = _nearest_centre(x)
    ai, aip = _horner(_AI_T, j, h)
    return (float(ai), float(aip)) if np.ndim(h) == 0 else (ai, aip)


def airy_ai(x):
    """Ai(x) for scalar or array x, |x| <= 60: the bits of
    ``airy_both(x)[0]``, from the value half of its Horner sweep."""
    j, h = _nearest_centre(x)
    ai, _ = _horner(_AI_T, j, h, derivative=False)
    return float(ai) if np.ndim(h) == 0 else ai


def logistic(x, out=None):
    """1/(1 + exp(-x)) for real array x, without overflow at any |x|:
    1/(1 + t) for x > 0 and t/(1 + t) otherwise, t = exp(-|x|).  Written
    into ``out`` when given, which may be x itself."""
    x = np.asarray(x, dtype=float)
    pos = x > 0
    if out is None:
        out = np.empty_like(x)
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    den = 1.0 + out
    np.copyto(out, 1.0, where=pos)
    out /= den
    return out
