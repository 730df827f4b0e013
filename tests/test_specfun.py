import math

import numpy as np
import pytest

from airykpz.errors import DomainError
from airykpz.specfun import airy_both, logistic

# Reference values from a 30-digit arbitrary-precision evaluation
# (independent algorithm), frozen: (x, Ai(x), Ai'(x)).
AIRY_REF = [
    (-59.0, 0.1970653779124357311, -0.3912516748273272947),
    (-45.5, -0.2017556879549221569, 0.5420500171328671581),
    (-30.0, -0.08796818845684216283, 1.228620602637485135),
    (-21.25, -0.03041231931730204597, 1.202848375872478846),
    (-12.0, -0.06655517505437312947, 1.02311045336797073),
    (-8.0, -0.05270505035638620262, 0.935560938198306551),
    (-7.3, 0.335770370515147277, -0.1800958044832936599),
    (-7.1, 0.2540363285619781457, -0.6155287875402288129),
    (-5.5, 0.0177815412765749756, 0.8641972177713983908),
    (-1.0, 0.5355608832923521188, -0.0101605671166452094),
    (-0.25, 0.4187246142754529242, -0.246389189920175973),
    (0.0, 0.3550280538878172393, -0.2588194037928067984),
    (0.5, 0.2316936064808334898, -0.2249105326646838931),
    (1.0, 0.1352924163128814155, -0.1591474412967932128),
    (2.0, 0.03492413042327437914, -0.0530903844336536317),
    (3.5, 0.002584098786989634963, -0.005004413967952582832),
    (5.0, 0.0001083444281360744173, -0.000247413890868462476),
    (6.5, 2.795882343204913585e-6, -7.23193146660179256e-6),
    (7.1, 5.725322885877662748e-7, -1.545100366789770391e-6),
    (7.3, 3.325137824437759216e-7, -9.094540388833463758e-7),
    (9.0, 2.471168430872489843e-9, -7.480641389658946413e-9),
    (12.0, 1.393184688875360839e-13, -4.854736554985308463e-13),
    (20.0, 1.691672868670540314e-27, -7.586391625748354961e-27),
    (35.0, 1.298199973121842694e-61, -7.689499683629199494e-61),
    (59.0, 6.256527549941553585e-133, -4.808377425557188549e-132),
]

FIRST_AI_ZERO = -2.338107410459767038489


@pytest.mark.parametrize("x,ai_ref,aip_ref", AIRY_REF)
def test_airy_reference_values(x, ai_ref, aip_ref):
    ai, aip = airy_both(x)
    # relative where the value is not minuscule against the local envelope,
    # absolute (1e-12) otherwise; stricter than the 1e-10 contract
    assert abs(ai - ai_ref) <= max(1e-11 * abs(ai_ref), 1e-12)
    assert abs(aip - aip_ref) <= max(1e-11 * abs(aip_ref), 1e-12)


def test_airy_at_zero_closed_forms():
    assert airy_both(0.0)[0] == pytest.approx(3 ** (-2 / 3) / math.gamma(2 / 3), rel=1e-14)
    assert airy_both(0.0)[1] == pytest.approx(-(3 ** (-1 / 3)) / math.gamma(1 / 3), rel=1e-14)
    assert airy_both(0.0)[0] == pytest.approx(0.35502805388781723926, rel=1e-15)
    assert airy_both(0.0)[1] == pytest.approx(-0.25881940379280679840, rel=1e-15)


def test_airy_large_positive_asymptotic_bounds():
    x = 10.0
    bound = math.exp(-(2 / 3) * x ** 1.5) / (2 * math.sqrt(math.pi) * x ** 0.25)
    assert 0 < airy_both(10.0)[0] < 1.2e-10
    assert airy_both(10.0)[0] < bound * 1.01
    aip = airy_both(10.0)[1]
    assert aip < 0 and abs(aip) < 4e-10


def test_airy_first_zero():
    assert abs(airy_both(FIRST_AI_ZERO)[0]) < 1e-9


def test_airy_ode_residual():
    # centered second difference must satisfy Ai'' = x Ai; the 5-point
    # stencil keeps the stencil's own truncation (~h^4 x^3 Ai) below the
    # 1e-6 bound, which a 3-point stencil cannot do at |x| = 15
    xs = np.linspace(-15.0, 15.0, 200)
    h = 1e-3
    d2 = (-airy_both(xs + 2 * h)[0] + 16 * airy_both(xs + h)[0] - 30 * airy_both(xs)[0]
          + 16 * airy_both(xs - h)[0] - airy_both(xs - 2 * h)[0]) / (12 * h ** 2)
    resid = np.abs(d2 - xs * airy_both(xs)[0])
    assert np.all(resid <= 1e-6 * np.maximum(1.0, np.abs(airy_both(xs)[0])))


def test_airy_positive_monotone_decreasing():
    xs = np.linspace(0.0, 20.0, 101)
    vals = airy_both(xs)[0]
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_airy_derivative_consistency():
    # centered first difference against Ai', away from the zeros of Ai'
    xs = np.linspace(-10.0, 10.0, 401)
    aip = airy_both(xs)[1]
    keep = np.abs(aip) > 0.05
    h = 1e-5
    fd = (airy_both(xs[keep] + h)[0] - airy_both(xs[keep] - h)[0]) / (2 * h)
    assert np.max(np.abs(fd - aip[keep]) / np.abs(aip[keep])) < 1e-7


def test_series_asymptotic_switchover_agreement():
    # both branches agree to <= 1e-11 around the +-7.2 switchover
    from airykpz.specfun import _airy_asym_neg, _airy_asym_pos, _airy_series
    xs = np.linspace(6.9, 7.5, 25)
    ai_s, aip_s = _airy_series(xs)
    ai_a, aip_a = _airy_asym_pos(xs)
    assert np.max(np.abs(ai_s - ai_a) / np.abs(ai_a)) < 1e-11
    assert np.max(np.abs(aip_s - aip_a) / np.abs(aip_a)) < 1e-11
    xs = -xs
    ai_s, aip_s = _airy_series(xs)
    ai_a, aip_a = _airy_asym_neg(xs)
    env = 1.0 / (np.sqrt(np.pi) * np.abs(xs) ** 0.25)
    assert np.max(np.abs(ai_s - ai_a) / env) < 1e-11
    env_p = np.abs(xs) ** 0.25 / np.sqrt(np.pi)
    assert np.max(np.abs(aip_s - aip_a) / env_p) < 1e-11


def test_airy_scipy_cross_check():
    # scipy's AMOS implementation as a second independent oracle
    from scipy.special import airy as scipy_airy
    xs = np.linspace(-59.5, 59.5, 1191)
    ai, aip = airy_both(xs)
    ai_ref, aip_ref, _, _ = scipy_airy(xs)
    assert np.max(np.abs(ai - ai_ref) / np.maximum(np.abs(ai_ref), 1e-2)) < 1e-10
    assert np.max(np.abs(aip - aip_ref) / np.maximum(np.abs(aip_ref), 1e-2)) < 1e-10


def test_airy_vectorized_shapes_and_pair():
    grid = np.linspace(-3, 3, 12).reshape(3, 4)
    ai, aip = airy_both(grid)
    assert ai.shape == grid.shape and aip.shape == grid.shape
    ai1, aip1 = airy_both(1.0)
    assert isinstance(ai1, float) and isinstance(aip1, float)
    assert ai1 == pytest.approx(0.1352924163128814155, rel=1e-12)


def test_airy_domain_errors():
    with pytest.raises(DomainError):
        airy_both(60.5)
    with pytest.raises(DomainError):
        airy_both(-61.0)
    with pytest.raises(DomainError):
        airy_both(float("nan"))


def test_logistic_overflow_safe():
    x = np.array([-800.0, -30.0, -0.5, 0.0, 0.5, 30.0, 800.0])
    f = logistic(x)
    assert np.all(np.isfinite(f))
    assert f[0] == 0.0 and f[3] == 0.5 and f[-1] == 1.0
    assert f == pytest.approx(1.0 / (1.0 + np.exp(-np.clip(x, -700, 700))), rel=1e-15)
    assert f + logistic(-x) == pytest.approx(np.ones_like(x), abs=1e-15)
