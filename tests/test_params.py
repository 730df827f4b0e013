import dataclasses
import math

import numpy as np
import pytest

from airykpz.errors import DomainError
from airykpz.kpz_side import kpz_laplaces, kpz_moment, kpz_moment_nested
from airykpz.montecarlo import MIN_KEPT, estimate_h_moment, estimate_mult_stat
from airykpz.params import ModelParams


def test_from_C_derives_T():
    p = ModelParams.from_C(1.3, 0.5)
    assert p.T == pytest.approx(2.0 * 1.3 ** 3, rel=1e-15)
    assert p.u == 0.5


def test_from_T_derives_C():
    p = ModelParams.from_T(2.0, 1.0)
    assert p.C == pytest.approx(1.0, rel=1e-15)
    assert ModelParams.from_T(p.T, p.u) == p


def test_roundtrip_consistency():
    for C in (0.3, 0.9, 2.4):
        p = ModelParams.from_C(C, 1.0)
        q = ModelParams.from_T(p.T, 1.0)
        assert q.C == pytest.approx(C, rel=1e-14)


def test_T_is_derived_from_C():
    # T is not stored: it is 2 C^3 on every construction path
    for C in (0.3, 1.0, 2.4):
        assert ModelParams(C, 0.5).T == 2.0 * C ** 3
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["C", "u"]


def test_validation():
    with pytest.raises(DomainError):
        ModelParams.from_C(-1.0, 0.0)
    with pytest.raises(DomainError):
        ModelParams.from_T(0.0, 0.0)
    with pytest.raises(DomainError):
        ModelParams.from_C(1.0, -0.5)
    with pytest.raises(DomainError):
        ModelParams.from_T(-2.0, 0.0)
    with pytest.raises(DomainError):
        ModelParams(0.0, 1.0)
    # C = 1e200 is finite, but T = 2C^3 is not
    for C, u in ((math.inf, 1.0), (1e200, 1.0), (1.0, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            ModelParams(C, u)
    with pytest.raises(DomainError, match="requires T > 0 and finite"):
        ModelParams.from_T(math.inf, 1.0)



_SAMPLES = np.zeros((2, MIN_KEPT))
# each public entry point that takes a C, T or u, called with that one
# argument bad; u = 0 is a valid Laplace variable, so u is tried at the rest
_ENTRIES = {
    "kpz_moment-T": lambda T: kpz_moment(1, T),
    "kpz_moment_nested-T": lambda T: kpz_moment_nested(2, T),
    "estimate_h_moment-C": lambda C: estimate_h_moment(_SAMPLES, 1, C),
    "estimate_mult_stat-C": lambda C: estimate_mult_stat(_SAMPLES, 1.0, C),
    "estimate_mult_stat-u": lambda u: estimate_mult_stat(_SAMPLES, u, 0.5),
    "kpz_laplaces-u": lambda u: kpz_laplaces(1.0, [1.0, u]),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in _ENTRIES
    for bad in ([-1.0, math.nan, math.inf] if entry.endswith("-u")
                else [0.0, -1.0, math.nan, math.inf])])
def test_every_entry_point_judges_C_T_and_u_through_ModelParams(entry, bad):
    # ModelParams is the one judge of C, T and u: a value it refuses is its
    # DomainError on every path
    with pytest.raises(DomainError, match=r"^ModelParams requires"):
        _ENTRIES[entry](bad)
