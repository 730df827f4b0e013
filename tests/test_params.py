import dataclasses
import math

import pytest

from airykpz.errors import DomainError
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
