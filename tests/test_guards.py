import math

import numpy as np
import pytest

from airykpz import airy_side, kpz_side
from airykpz.errors import (AiryKpzError, ConfigurationError, DomainError,
                            NumericalConsistencyError, check_order, check_positive, outcome,
                            value)
from airykpz.params import ModelParams

_P = ModelParams.from_C(1.0, 1.0)
_PIPELINES = {
    "tracy_widom_f2": (airy_side, lambda: airy_side.tracy_widom_f2(0.0)),
    "airy_mult_stat": (airy_side, lambda: airy_side.airy_mult_stat(_P)),
    "kpz_laplace": (kpz_side, lambda: value(kpz_side.kpz_laplaces(_P.C, [_P.u])[0])),
}


@pytest.mark.parametrize("pipeline", sorted(_PIPELINES))
def test_fredholm_pipelines_share_the_probability_bound(pipeline, monkeypatch):
    # each det(1 - K) pipeline accepts (0, 1 + 1e-10], clips to 1, and raises
    # outside; F2 once demanded (0, 1) and did not clip.  A value in
    # [0, DBL_MIN) underflowed, a domain limit, not a fault
    module, call = _PIPELINES[pipeline]
    for det, expect in ((0.25, 0.25), (1.0, 1.0), (1.0 + 5e-11, 1.0), (2.3e-308, 2.3e-308)):
        monkeypatch.setattr(module, "fredholm_det_matrix", lambda *a, det=det: det)
        assert call() == expect
    for det in (1.0 + 1e-9, -0.1, -5e-324, math.nan):
        monkeypatch.setattr(module, "fredholm_det_matrix", lambda *a, det=det: det)
        with pytest.raises(NumericalConsistencyError, match=r"outside \(0, 1\]"):
            call()
    for det in (0.0, -0.0, 5e-324, 2.2e-308):
        monkeypatch.setattr(module, "fredholm_det_matrix", lambda *a, det=det: det)
        with pytest.raises(DomainError, match=" = .* underflows double precision"):
            call()


def test_fredholm_pipelines_at_the_underflow_point():
    # at C = 23.73, u = 1e300 the KPZ determinant's log is -856: LU returns
    # -0.0, an underflow.  The Airy side is no underflow but an
    # under-resolved grid: w k(x, x) reaches 1.17 on its 80 nodes, so I - K_w
    # has eigenvalues down to -0.9987 and its LU determinant is roundoff of
    # either sign; the diagonal makes it a consistency fault whatever the sign
    p = ModelParams.from_C(23.73, 1e300)
    with pytest.raises(DomainError, match="kpz_laplace = -0.0 underflows double precision"):
        value(kpz_side.kpz_laplaces(p.C, [p.u])[0])
    with pytest.raises(NumericalConsistencyError, match=r"grid too coarse: w k\(x, x\) = 1\.17 >= 1 "):
        airy_side.airy_mult_stat(p)


def test_order_check():
    for k in (1, 4, np.int64(3)):
        check_order("f", k)
    for k in (0, 5, 2.0, np.float64(2.0), True, "2", None):
        with pytest.raises(ConfigurationError, match="f supports integer 1 <= k <= 4"):
            check_order("f", k)
    check_order("f", 20, k_max=20)


def test_positivity_check():
    assert check_positive("m", 2.5) == 2.5
    for val in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(NumericalConsistencyError, match="m = .* is not positive"):
            check_positive("m", val)


def test_outcome_holds_a_package_error_and_lets_any_other_propagate():
    refusal = DomainError("refused")

    def refuse():
        raise refusal

    got = outcome(refuse)
    assert got is refusal and isinstance(got, AiryKpzError)
    assert outcome(max, 1, 2) == 2 and value(2) == 2
    with pytest.raises(DomainError, match="refused"):
        value(got)
    with pytest.raises(TypeError):
        outcome(max, 1, "a")
