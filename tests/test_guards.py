import math

import numpy as np
import pytest

from airykpz import airy_side, kpz_side
from airykpz.errors import (ConfigurationError, NumericalConsistencyError, check_order,
                            check_positive)
from airykpz.params import ModelParams

_P = ModelParams.from_C(1.0, 1.0)
_PIPELINES = {
    "tracy_widom_f2": (airy_side, lambda: airy_side.tracy_widom_f2(0.0)),
    "airy_mult_stat": (airy_side, lambda: airy_side.airy_mult_stat(_P)),
    "kpz_laplace": (kpz_side, lambda: kpz_side.kpz_laplace(_P)),
}


@pytest.mark.parametrize("pipeline", sorted(_PIPELINES))
def test_fredholm_pipelines_share_the_probability_bound(pipeline, monkeypatch):
    # each det(1 - K) pipeline accepts (0, 1 + 1e-10], clips to 1, and raises
    # outside; F2 once demanded (0, 1) and did not clip
    module, call = _PIPELINES[pipeline]
    for det, expect in ((0.25, 0.25), (1.0, 1.0), (1.0 + 5e-11, 1.0)):
        monkeypatch.setattr(module, "fredholm_det_matrix", lambda *a, det=det: det)
        assert call() == expect
    for det in (1.0 + 1e-9, 0.0, -0.1, math.nan):
        monkeypatch.setattr(module, "fredholm_det_matrix", lambda *a, det=det: det)
        with pytest.raises(NumericalConsistencyError, match=r"outside \(0, 1\]"):
            call()


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
