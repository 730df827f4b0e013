"""Tests of the benchmark's own machinery: span arithmetic, binding
restoration, check ids, and checks that do not trust the program's verdict.

    python3 -m pytest -q bench/check_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import airykpz  # noqa: E402
from airykpz import airy_side, kpz_side  # noqa: E402

import one_pass  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    return {(m.__name__, k): v for m in tracing.package_modules() for k, v in vars(m).items()}


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    S = tracing.Span
    spans = [S(0, "a", None, "x", 0.0, 10.0),
             S(1, "b", 0, "x", 1.0, 3.0),
             S(2, "c", 0, "y", 2.0, 5.0),      # overlaps b: the union counts once
             S(3, "d", 0, "y", 8.0, 12.0),     # runs past its parent: clipped
             S(4, "e", 1, "x", 1.5, 2.5)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 4.0, 1: 1.0, 2: 3.0, 3: 4.0, 4: 1.0})
    assert tracing.top_level_seconds(spans) == 10.0
    assert tracing.seconds_per_check(spans) == pytest.approx({"x": 6.0, "y": 7.0})


def test_tracer_nests_spans_and_sums_self_time():
    tr = tracing.Tracer(clock=FakeClock([0.0, 1.0, 4.0, 5.0, 7.0, 10.0]))
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer, first, second = tr.spans
    assert first.parent == second.parent == outer.id and outer.parent is None
    agg = tracing.summarize(tr.spans)
    assert agg["outer"] == {"calls": 1, "s": 10.0, "self_s": 5.0}
    assert agg["inner"] == {"calls": 2, "s": 5.0, "self_s": 5.0}


def test_instrument_wraps_every_consumer_binding_and_restores_them():
    before = _bindings()
    original = kpz_side.tensor_integrate
    tr = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tr):
            # the name is bound separately in each consumer module
            assert airy_side.tensor_integrate is not original
            assert kpz_side.tensor_integrate is not original
            assert airy_side.tensor_integrate is kpz_side.tensor_integrate
            assert airykpz.tensor_integrate is kpz_side.tensor_integrate
            raise RuntimeError("bindings must be restored on error too")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_calls_through_consumer_modules_are_traced():
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        airykpz.laplace_R([1.0, 2.0], nodes_per_axis=8)
        airykpz.tracy_widom_f2(-2.0, airy_side.default_f2_grid(-2.0, 10))
    by_id = {sp.id: sp for sp in tr.spans}
    tensor = next(sp for sp in tr.spans if sp.name == "quadrature.tensor_integrate.l2")
    assert by_id[tensor.parent].name == "airy_side.laplace_R"
    integrands = [sp for sp in tr.spans if sp.name.endswith(".integrand")]
    assert integrands and all(sp.parent == tensor.id for sp in integrands)
    assert tr.counts["quadrature.tensor_integrate.l2.nodes"] == 64
    assert tr.counts["quadrature.fredholm_det_matrix.order_sum"] == 10
    assert tr.counts["specfun.airy_both.points"] >= 10
    kernel = next(sp for sp in tr.spans if sp.name == "airy_side.airy_kernel_matrix")
    assert by_id[kernel.parent].name == "airy_side.tracy_widom_f2"


def test_cli_rows_get_their_own_check_ids():
    tr = tracing.Tracer()
    tr.check = "thm1"
    with tracing.instrument(tr):
        workloads.Step("thm1", argv=("verify-theorem1", "--C", "1", "--u", "1,2")).run()
    assert tr.check == "thm1"
    by_name = {sp.name: sp for sp in tr.spans}
    assert by_name["cli.verify-theorem1"].check == "thm1"
    assert by_name["cli.render"].check == "thm1"
    stats = [sp.check for sp in tr.spans if sp.name == "airy_side.airy_mult_stat"]
    assert stats == ["thm1/row0", "thm1/row1"]
    assert tr.counts["cli.verify-theorem1.rows"] == 2


def _mc_csv(h_lhs, flagged="false", samples=2000):
    head = "kind,param,C,T,lhs_value,rhs_value,abs_diff,rel_diff,aux,status"
    rows = [f"h_moment,1,0.5,0.25,{h_lhs},1.0,0,0,stderr=0.01;tol=0.07;samples={samples},ok",
            f"mult_stat,1,0.5,0.25,0.5,0.5,0,0,stderr=0.01;bias=1e-9;flagged={flagged};"
            f"tol=0.03;samples={samples},ok"]
    return workloads.CliResult(0, "\n".join([head, *rows]) + "\n", "")


def _failed(outputs):
    return {c.id for c in workloads.mc_checks(outputs) if not c.ok}


def test_checks_read_values_not_the_status_column():
    assert _failed({"mc-check": _mc_csv(1.01)}) == set()
    # the status column still says ok; the values say otherwise
    assert _failed({"mc-check": _mc_csv(1.2)}) == {"mc-check/h_moment/param=1"}
    assert _failed({"mc-check": _mc_csv(1.01, flagged="true")}) == {
        "mc-check/mult_stat/param=1"}
    assert "mc-check/h_moment/param=1" in _failed({"mc-check": _mc_csv(1.01, samples=100)})
    bad_exit = workloads.CliResult(1, _mc_csv(1.01).stdout, "")
    assert _failed({"mc-check": bad_exit}) == {"mc-check/exit"}
    assert "mc-check/exit" in _failed({"mc-check": workloads.StepError("boom")})


def test_output_mismatch_between_passes_fails_byte_stability():
    check = {"id": "x", "ok": True, "ratio": 0.5, "detail": ""}
    same = [{"checks": [check], "sha256": "a"}, {"checks": [check], "sha256": "a"}]
    differ = [{"checks": [check], "sha256": "a"}, {"checks": [check], "sha256": "b"}]
    ok = {c["id"]: c["ok"] for c in run.merge_checks(same)}
    assert ok == {"x": True, "byte-stable": True}
    assert {c["id"]: c["ok"] for c in run.merge_checks(differ)}["byte-stable"] is False


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = set(one_pass.layer_metrics(tracing.Tracer(), 1.0, 1.0))
    names |= {"bench.trace_overhead_ratio", "checks.worst_tol_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
