import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import airykpz
from airykpz.cli import (RunConfig, build_parser, config_from_args, main,
                         render, run, run_verify_theorem1, run_verify_theorem2)
from airykpz.params import ModelParams


def _run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_theorem1_u0_row_exact(capsys):
    code, out, err = _run_main(
        ["verify-theorem1", "--C", "1.0", "--u", "0"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "C,T,u,lhs_value,rhs_value,abs_diff,rel_diff,aux,status"
    fields = lines[1].split(",")
    assert fields[3] == "1" and fields[4] == "1" and fields[5] == "0"


@pytest.mark.parametrize("argv", [
    ["verify-theorem2", "--C", ""],
    ["verify-theorem2", "--C", "", "--format", "json"],
    ["verify-theorem2", "--k-max", "2"],                 # neither --C nor --T
    ["verify-theorem2", "--C", "1", "--k-max", "0"],
    ["verify-theorem1", "--C", "1"],                     # no --u
    ["tw-limit", "--T", "8,64"],                         # no --a
    ["mc-check", "--u", "1", "--k-max", "1"],            # neither --C nor --T
    ["mc-check", "--C", "0.5", "--k-max", "0"],          # no h_k order and no --u
], ids=["empty-C", "empty-C-json", "no-C-or-T", "k-max-0", "no-u", "no-a", "mc-no-C-or-T",
        "mc-k-max-0-no-u"])
def test_grid_without_cells_is_a_usage_error(argv, capsys, monkeypatch):
    # a grid that yields no rows checks nothing: exit 2, no table, and for
    # mc-check no draw
    from airykpz import montecarlo
    monkeypatch.setattr(montecarlo, "draw_edge_samples", lambda *a: pytest.fail("drew"))
    code, out, err = _run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["verify-theorem2", "--C", "1", "--k-max", "2", "--nodes", "-5"], "--nodes must be >= 0"),
    (["verify-theorem1", "--C", "1", "--u", "1", "--nodes", "-1"], "--nodes must be >= 0"),
    (["verify-theorem2", "--C", "1", "--k-max", "1", "--tol", "-1"], "--tol must be finite"),
    (["verify-theorem1", "--C", "1", "--u", "1", "--tol", "nan"], "--tol must be finite"),
    (["tw-limit", "--a", "0", "--T", "8,64", "--tol", "inf"], "--tol must be finite"),
    (["tw-limit", "--a", "0", "--T", "8,64", "--tol", "-1"], "--tol must be finite"),
    (["mc-check", "--C", "0.5", "--u", "1", "--k-max", "1", "--tol", "nan"],
     "--tol must be finite"),
    (["verify-theorem2", "--T", "0", "--k-max", "1"], "ModelParams requires T > 0"),
    (["verify-theorem1", "--C=-1", "--u", "1"], "ModelParams requires C > 0"),
    (["tw-limit", "--a", "0", "--T=-8,64"], "ModelParams requires T > 0"),
    (["mc-check", "--C", "0", "--u", "1", "--k-max", "1"], "ModelParams requires C > 0"),
    (["verify-theorem1", "--C", "inf", "--u", "1"], "ModelParams requires C > 0 and finite"),
    (["verify-theorem1", "--T", "inf", "--u", "1"], "ModelParams requires T > 0 and finite"),
    (["verify-theorem1", "--C", "1", "--u", "inf"], "ModelParams requires u >= 0 and finite"),
    (["tw-limit", "--a", "0", "--T", "8,inf"], "ModelParams requires T > 0 and finite"),
    (["mc-check", "--C", "0.5", "--u", "inf", "--k-max", "1"],
     "ModelParams requires u >= 0 and finite"),
], ids=["nodes-thm2", "nodes-thm1", "tol-negative", "tol-nan", "tol-inf", "tol-negative-tw",
        "tol-nan-mc", "T-zero", "C-negative", "T-negative-tw", "C-zero-mc", "C-inf", "T-inf",
        "u-inf", "T-inf-tw", "u-inf-mc"])
def test_bad_override_or_grid_value_is_a_usage_error(argv, message, capsys, monkeypatch):
    # rejected before any cell builds a row, and for mc-check before any draw
    from airykpz import cli, montecarlo
    monkeypatch.setattr(cli, "VerificationRow", lambda *a, **k: pytest.fail("built a row"))
    monkeypatch.setattr(montecarlo, "draw_edge_samples", lambda *a: pytest.fail("drew"))
    code, out, err = _run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_zero_override_means_command_default(capsys):
    argv = ["verify-theorem2", "--C", "1", "--k-max", "1"]
    assert _run_main(argv + ["--nodes", "0", "--tol", "0"], capsys) == _run_main(argv, capsys)


def test_theorem2_rows_in_C_k_order_and_pass(capsys):
    code, out, err = _run_main(
        ["verify-theorem2", "--C", "1.0,1.2", "--k-max", "2", "--format", "json"],
        capsys)
    assert code == 0
    rows = json.loads(out)
    assert [(r["C"], r["k"]) for r in rows] == [(1.0, 1), (1.0, 2), (1.2, 1), (1.2, 2)]
    for r in rows:
        assert r["status"] == "ok"
        assert r["T"] == pytest.approx(2.0 * r["C"] ** 3)
        assert r["rel_diff"] < 1e-5
        assert r["abs_diff"] == pytest.approx(abs(r["lhs_value"] - r["rhs_value"]))


def test_tw_limit_ladder(capsys):
    # '--a=...' form: a leading dash in a comma list must survive argparse
    code, out, err = _run_main(
        ["tw-limit", "--a=-1,0", "--T", "8,64", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["a"] for r in rows] == [-1.0, -1.0, 0.0, 0.0]
    for first, second in (rows[:2], rows[2:]):
        assert "nonincreasing=na" in first["aux"]
        assert "nonincreasing=true" in second["aux"]
        assert second["abs_diff"] < first["abs_diff"]


def test_tw_limit_error_row_restarts_the_ladder(monkeypatch):
    # the row after an error row has no predecessor to be compared with
    from airykpz import cli
    from airykpz.errors import DomainError
    real = cli.airy_mult_stat

    def fails_at_T64(params):
        if params.T == pytest.approx(64.0):
            raise DomainError("injected")
        return real(params)

    monkeypatch.setattr(cli, "airy_mult_stat", fails_at_T64)
    rows = cli.run_tw_limit(RunConfig(command="tw-limit", a_list=[0.0],
                                      T_list=[8.0, 64.0, 512.0]))
    assert [r.status for r in rows] == ["ok", "error: DomainError: injected", "ok"]
    assert "nonincreasing=na" in rows[2].aux


def test_tw_limit_computes_f2_once_per_a(monkeypatch):
    # one F2(a) serves the whole T ladder; one that raises makes each of
    # its a's rows an error row that names it
    from airykpz import cli
    from airykpz.errors import DomainError
    real, calls = cli.tracy_widom_f2, []

    def counted(a):
        calls.append(a)
        if a == 0.0:
            raise DomainError("injected")
        return real(a)

    monkeypatch.setattr(cli, "tracy_widom_f2", counted)
    rows = cli.run_tw_limit(RunConfig(command="tw-limit", a_list=[-1.0, 0.0],
                                      T_list=[8.0, 64.0, 512.0]))
    assert calls == [-1.0, 0.0]
    assert [r.rhs_value for r in rows[:3]] == [real(-1.0)] * 3
    assert [r.status for r in rows] == ["ok"] * 3 + ["error: DomainError: injected"] * 3


def test_tw_limit_overflowing_u_is_a_domain_error_row(capsys):
    # at T = 4e6, C = 126 and u = exp(-Ca) = exp(756) overflows: that row is
    # an error row naming the cause, and the ladder's other row still runs
    code, out, err = _run_main(["tw-limit", "--a=-6", "--T", "8,4e6"], capsys)
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[0][-1] == "ok"
    assert rows[1][-1] == ("error: DomainError: tw-limit at a = -6.0, "
                           "C = 125.99210498948729: u = exp(755.953) overflows double precision")


def test_tw_limit_right_tail(capsys):
    # at a = 4 both columns sit within 2e-3 of 1
    code, out, err = _run_main(
        ["tw-limit", "--a", "4", "--T", "8,64", "--format", "json"], capsys)
    assert code == 0
    for r in json.loads(out):
        assert abs(r["lhs_value"] - 1.0) < 2e-3
        assert abs(r["rhs_value"] - 1.0) < 2e-3


def test_failing_rows_set_exit_code_and_stderr(capsys):
    # at T = 8 the distance to the Tracy-Widom limit is ~0.08, far above
    # a 1e-6 tolerance: the row must fail, exit nonzero, and be listed
    code, out, err = _run_main(
        ["tw-limit", "--a", "0", "--T", "8", "--tol", "1e-6"], capsys)
    assert code == 1
    assert "FAIL tw-limit" in err
    assert out.startswith("a,T,C,")
    assert out.splitlines()[1].endswith(",fail")


def test_flag_not_read_by_the_command_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tw-limit", "--a", "0", "--nodes", "160"])
    assert exc.value.code == 2
    assert "--nodes" in capsys.readouterr().err


def test_conflicting_grid_flags(capsys):
    code, out, err = _run_main(
        ["verify-theorem1", "--C", "1.0", "--T", "2.0", "--u", "1"], capsys)
    assert code == 2
    assert "error:" in err


def test_per_row_error_capture():
    # a Laplace exponent far outside the kernel range must produce an
    # error record for that row, not abort the others
    cfg = RunConfig(command="verify-theorem2", C_list=[60.0, 1.0], k_max=1)
    rows = run_verify_theorem2(cfg)
    assert len(rows) == 2
    assert rows[0].status.startswith("error:")
    assert not rows[0].passed
    assert rows[1].status == "ok" and rows[1].passed
    # error rows serialize to strict JSON (null, not NaN)
    text = render(rows, "verify-theorem2", "json")
    parsed = json.loads(text, parse_constant=lambda s: pytest.fail(f"non-literal {s}"))
    assert parsed[0]["lhs_value"] is None


def test_error_row_with_commas_parses_to_the_header_width(capsys):
    # the k = 4 row's status reads "...; got k = 4, C = 3.5": CSV quoting
    # keeps it one field
    code, out, err = _run_main(["verify-theorem2", "--C", "3.5", "--k-max", "4"], capsys)
    assert code == 1
    header, *rows = csv.reader(io.StringIO(out))
    assert len(rows) == 4 and all(len(row) == len(header) for row in rows)
    assert rows[3][-1].endswith("got k = 4, C = 3.5")


def test_moment_lost_to_cancellation_is_an_error_row(monkeypatch):
    # on the unshifted contours (theta = 0) the k = 3 KPZ series at C = 2.5
    # is lost to cancellation: l_3's roundoff bound eps sum |terms| is ~4
    # times l_3 itself, so the series refuses order 3 and the row must be an
    # error, not a value
    from airykpz import kpz_side
    monkeypatch.setattr(kpz_side, "_CONTOUR_SHIFT", 0.0)
    rows = run_verify_theorem2(RunConfig(command="verify-theorem2", C_list=[2.5], k_max=3))
    assert [r.status for r in rows[:2]] == ["ok", "ok"]
    assert rows[2].status.startswith("error: NumericalConsistencyError: "
                                     "kpz_moment(3, 31.25): l_3 = ")
    assert rows[2].status.endswith(" is lost to cancellation: its roundoff bound "
                                   "eps sum |terms| = 1.288e+18 exceeds 1e-05 of it")
    assert not rows[2].passed


def _count_h_series(monkeypatch):
    """A list that gets one C per Airy u-series built."""
    from airykpz import airy_side
    calls, series = [], airy_side._h_series
    monkeypatch.setattr(airy_side, "_h_series",
                        lambda rule, C, k: calls.append(C) or series(rule, C, k))
    return calls


def _count_kpz_series(monkeypatch):
    """A list that gets the number of contours of each KPZ series built."""
    from airykpz import kpz_side
    calls, series = [], kpz_side._cycle_traces
    monkeypatch.setattr(kpz_side, "_cycle_traces",
                        lambda d, F: calls.append(len(d)) or series(d, F))
    return calls


def test_theorem2_reads_every_order_off_one_series_per_C(monkeypatch):
    from airykpz.airy_side import airy_h_moments
    want = {C: airy_h_moments(3, C) for C in (0.6, 1.0, 1.4)}
    calls = _count_h_series(monkeypatch)
    rows = run_verify_theorem2(RunConfig(command="verify-theorem2", C_list=[0.6, 1.0, 1.4],
                                         k_max=3))
    assert calls == [0.6, 1.0, 1.4]
    assert [r.status for r in rows] == ["ok"] * 9
    assert [r.lhs_value for r in rows] == [h for C in (0.6, 1.0, 1.4) for h in want[C]]


def test_theorem2_builds_one_kpz_series_per_C(monkeypatch):
    from airykpz.kpz_side import kpz_moments
    want = {C: kpz_moments(3, 2.0 * C ** 3) for C in (0.6, 1.0, 1.4)}
    calls = _count_kpz_series(monkeypatch)
    rows = run_verify_theorem2(RunConfig(command="verify-theorem2", C_list=[0.6, 1.0, 1.4],
                                         k_max=3))
    assert calls == [3, 3, 3]
    assert [r.status for r in rows] == ["ok"] * 9
    assert [r.rhs_value for r in rows] == [m for C in (0.6, 1.0, 1.4) for m in want[C]]


def test_theorem2_series_falls_back_to_the_largest_supported_order(monkeypatch):
    # at C = 4 the k = 4 grid leaves the Airy range: the rows k <= 3 come
    # from the k = 3 series and the k = 4 row is the refusal airy_h_moment
    # raises there
    from airykpz.airy_side import airy_h_moments
    want = airy_h_moments(3, 4.0)
    calls = _count_h_series(monkeypatch)
    rows = run_verify_theorem2(RunConfig(command="verify-theorem2", C_list=[4.0], k_max=4))
    assert calls == [4.0]
    assert [r.status for r in rows[:3]] == ["ok"] * 3
    assert [r.lhs_value for r in rows[:3]] == want
    assert rows[3].status == ("error: DomainError: airy_h_moment supports C >= 0.4 and "
                              "(kC)^2/4 + 22 <= 60; got k = 4, C = 4.0")
    # below C = 0.4 no order is supported, and every row names its own k
    rows = run_verify_theorem2(RunConfig(command="verify-theorem2", C_list=[0.3], k_max=2))
    assert [r.status[-18:] for r in rows] == ["got k = 1, C = 0.3", "got k = 2, C = 0.3"]
    assert calls == [4.0]
    # any other refusal of the series is the refusal of every order below
    rows = run_verify_theorem2(RunConfig(command="verify-theorem2", C_list=[4.0], k_max=4,
                                         nodes=100000))
    assert [r.status.split(":")[1] for r in rows] == [" ConfigurationError"] * 3 + [" DomainError"]


def test_theorem2_entry_lost_to_cancellation_is_its_own_error_row(monkeypatch):
    # positivity is checked per order: a non-positive E h_2 fails that row only
    from airykpz import cli, quadrature
    monkeypatch.setattr(quadrature, "newton_h", lambda p: [1.0, 0.3, -1e-17, 0.5][:len(p) + 1])
    monkeypatch.setattr(cli, "kpz_moments", lambda k_max, T, nodes: [0.3, 0.2, 0.5][:k_max])
    rows = run_verify_theorem2(RunConfig(command="verify-theorem2", C_list=[1.0], k_max=3))
    assert [r.status for r in rows] == [
        "ok", "error: NumericalConsistencyError: airy_h_moment(2, 1.0) = -1e-17 is not "
              "positive and finite", "ok"]


def test_airy_series_lost_to_cancellation_refuses_its_order_and_those_above(
        monkeypatch, capsys):
    # the Airy series has the KPZ side's gate: with tr SG^2 and tr S^2 G at
    # 1e15, l_3 keeps its value but its roundoff bound eps sum |terms| is
    # 0.44, so orders 3 and 4 are that order's refusal and h_1, h_2 stand
    from airykpz import airy_side
    from airykpz.airy_side import airy_h_moments
    from airykpz.errors import NumericalConsistencyError
    want = airy_h_moments(4, 1.0)[:2]
    chain = airy_side._chain_traces
    monkeypatch.setattr(airy_side, "_chain_traces", lambda S, S2, g: {
        **chain(S, S2, g), (3,): (1e15, 1e15), (1, 2): (1e15, 1e15)})
    h1, h2, h3, h4 = airy_h_moments(4, 1.0)
    assert [h1, h2] == want
    assert type(h3) is NumericalConsistencyError and h4 is h3
    message = str(h3)
    assert message.startswith("airy_h_moment(3, 1.0): l_3 = ")
    assert message.endswith(" is lost to cancellation: its roundoff bound eps sum |terms| "
                            "= 4.441e-01 exceeds 1e-05 of it")
    code, out, err = _run_main(["verify-theorem2", "--C", "1", "--k-max", "4"], capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 1
    assert [r["status"] for r in rows] == ["ok"] * 2 + [
        f'error: NumericalConsistencyError: {message}'] * 2


def test_nodes_above_the_node_budget_fail_the_moment_row(monkeypatch):
    # at 101 nodes per contour, past the tensor budget of the partition
    # expansion at k = 4 (101^4 > 10^8), every row passes
    rows = run_verify_theorem2(RunConfig(command="verify-theorem2", C_list=[1.0], k_max=4,
                                         nodes=101))
    assert [r.status for r in rows] == ["ok"] * 4
    # the KPZ series' node budget is its memory bound: 3664 nodes per
    # contour make every order from 2 up an error row that names the
    # bound, and the k = 1 row runs at 3664 nodes.  The Airy side, whose
    # Legendre orders stop at 512, is stood in for so that the KPZ refusal
    # is what the rows show
    from airykpz import cli
    monkeypatch.setattr(cli, "airy_h_moments", lambda k_max, C, nodes: [1.0] * k_max)
    calls = _count_kpz_series(monkeypatch)
    rows = run_verify_theorem2(RunConfig(command="verify-theorem2", C_list=[0.2], k_max=4,
                                         nodes=3664))
    assert calls == [1]
    assert rows[0].status == "fail" and rows[0].rhs_value > 1.0
    assert all(r.status.startswith("error: ConfigurationError: kpz_moment(2, 0.016") and
               r.status.endswith("exceeds the 13421772 one series may hold; use fewer "
                                 "nodes per axis") for r in rows[1:])


def test_k4_rows_are_held_to_the_one_moment_tolerance(capsys):
    # every order is checked to quadrature.MOMENT_RTOL: at C = 0.4 and 32
    # nodes per contour the k = 1 to 4 rows are 4.6e-5, 1.3e-4, 1.4e-4 and
    # 1.1e-4 off, and the k = 4 row fails with them, where a default of 1e-3
    # for k = 4 passed it
    code, out, err = _run_main(["verify-theorem2", "--C", "0.4", "--k-max", "4",
                                "--nodes", "32", "--format", "json"], capsys)
    rows = json.loads(out)
    assert code == 1
    assert [r["status"] for r in rows] == ["fail"] * 4
    assert [r["aux"] for r in rows] == ["tol=1e-05;nodes=32"] * 4
    assert "'k': 4}" in err
    # at the default grids the k = 4 row passes at the same tolerance
    rows = run_verify_theorem2(RunConfig(command="verify-theorem2", C_list=[1.0], k_max=4))
    assert [(r.status, r.aux) for r in rows] == [("ok", "tol=1e-05;nodes=auto")] * 4


def test_verify_theorem1_nodes_set_both_fredholm_grids():
    # the KPZ side of a C is one kpz_laplaces call over its u, on the grid of u = 4
    from airykpz.airy_side import airy_mult_stat
    from airykpz.kpz_side import kpz_laplaces
    rows = run_verify_theorem1(RunConfig(command="verify-theorem1", C_list=[1.0],
                                         u_list=[0.5, 4.0], nodes=120))
    assert [row.rhs_value for row in rows] == kpz_laplaces(1.0, [0.5, 4.0], 120)
    for row in rows:
        p = ModelParams.from_C(1.0, row.labels["u"])
        assert row.lhs_value == airy_mult_stat(p, 120)
        assert row.aux == "tol=1e-06;nodes=120"


def test_verify_theorem1_builds_one_ku_airy_matrix_per_C(monkeypatch):
    # the README grid: one airy_ai call per C on the K_u argument grid, not
    # one per (C, u) cell
    from airykpz import kpz_side
    real, calls = kpz_side.airy_ai, []
    monkeypatch.setattr(kpz_side, "airy_ai", lambda x: calls.append(x.shape) or real(x))
    rows = run_verify_theorem1(RunConfig(command="verify-theorem1", C_list=[0.8, 1.0, 1.6],
                                         u_list=[0.1, 1.0, 10.0]))
    assert len(calls) == 3
    assert [row.status for row in rows] == ["ok"] * 9


def test_verify_theorem1_refused_u_keeps_its_own_row(capsys):
    # at C = 0.8 the K_u grid of u = 1e6 leaves the Airy range: that u stays
    # out of its C's shared grid, so u = 1 keeps the bits it has alone, and
    # the u = 1e6 row is an error row of its own (the Airy side raises first)
    code, out, _ = _run_main(["verify-theorem1", "--C", "0.8", "--u", "1,1e6"], capsys)
    alone_code, alone, _ = _run_main(["verify-theorem1", "--C", "0.8", "--u", "1"], capsys)
    assert (code, alone_code) == (1, 0)
    lines = out.splitlines()
    assert lines[:2] == alone.splitlines()
    assert lines[2] == ('0.80000000000000004,1.0240000000000002,1000000,nan,nan,nan,nan,,'
                        '"error: NumericalConsistencyError: grid too coarse: '
                        'w k(x, x) = 1.15 >= 1 at node 40"')


def test_output_file_and_byte_stability(tmp_path, capsys):
    argv = ["verify-theorem1", "--C", "1.0", "--u", "0,1", "--nodes", "60",
            "--format", "csv"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(p1)]) == 0
    assert main(argv + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_output_independent_of_blas_threads():
    src = str(Path(airykpz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for args in (
            # rows C = 0.8, u = 10 and C = 1.6, u = 1 show the summation
            # order of the K_u reduction in their last printed digits
            ("verify-theorem1", "--C", "0.8,1.0,1.6", "--u", "0.1,1,10"),
            # the Airy side's matrix products and traces, the KPZ side's
            # contractions
            ("verify-theorem2", "--C", "0.6,1.0,1.4", "--k-max", "3")):
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "airykpz.cli", *args],
                                  env=dict(env, OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1], args[0]


def test_pipelines_make_no_blas_product():
    # The thread-count test above cannot see a BLAS product that happens
    # to give the same bits at 1 and 2 threads, so the pipeline modules
    # and the Airy evaluation they call are read instead: no `@`, no
    # dot/matmul/tensordot/inner/vdot call and no einsum(..., optimize=...).
    # Exempt: specfun._march, whose Taylor-step products build the table
    # once at import, and the LAPACK np.linalg.det of the Fredholm
    # determinants.
    blas_calls = {"dot", "matmul", "tensordot", "inner", "vdot"}
    exempt = {("specfun", "_march")}
    src = Path(airykpz.__file__).resolve().parent
    found = []
    for module in ("airy_side", "kpz_side", "quadrature", "specfun"):
        tree = ast.parse((src / f"{module}.py").read_text())
        stmts = [stmt for stmt in tree.body if (module, getattr(stmt, "name", None)) not in exempt]
        assert len(tree.body) - len(stmts) == sum(mod == module for mod, _ in exempt), \
            "an exempt def is gone"
        for node in (n for stmt in stmts for n in ast.walk(stmt)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((module, node.lineno, "@"))
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in blas_calls or (
                        name == "einsum" and any(k.arg == "optimize" for k in node.keywords)):
                    found.append((module, node.lineno, name))
    assert found == []


def test_mc_check_small_run(capsys):
    code, out, err = _run_main(
        ["mc-check", "--C", "0.5", "--u", "0,1", "--k-max", "1",
         "--samples", "120", "--matrix-size", "120", "--seed", "7",
         "--format", "json"], capsys)
    assert code == 0, err
    rows = json.loads(out)
    kinds = [(r["kind"], r["param"]) for r in rows]
    assert kinds == [("h_moment", 1), ("mult_stat", 0.0), ("mult_stat", 1.0)]
    u0 = rows[1]
    assert u0["lhs_value"] == 1.0 and u0["rhs_value"] == 1.0 and u0["abs_diff"] == 0.0
    assert all("stderr=" in r["aux"] for r in rows)


def test_mc_check_builds_one_reference_series_per_C(monkeypatch):
    from airykpz.airy_side import airy_h_moments
    want = {C: airy_h_moments(3, C) for C in (0.5, 1.0)}
    calls = _count_h_series(monkeypatch)
    cfg = RunConfig(command="mc-check", C_list=[0.5, 1.0], k_max=3, samples=120,
                    matrix_size=120, seed=7)
    rows, _ = run(cfg)
    assert calls == [0.5, 1.0]
    assert [r.rhs_value for r in rows] == want[0.5] + want[1.0]


def test_mc_check_k_max_0_is_its_mult_stat_rows_alone(monkeypatch, capsys):
    # --k-max 0 is accepted alongside --u: no order is asked for, so no
    # Airy u-series is built (airy_h_moments itself refuses k_max = 0)
    calls = _count_h_series(monkeypatch)
    code, out, err = _run_main(
        ["mc-check", "--C", "0.5", "--u", "1", "--k-max", "0", "--samples", "100",
         "--matrix-size", "100", "--keep-top", "48", "--seed", "3"], capsys)
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["kind"], r["param"], r["status"]) for r in rows] == [("mult_stat", "1", "ok")]
    assert calls == []


def test_mc_check_seed_reproducibility():
    cfg = RunConfig(command="mc-check", C_list=[0.5], u_list=[1.0], k_max=1,
                    samples=110, matrix_size=100, seed=42)
    rows1, text1 = run(cfg)
    rows2, text2 = run(cfg)
    assert text1 == text2


def test_mc_check_rejects_few_samples():
    from airykpz.errors import ConfigurationError
    cfg = RunConfig(command="mc-check", C_list=[0.5], u_list=[], k_max=1, samples=50)
    with pytest.raises(ConfigurationError):
        run(cfg)


def test_mc_check_negative_seed_is_a_usage_error(capsys):
    code, out, err = _run_main(
        ["mc-check", "--C", "0.5", "--u", "1", "--k-max", "1", "--samples", "100",
         "--matrix-size", "100", "--keep-top", "32", "--seed", "-1"], capsys)
    assert code == 2
    assert err.startswith("error: seed must be a non-negative integer")
    assert out == ""


def test_mc_check_cells_without_a_reference_make_no_draw(capsys, monkeypatch):
    # at C = 0.2 neither Airy-side reference exists, so every row is an
    # error row and nothing is drawn; a bad --seed is still a usage error
    from airykpz import montecarlo
    monkeypatch.setattr(montecarlo, "draw_edge_samples", lambda *a: pytest.fail("drew"))
    argv = ["mc-check", "--C", "0.2", "--u", "1", "--k-max", "2", "--samples", "2000"]
    code, out, err = _run_main(argv + ["--seed", "9"], capsys)
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 3 and all(row[-1].startswith("error: DomainError: ") for row in rows)
    code, out, err = _run_main(argv + ["--seed", "-1"], capsys)
    assert code == 2
    assert err.startswith("error: seed must be a non-negative integer")
    assert out == ""


def test_mc_check_k_max_above_estimator_bound_is_a_usage_error(capsys, monkeypatch):
    # rejected before any draw: the h_k estimator stops at k = 3
    from airykpz import montecarlo
    monkeypatch.setattr(montecarlo, "draw_edge_samples", lambda *a: pytest.fail("drew"))
    code, out, err = _run_main(["mc-check", "--C", "0.5", "--u", "1", "--k-max", "4"], capsys)
    assert code == 2
    assert err.startswith("error: mc-check --k-max supports integer 1 <= k <= 3, got 4")
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["--u", "inf", "--k-max", "1"], "ModelParams requires u >= 0 and finite, got inf"),
    # --k-max 0 asks for no h_k row; a negative order is refused, not run as 0
    (["--u", "1", "--k-max", "-2"], "mc-check --k-max supports integer 1 <= k <= 3, got -2"),
], ids=["u-inf", "k-max-negative"])
def test_mc_check_refuses_a_bad_u_or_order_before_any_draw(argv, message, capsys, monkeypatch):
    # the u refusal comes from building the cells, the order refusal from
    # check_order: both ahead of the draw
    from airykpz import montecarlo
    calls = []

    def draw(*args):
        calls.append(args)
        raise RuntimeError("drew")

    monkeypatch.setattr(montecarlo, "draw_edge_samples", draw)
    code, out, err = _run_main(["mc-check", "--C", "0.5"] + argv + [
        "--samples", "100", "--matrix-size", "100", "--keep-top", "48", "--seed", "3"], capsys)
    assert (code, out, err, calls) == (2, "", f"error: {message}\n", [])


def test_mc_check_judges_every_u_before_any_series(capsys, monkeypatch):
    # u = inf is refused at C = 0.5 before the C = 0.5 series is built, not
    # after it, at the first C whose cells read u
    calls = _count_h_series(monkeypatch)
    code, out, err = _run_main(["mc-check", "--C", "0.5,1", "--u", "inf", "--k-max", "3"],
                               capsys)
    assert (code, out, calls) == (2, "", [])
    assert err == "error: ModelParams requires u >= 0 and finite, got inf\n"


def test_mc_check_negative_u_is_a_usage_error(capsys, monkeypatch):
    # rejected before any draw, as verify-theorem1 rejects it
    from airykpz import montecarlo
    monkeypatch.setattr(montecarlo, "draw_edge_samples", lambda *a: pytest.fail("drew"))
    code, out, err = _run_main(["mc-check", "--C", "0.5", "--u=-1", "--k-max", "1"], capsys)
    assert code == 2
    assert err.startswith("error: ModelParams requires u >= 0 and finite, got -1.0")
    assert out == ""


def test_verify_theorem2_k_max_above_moment_bound_is_a_usage_error(capsys):
    code, out, err = _run_main(["verify-theorem2", "--C", "1", "--k-max", "5"], capsys)
    assert code == 2
    assert err.startswith("error: verify-theorem2 --k-max supports integer 1 <= k <= 4")
    assert out == ""


def test_mc_check_keep_top_below_minimum_is_a_usage_error(capsys):
    # rejected before any draw: the estimators need 32 kept points per draw
    code, out, err = _run_main(
        ["mc-check", "--C", "0.5", "--u", "1", "--k-max", "1", "--samples", "2000",
         "--keep-top", "16", "--seed", "1"], capsys)
    assert code == 2
    assert err.startswith("error: mc-check needs --keep-top >= 32")
    assert out == ""


def test_parser_defaults_roundtrip():
    args = build_parser().parse_args(
        ["verify-theorem2", "--C", "0.6,1.0,1.4", "--k-max", "3"])
    cfg = config_from_args(args)
    assert cfg.command == "verify-theorem2"
    assert cfg.C_list == [0.6, 1.0, 1.4]
    assert cfg.k_max == 3 and cfg.format == "csv" and cfg.output_path == "-"
    assert cfg.seed == 12345 and cfg.samples == 2000 and cfg.matrix_size == 400


def test_render_17_digit_csv():
    cfg = RunConfig(command="verify-theorem1", C_list=[1.0], u_list=[1.0])
    rows, text = run(cfg)
    val = text.strip().split("\n")[1].split(",")[3]
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 15
    assert float(val) == rows[0].lhs_value
