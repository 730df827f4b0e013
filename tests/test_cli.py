import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import airykpz
from airykpz.cli import (RunConfig, build_parser, config_from_args, main,
                         render, run, run_verify_theorem2)


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


def test_empty_grid_exits_clean(capsys):
    code, out, err = _run_main(["verify-theorem2", "--C", ""], capsys)
    assert code == 0
    assert out.strip() == "C,T,k,lhs_value,rhs_value,abs_diff,rel_diff,aux,status"
    code, out, err = _run_main(["verify-theorem2", "--C", "", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == []


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


def test_moment_lost_to_cancellation_is_an_error_row():
    # at C = 2.5 the k = 3 KPZ sum cancels to a negative number (~ -1.8e18);
    # a moment is positive, so the row must be an error, not a value
    rows = run_verify_theorem2(RunConfig(command="verify-theorem2", C_list=[2.5], k_max=3))
    assert [r.status for r in rows[:2]] == ["ok", "ok"]
    assert rows[2].status.startswith("error: NumericalConsistencyError")
    assert not rows[2].passed


def test_output_file_and_byte_stability(tmp_path, capsys):
    argv = ["verify-theorem1", "--C", "1.0", "--u", "0,1", "--nodes", "60",
            "--format", "csv"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(p1)]) == 0
    assert main(argv + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_output_independent_of_blas_threads():
    # on this grid, rows C = 0.8, u = 10 and C = 1.6, u = 1 show the
    # summation order of the K_u reduction in their last printed digits
    src = str(Path(airykpz.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "airykpz.cli", "verify-theorem1",
            "--C", "0.8,1.0,1.6", "--u", "0.1,1,10"]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


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


def test_mc_check_seed_reproducibility():
    cfg = RunConfig(command="mc-check", C_list=[0.5], u_list=[1.0], k_max=1,
                    samples=110, matrix_size=100, seed=42)
    rows1, text1 = run(cfg)
    rows2, text2 = run(cfg)
    assert text1 == text2


def test_mc_check_rejects_few_samples():
    from airykpz.errors import AiryKpzError
    cfg = RunConfig(command="mc-check", C_list=[0.5], u_list=[], k_max=1, samples=50)
    with pytest.raises(AiryKpzError):
        run(cfg)


def test_mc_check_negative_seed_is_a_usage_error(capsys):
    code, out, err = _run_main(
        ["mc-check", "--C", "0.5", "--u", "1", "--k-max", "1", "--samples", "100",
         "--matrix-size", "100", "--keep-top", "32", "--seed", "-1"], capsys)
    assert code == 2
    assert err.startswith("error: seed must be a non-negative integer")
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
