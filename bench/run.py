"""airykpz benchmark: one workload per run, timed end to end or traced per layer.

    python3 bench/run.py --workload moments|laplace|mc --seed N --seconds S --trace 0|1

Every pass runs in a fresh interpreter (``one_pass.py``), one after
another: a closed loop with a single client.  With ``--trace 0`` the run
times set-up in fresh interpreters, then repeats untraced passes until
``--seconds`` have elapsed (at least one) and reports the end-to-end
metrics of BENCHMARK.json.  With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics.  Every pass's outputs
are checked.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  A record of the run, its checks and
(traced) its spans are written under ``bench/results/``.  See
``bench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def limit_blas_threads() -> int:
    """Cap OpenBLAS at the cores this process may use; the passes inherit it."""
    nproc = len(os.sched_getaffinity(0))
    try:
        requested = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        requested = nproc
    threads = max(1, min(requested, nproc))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


def child(workload: str, seed: int, mode: str) -> str:
    """Run one_pass.py to completion; its standard output."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "one_pass.py"), workload, str(seed), mode],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass did not finish in {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_seconds(workload: str, seed: int) -> float:
    t0 = time.monotonic()
    return float(child(workload, seed, "setup").split()[-1]) - t0


def measure(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Untraced passes (alternating with traced ones when ``traced``)
    until ``seconds`` have elapsed; at least one round."""
    modes = ("plain", "traced") if traced else ("plain",)
    passes = []
    deadline = time.monotonic() + seconds
    while True:
        for mode in modes:
            res = json.loads(child(workload, seed, mode).splitlines()[-1])
            res["traced"] = mode == "traced"
            passes.append(res)
        if time.monotonic() >= deadline:
            return passes


def merge_checks(passes: list[dict]) -> list[dict]:
    """A check fails if it fails on any pass; its ratio is the worst seen.
    One more check: every pass, traced or not, printed the same bytes."""
    merged: dict[str, dict] = {}
    for p in passes:
        for c in p["checks"]:
            old = merged.setdefault(c["id"], dict(c))
            if old["ok"] and not c["ok"]:
                old.update(ok=False, detail=c["detail"])
            if c["ratio"] is not None and not (old["ratio"] is not None
                                               and old["ratio"] >= c["ratio"]):
                old["ratio"] = c["ratio"]
    digests = {p["sha256"] for p in passes}
    merged["byte-stable"] = {
        "id": "byte-stable", "ok": len(digests) == 1, "ratio": None,
        "detail": f"{len(passes)} passes printed {len(digests)} distinct outputs"}
    return list(merged.values())


def worst_ratio(checks: list[dict]) -> float:
    ratios = [c["ratio"] for c in checks
              if c["ratio"] is not None and math.isfinite(c["ratio"])]
    return max(ratios, default=0.0)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=12345,
                    help="non-negative; only the mc workload's draws depend on it")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring window; passes repeat until it has elapsed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    threads = limit_blas_threads()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    traced = bool(args.trace)
    try:
        setups = [] if traced else [setup_seconds(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
        passes = measure(args.workload, args.seed, args.seconds, traced)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checks = merge_checks(passes)
    failed = [c for c in checks if not c["ok"]]
    worst = worst_ratio(checks)
    plain = [p for p in passes if not p["traced"]]
    with_trace = [p for p in passes if p["traced"]]
    wall_s = statistics.median(p["wall_s"] for p in plain)
    if traced:
        values = median_of([p["layers"] for p in with_trace])
        values["bench.trace_overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in with_trace) / wall_s)
        values["checks.worst_tol_ratio"] = worst
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": wall_s, "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
                  "checks": len(checks)}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "run": {"host": platform.node(), "nproc": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(), "machine": platform.machine(),
                "python": platform.python_version(), **passes[0]["versions"],
                "blas_threads": threads, "commit": git_commit(), "seed": args.seed,
                "seed_used": passes[0]["seed_used"]},
        "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb", "sha256")}
                   for p in passes],
        "setup_s": setups, "worst_tol_ratio": worst, "metrics": metrics, "checks": checks,
    }
    if traced:
        last = with_trace[-1]
        ranked = sorted(last["self_s"].items(), key=lambda kv: -kv[1])[:5]
        record["largest_self_time"] = [{"name": k, "self_s": v, "share": v / last["wall_s"]}
                                       for k, v in ranked]
        record["seconds_per_check"] = last["seconds_per_check"]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"columns": ["id", "name", "parent", "check", "start_s", "end_s"],
             "passes": [p["spans"] for p in with_trace]}))
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    counts = f"{len(plain)} untraced" + (f" + {len(with_trace)} traced" if traced else "")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {counts} pass(es), "
          f"OpenBLAS threads {threads}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if traced:
        print("# largest self time: " + ", ".join(
            f"{d['name']} {d['share']:.1%}" for d in record["largest_self_time"]))
    print(f"# checks: {len(checks)} attempted, {len(failed)} failed; "
          f"worst |diff|/tol {worst:.3g}")
    for c in failed:
        print(f"# FAILED {c['id']}: {c['detail']}")
    print(f"# results: {(RESULTS / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
