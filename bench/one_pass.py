"""One benchmark pass in a fresh interpreter; ``run.py`` starts it.

    python3 bench/one_pass.py WORKLOAD SEED setup|plain|traced

``setup`` imports the library, builds the workload's inputs and prints
the monotonic clock (shared by processes), so the caller can time set-up
from the moment it started the interpreter.  ``plain`` and ``traced``
also run the warm-up and one pass, check the outputs and print one JSON
object: wall and CPU seconds of the pass, peak memory, output hash,
checks and, when traced, the per-layer numbers and the spans.

Every pass gets a process of its own, as every CLI run does: no pass
finds memory or results left behind by an earlier one.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

CLI_COMMANDS = ("verify-theorem2", "verify-theorem1", "tw-limit", "mc-check")


def layer_metrics(tr, wall_s: float, cpu_s: float) -> dict:
    """Per-layer numbers of one traced pass (see METRICS.md)."""
    agg = tracing.summarize(tr.spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0.0)

    def count(name):
        return tr.counts.get(name, 0)

    m = {}
    points = count("specfun.airy_both.points")
    m["specfun.airy_both.calls"] = get("specfun.airy_both", "calls")
    m["specfun.airy_both.points"] = points
    m["specfun.airy_both.s"] = get("specfun.airy_both", "s")
    m["specfun.airy_both.ns_per_point"] = (
        1e9 * m["specfun.airy_both.s"] / points if points else 0.0)
    for ell in range(1, 5):
        name = f"quadrature.tensor_integrate.l{ell}"
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.nodes"] = count(f"{name}.nodes")
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.integrand_s"] = get(f"{name}.integrand", "s")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["quadrature.hermite_axis_count.calls"] = get("quadrature.hermite_axis_count", "calls")
    m["quadrature.hermite_axis_count.cap_hits"] = count("quadrature.hermite_axis_count.cap_hits")
    m["quadrature.fredholm_det_matrix.calls"] = get("quadrature.fredholm_det_matrix", "calls")
    m["quadrature.fredholm_det_matrix.order_sum"] = count(
        "quadrature.fredholm_det_matrix.order_sum")
    m["quadrature.fredholm_det_matrix.s"] = get("quadrature.fredholm_det_matrix", "s")
    m["quadrature.rules.calls"] = get("quadrature.rules", "calls")
    m["quadrature.rules.s"] = get("quadrature.rules", "s")
    for module, fns in (("airy_side", tracing.AIRY_SIDE_FNS),
                        ("kpz_side", tracing.KPZ_SIDE_FNS)):
        for fn in fns:
            for key in ("calls", "s", "self_s"):
                m[f"{module}.{fn}.{key}"] = get(f"{module}.{fn}", key)
    draws = get("montecarlo.sample_gue_edge", "calls")
    m["montecarlo.sample_gue_edge.calls"] = draws
    m["montecarlo.sample_gue_edge.s"] = get("montecarlo.sample_gue_edge", "s")
    m["montecarlo.eigensolve.s"] = get("montecarlo.eigensolve", "s")
    m["montecarlo.ms_per_draw"] = (
        1e3 * m["montecarlo.sample_gue_edge.s"] / draws if draws else 0.0)
    m["montecarlo.estimate.s"] = get("montecarlo.estimate", "s")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = get(f"cli.{cmd}", "s")
        m[f"cli.{cmd}.rows"] = count(f"cli.{cmd}.rows")
    m["cli.render.s"] = get("cli.render", "s")
    top = tracing.top_level_seconds(tr.spans)
    m["process.cpu_s"] = cpu_s
    m["bench.unattributed_s"] = wall_s - top
    m["bench.attributed_share"] = top / wall_s
    return m


def library_versions() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(SRC))
    import airykpz
    if Path(airykpz.__file__).resolve().parent.parent != SRC:
        print(f"imported airykpz from {airykpz.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed)
    if mode == "setup":
        print(time.monotonic())
        return 0

    workloads.run_steps(inputs.warmup)
    tr = tracing.Tracer() if mode == "traced" else None
    gc.collect()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if tr is None:
        outputs = workloads.run_steps(inputs.steps)
    else:
        with tracing.instrument(tr):
            outputs = workloads.run_steps(inputs.steps, tr)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    result = {
        "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB
        "sha256": workloads.output_hash(inputs.steps, outputs),
        "checks": [vars(c) for c in wl.checks(outputs)],
        "versions": library_versions(),
        "seed_used": wl.seeded,
    }
    if tr is not None:
        selfs = tracing.summarize(tr.spans)
        t_first = min((sp.start for sp in tr.spans), default=0.0)
        result["layers"] = layer_metrics(tr, wall_s, cpu_s)
        result["self_s"] = {k: v["self_s"] for k, v in selfs.items()}
        result["seconds_per_check"] = tracing.seconds_per_check(tr.spans)
        result["spans"] = [[sp.id, sp.name, sp.parent, sp.check,
                            sp.start - t_first, sp.end - t_first] for sp in tr.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
