"""In-memory span tracer for the benchmark's traced runs.

A span records a name, start, end, the span that was open when it began
(its parent) and the check it served.  Spans stay in memory and are
written out when the run ends.

Spans are opened by wrappers around the public functions of the airykpz
modules.  Most modules bind what they use by name
(``from .quadrature import tensor_integrate``), so each module holds its
own reference and patching only the defining module would miss every
call.  :func:`instrument` therefore rebinds the function in every airykpz
module that holds it, wraps the integrand ``tensor_integrate`` receives,
and restores every binding on exit.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "airykpz"
AIRY_SIDE_FNS = ("laplace_R", "airy_h_moment", "airy_mult_stat", "airy_kernel_matrix",
                 "tracy_widom_f2")
KPZ_SIDE_FNS = ("kpz_moment", "kpz_moment_nested", "kpz_laplace")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    check: str
    start: float
    end: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.check = ""
        self._stack: list[Span] = []
        self.row_base = ""
        self._row = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.check, self.clock())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def innermost(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def begin_rows(self) -> None:
        """Give the rows a CLI command builds ids ``<check>/row0``, ``/row1``..."""
        self.row_base, self._row = self.check, 0
        self.check = f"{self.row_base}/row0"

    def next_row(self) -> None:
        self._row += 1
        self.check = f"{self.row_base}/row{self._row}"


# ----------------------------------------------------------------------
# span arithmetic

def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        lo = hi = None
        for s, e in sorted(children.get(sp.id, ())):
            s, e = max(s, sp.start), min(e, sp.end)
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out[sp.id] = sp.duration - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sp in spans:
        agg = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += sp.duration
        agg["self_s"] += selfs[sp.id]
    return out


def top_level_seconds(spans: list[Span]) -> float:
    return sum(sp.duration for sp in spans if sp.parent is None)


def seconds_per_check(spans: list[Span]) -> dict[str, float]:
    """Traced time per check: the self time of its spans, so each traced
    second counts once."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for sp in spans:
        out[sp.check] = out.get(sp.check, 0.0) + selfs[sp.id]
    return out


# ----------------------------------------------------------------------
# wrappers

def _timed(name: str, after=None):
    """Wrapper factory: one span per call; ``after(tracer, args, kwargs,
    result)`` adds counts.  A call made while a span of the same name is
    innermost (a function calling itself) is not counted twice."""
    def make(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.innermost() == name:
                return fn(*args, **kwargs)
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out
        return wrapper
    return make


def _count_points(tracer, args, kwargs, out):
    tracer.count("specfun.airy_both.points", np.size(args[0] if args else kwargs["x"]))


def _count_order(tracer, args, kwargs, out):
    kmat = args[0] if args else kwargs["kmat"]
    tracer.count("quadrature.fredholm_det_matrix.order_sum", np.shape(kmat)[0])


def _count_cap_hit(tracer, args, kwargs, out):
    # a hit is a call whose result sits at the per-dimension cap
    dim = args[1] if len(args) > 1 else kwargs["dim"]
    caps = getattr(sys.modules[f"{PACKAGE}.quadrature"], "HERMITE_AXIS_CAP_BY_DIM", {})
    tracer.count("quadrature.hermite_axis_count.cap_hits", int(out == caps.get(dim)))


def _tensor(tracer: Tracer, fn):
    """Split by tensor dimension; time the integrand it is handed apart
    from the meshgrid, weight and sum work around it."""
    @functools.wraps(fn)
    def wrapper(f, rules, *args, **kwargs):
        rules = list(rules)
        name = f"quadrature.tensor_integrate.l{len(rules)}"
        if tracer.innermost() == name:
            return fn(f, rules, *args, **kwargs)
        tracer.count(f"{name}.nodes", math.prod(len(r) for r in rules))

        def integrand(*xs):
            with tracer.span(f"{name}.integrand"):
                return f(*xs)

        with tracer.span(name):
            return fn(integrand, rules, *args, **kwargs)
    return wrapper


def _cli_run(tracer: Tracer, fn):
    """One span per CLI command; each row it builds gets its own check id."""
    @functools.wraps(fn)
    def wrapper(cfg, *args, **kwargs):
        name = f"cli.{cfg.command}"
        base = tracer.check
        try:
            with tracer.span(name):
                tracer.begin_rows()
                out = fn(cfg, *args, **kwargs)
        finally:
            tracer.check = base
        tracer.count(f"{name}.rows", len(out[0]))
        return out
    return wrapper


def _cli_render(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        row_check, tracer.check = tracer.check, tracer.row_base
        try:
            with tracer.span("cli.render"):
                return fn(*args, **kwargs)
        finally:
            tracer.check = row_check
    return wrapper


def _cli_row(tracer: Tracer, cls):
    """Stand-in for the row class: the next spans belong to the next row."""
    def make_row(*args, **kwargs):
        row = cls(*args, **kwargs)
        tracer.next_row()
        return row
    return make_row


#: (module holding the object, attribute, wrapper factory)
HOOKS = [
    ("specfun", "airy_both", _timed("specfun.airy_both", _count_points)),
    ("quadrature", "tensor_integrate", _tensor),
    ("quadrature", "hermite_axis_count",
     _timed("quadrature.hermite_axis_count", _count_cap_hit)),
    ("quadrature", "fredholm_det_matrix",
     _timed("quadrature.fredholm_det_matrix", _count_order)),
    ("quadrature", "gauss_legendre", _timed("quadrature.rules")),
    ("quadrature", "gauss_hermite", _timed("quadrature.rules")),
    *[("airy_side", fn, _timed(f"airy_side.{fn}")) for fn in AIRY_SIDE_FNS],
    *[("kpz_side", fn, _timed(f"kpz_side.{fn}")) for fn in KPZ_SIDE_FNS],
    ("montecarlo", "draw_edge_samples", _timed("montecarlo.draw_edge_samples")),
    ("montecarlo", "sample_gue_edge", _timed("montecarlo.sample_gue_edge")),
    ("montecarlo", "eigh_tridiagonal", _timed("montecarlo.eigensolve")),
    ("montecarlo", "estimate_h_moment", _timed("montecarlo.estimate")),
    ("montecarlo", "estimate_mult_stat", _timed("montecarlo.estimate")),
    ("cli", "run", _cli_run),
    ("cli", "render", _cli_render),
    ("cli", "VerificationRow", _cli_row),
]


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every binding of the hooked objects in the loaded airykpz
    modules; restore each binding on exit.  Hooks whose object a module
    no longer has are skipped."""
    modules = package_modules()
    saved = []
    try:
        for mod_name, attr, factory in HOOKS:
            target = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), attr, None)
            if target is None:
                continue
            wrapper = factory(tracer, target)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is target:
                        saved.append((mod, name, value))
                        setattr(mod, name, wrapper)
        yield tracer
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)
