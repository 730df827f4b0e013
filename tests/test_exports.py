import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import airykpz
from airykpz import errors, montecarlo

MODULES = ["airykpz"] + [f"airykpz.{m.name}" for m in pkgutil.iter_modules(airykpz.__path__)]
SRC = Path(airykpz.__file__).resolve().parent
LAZY = ["EstimatorResult", "draw_edge_samples", "estimate_h_moment", "estimate_mult_stat",
        "sample_gue_edge"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry breaks `from <module> import *`
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("name", LAZY)
def test_lazy_name_is_the_montecarlo_object(name):
    assert getattr(airykpz, name) is getattr(montecarlo, name)


def test_dir_lists_every_exported_name():
    assert set(airykpz.__all__) <= set(dir(airykpz))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from airykpz import *", namespace)
    assert [n for n in airykpz.__all__ if n not in namespace] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'airykpz' has no attribute 'no_such_name'"):
        airykpz.no_such_name  # noqa: B018
    assert not hasattr(airykpz, "no_such_name")


_ONE_CELLS = """
import contextlib, io, sys
import airykpz, airykpz.cli

def main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return airykpz.cli.main(argv)

assert main(["verify-theorem1", "--C", "1", "--u", "1"]) == 0
assert main(["verify-theorem2", "--C", "1", "--k-max", "1"]) == 0
assert main(["tw-limit", "--a=-2", "--T", "64"]) == 0
"""

_FRESH = _ONE_CELLS + """
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded == [], loaded
assert main(["mc-check", "--C", "0.5", "--u", "1", "--k-max", "1", "--samples", "100",
             "--matrix-size", "100", "--keep-top", "32"]) in (0, 1)
assert "scipy.linalg" in sys.modules
"""


_NO_POOL = _ONE_CELLS + """
loaded = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
assert loaded == [], loaded
"""


def _run_fresh(script):
    # the pytest process has these modules loaded already, so each check
    # runs in a new interpreter
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_only_mc_check_loads_scipy():
    _run_fresh(_FRESH)


def test_only_mc_check_loads_the_process_pool():
    # the Monte Carlo worker pool imports its modules when it draws
    _run_fresh(_NO_POOL)


def _module_level(tree):
    """The statements run at import: the module body and the bodies of
    its top-level if/try/with blocks, but no function or class body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                todo.extend(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            todo.extend(node.body)


def _imported_modules(node):
    """Dotted names an import statement binds or reads from; relative ones
    keep their leading dots, and `from a import b` also gives `a.b`."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        return [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
    return []


def test_only_montecarlo_imports_scipy_and_nothing_imports_it_at_module_level():
    # scipy costs most of a cold start and only mc-check needs it: a new
    # scipy import, or a top-level import of montecarlo, would put it back
    # on every CLI call and every `import airykpz`
    scipy_users, eager = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if path.name != "montecarlo.py" and any(
                    m.split(".")[0] == "scipy" for m in _imported_modules(node)):
                scipy_users.append((path.name, node.lineno))
        for node in _module_level(tree):
            if any("montecarlo" in m.split(".") for m in _imported_modules(node)):
                eager.append((path.name, node.lineno))
    assert scipy_users == [], f"scipy imported outside montecarlo.py: {scipy_users}"
    assert eager == [], f"montecarlo imported at module level (loads scipy): {eager}"


def _reads_dbl_max(node):
    return any((isinstance(n, ast.Attribute) and n.attr == "float_info")
               or (isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "finfo")
               for n in ast.walk(node))


def test_only_errors_guards_overflow():
    # errors.checked_exp is the one overflow guard: a module that catches
    # OverflowError or compares against its own log(DBL_MAX) duplicates it
    guards = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            named = isinstance(node, ast.Name) and node.id == "OverflowError"
            log_max = (isinstance(node, ast.Call)
                       and getattr(node.func, "attr", getattr(node.func, "id", None)) == "log"
                       and any(_reads_dbl_max(arg) for arg in node.args))
            if named or log_max:
                guards.append((path.name, node.lineno))
    assert guards == [], f"overflow guarded outside errors.checked_exp: {guards}"


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_errors_owns_the_exception_taxonomy_and_raises_every_class():
    # every exception class is defined in errors.py, and each AiryKpzError
    # subclass there is raised somewhere in src/: a class whose last raiser
    # is gone must leave the taxonomy with it
    defined, raised = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            bases = [_name(b) or "" for b in getattr(node, "bases", ())]
            if path.name != "errors.py" and any(b.endswith(("Error", "Exception")) for b in bases):
                defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(_name(exc))
    assert defined == [], f"exception classes defined outside errors.py: {defined}"
    taxonomy = {name for name, cls in vars(errors).items() if isinstance(cls, type)
                and issubclass(cls, errors.AiryKpzError) and cls is not errors.AiryKpzError}
    assert taxonomy and sorted(taxonomy - raised) == []


def test_only_quadrature_knows_the_hermite_node_model(monkeypatch):
    # the node model of the Hermite-weight axes e^{-s x^2}: quadrature.
    # trapezoid_axis builds their trapezoid rules, steps and counts, for
    # laplace_R (through gaussian_cauchy_factors), the KPZ series' contours
    # and the nested contours alike: a module that reads these names keeps
    # a second copy
    owned = {"_balanced_step", "_LOG_TOL", "_AXIS_CAP_4D"}
    users = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = _name(node)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in owned:
                users.append((path.name, node.lineno, name))
    assert users == [], f"trapezoid node model used outside quadrature: {users}"
    # the nested contours keep no Legendre axis of their own
    tree = ast.parse((SRC / "kpz_side.py").read_text())
    assert "gauss_legendre" not in {_name(n) or getattr(n, "name", None) for n in ast.walk(tree)}
    # and both moment pipelines sum on the shared function's rules only:
    # the series' contours t and the nested tensor axes
    from airykpz import kpz_side, quadrature
    built, used = [], []
    shared, series, integrate = (quadrature.trapezoid_axis, kpz_side._cycle_traces,
                                 kpz_side.tensor_integrate)

    def axis(*args):
        built.append(shared(*args))
        return built[-1]

    def contours(d, F):
        used.extend(-x.imag for x in d)
        return series(d, F)

    def spy(f, rules):
        used.extend(r.nodes for r in rules)
        return integrate(f, rules)

    monkeypatch.setattr(quadrature, "trapezoid_axis", axis)
    monkeypatch.setattr(kpz_side, "trapezoid_axis", axis)
    monkeypatch.setattr(kpz_side, "_cycle_traces", contours)
    monkeypatch.setattr(kpz_side, "tensor_integrate", spy)
    for moment in (kpz_side.kpz_moment, kpz_side.kpz_moment_nested):
        built.clear()
        used.clear()
        moment(3, 2.0)
        assert used and all(any(np.array_equal(t, b.nodes) for b in built) for t in used), \
            moment.__name__


def _function(module, name):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def test_only_quadrature_holds_the_moment_tolerance():
    # one target for every moment order: quadrature.MOMENT_RTOL is both the
    # tensor driver's cancellation gate and verify-theorem2's default --tol.
    # A second definition, or a tolerance literal in the CLI (such as a
    # k-dependent default), would split the contract again
    from airykpz import quadrature
    defs = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assign) and "MOMENT_RTOL" in map(_name, node.targets)]
    assert [name for name, _ in defs] == ["quadrature.py"], defs
    literals = [node.lineno for node in ast.walk(ast.parse((SRC / "quadrature.py").read_text()))
                if isinstance(node, ast.Constant) and node.value == quadrature.MOMENT_RTOL]
    assert len(literals) == 1, f"the moment tolerance written out again: {literals}"
    for module, fn in (("quadrature", "tensor_integrate"), ("cli", "run_verify_theorem2")):
        assert "MOMENT_RTOL" in {_name(n) for n in ast.walk(_function(module, fn))}, fn
    cli_floats = [node.value for node in ast.walk(_function("cli", "run_verify_theorem2"))
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)]
    assert cli_floats == [], f"tolerance literals in run_verify_theorem2: {cli_floats}"


def test_only_quadrature_holds_the_fredholm_node_count():
    # every Fredholm grid (airy_mult_stat, the F2 grid, K_u's outer rule
    # and verify-theorem1's default) takes quadrature.FREDHOLM_NODES: an 80
    # written anywhere else in src/ is a second copy that can drift
    literals = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant) and type(node.value) in (int, float)
                and node.value == 80]
    [(name, lineno)] = literals
    tree = ast.parse((SRC / "quadrature.py").read_text())
    [define] = [node for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and "FREDHOLM_NODES" in map(_name, node.targets)]
    assert (name, lineno) == ("quadrature.py", define.lineno)
    assert "FREDHOLM_NODES" in {_name(n) for n in ast.walk(_function("cli", "run_verify_theorem1"))}


def test_no_module_imports_a_name_it_never_reads():
    # an import left behind when its last reader moved away is dead (the
    # CLI's DomainError and check_positive once airy_h_moments checked its
    # own entries); the package root's imports are its re-exports
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unread.append((path.name, node.lineno, bound))
    assert unread == [], f"imported but never read: {unread}"


BENCH = Path(__file__).resolve().parents[1] / "bench"
# module-level assignments that only list a module's exports: each
# __all__, and the package root's names resolved lazily from montecarlo
_EXPORT_LISTS = {"__all__", "_MONTECARLO_NAMES"}


def _step_fn(node):
    """The function name of a bench ``Step(..., fn="name")`` call, else None."""
    if isinstance(node, ast.Call) and _name(node.func) == "Step":
        return next((kw.value.value for kw in node.keywords if kw.arg == "fn"
                     and isinstance(kw.value, ast.Constant)), None)
    return None


def _references(tree):
    """Names a module reads: Name loads, attribute names and the function
    names of bench steps, which name their function by string; any other
    string, such as a message or a tracer's hook list, is no call.  Export
    lists are left out, and so is each top-level def's name inside that
    def; import lists bind aliases, which are no reference."""
    refs = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in _EXPORT_LISTS for t in stmt.targets):
            continue
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif (step := _step_fn(node)) is not None:
                name = step
            else:
                continue
            if name != own:
                refs.add(name)
    return refs


def test_every_exported_name_has_a_caller_in_src_or_bench():
    # library surface that no pipeline and no benchmark step uses belongs
    # in the tests, with the other references (tests/pointwise.py)
    refs = set()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        refs |= _references(ast.parse(path.read_text()))
    unused = sorted({(name, attr) for name in MODULES
                     for attr in getattr(importlib.import_module(name), "__all__", ())
                     if attr not in refs})
    assert unused == [], f"exported but called only from tests: {unused}"


_ORDER_RANGE = re.compile(r"<=\s*k\b|\bk\s*<=|--k-max\s*<=")


def test_only_errors_checks_moment_orders():
    # errors.check_order is the one moment-order check: a raise elsewhere
    # whose message states an order range keeps its own copy of the range
    copies = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None and any(
                    isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and _ORDER_RANGE.search(n.value) for n in ast.walk(node.exc)):
                copies.append((path.name, node.lineno))
    assert copies == [], f"moment-order ranges checked outside errors.check_order: {copies}"


def test_only_quadrature_reads_moments_off_a_log_det_series():
    # quadrature.log_det_moments is the one reader of both moment series:
    # Newton's step is defined there alone, and the cancellation gate, the
    # one comparison against MOMENT_RTOL, is quadrature's _cancelled, which
    # tensor_integrate shares.  A second newton_h or a second gate would
    # split the decision again
    newton, gates = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "newton_h":
                newton.append(path.name)
            if isinstance(node, ast.Compare) and "MOMENT_RTOL" in map(_name, ast.walk(node)):
                gates.append((path.name, node.lineno))
    assert newton == ["quadrature.py"], newton
    assert [name for name, _ in gates] == ["quadrature.py"], gates
    [(_, lineno)] = gates
    cancelled = _function("quadrature", "_cancelled")
    assert cancelled.lineno <= lineno <= cancelled.end_lineno
    for fn in ("tensor_integrate", "log_det_moments"):
        assert "_cancelled" in {_name(n) for n in ast.walk(_function("quadrature", fn))}, fn


@pytest.mark.parametrize("module", ["kpz_side", "montecarlo"])
def test_side_modules_import_nothing_from_airy_side(module):
    # the KPZ side and the Monte Carlo side share the reader in quadrature,
    # not the Airy pipeline
    imports = [m for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text()))
               for m in _imported_modules(node) if "airy_side" in m.lstrip(".").split(".")]
    assert imports == [], imports
