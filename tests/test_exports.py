import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import airykpz
from airykpz import montecarlo

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


def test_only_quadrature_knows_the_hermite_node_model():
    # quadrature.gaussian_cauchy_factors builds the Hermite rules, their
    # order and the Cauchy factors for laplace_R and the KPZ partition
    # terms alike: a module that reads these names keeps a second copy
    owned = {"hermite_axis_count", "HERMITE_AXIS_CAP_BY_DIM", "scaled_gauss_hermite"}
    users = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in owned:
                users.append((path.name, node.lineno, name))
    assert users == [], f"Hermite node model used outside quadrature: {users}"


BENCH = Path(__file__).resolve().parents[1] / "bench"
# module-level assignments that only list a module's exports: each
# __all__, and the package root's names resolved lazily from montecarlo
_EXPORT_LISTS = {"__all__", "_MONTECARLO_NAMES"}


def _references(tree):
    """Names a module reads: Name loads, attribute names and string
    constants (a bench step names its function by string).  Export lists
    are left out, and so is each top-level def's name inside that def;
    import lists bind aliases, which are no reference."""
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
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
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
