"""Every module of the package imports at module level, uses each name it
imports, defines each name it exports and reads each private name it
defines; every function the benchmark's tracer wraps exists; importing
the package loads no scipy subpackage it does not use."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twogridfem"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module binds by import but never reads or lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def function_level_imports(source):
    """Lines of the imports made inside a function or method."""
    return sorted({
        inner.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))})


def private_definitions(source):
    """Module-level private names (``_x``, not dunders) a module binds by
    def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def names_read(source):
    """Names a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources):
    """Private module-level names of ``sources`` that none of them reads."""
    read = set().union(*map(names_read, sources))
    return sorted(set().union(*map(private_definitions, sources)) - read)


def test_guard_sees_an_unread_private_name():
    sources = ["def _used():\n    pass\n\ndef _dead():\n    pass\n"
               "_TABLE = {}\n__all__ = []\n",
               "from a import _used\nimport m\nm._TABLE\n"]
    assert unread_private_names(sources) == ["_dead"]


def test_package_reads_every_private_name():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_guard_sees_an_unused_import():
    source = "import os\nfrom a import b, c as d\n__all__ = ['d']\nos.sep\n"
    assert unused_imports(source) == [(2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_a_function_level_import():
    source = ("import os\n\ndef f():\n    def g():\n        import sys\n\n"
              "class A:\n    def h(self):\n        from . import b\n")
    assert function_level_imports(source) == [5, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_at_module_level(path):
    assert function_level_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_every_export(path):
    module = importlib.import_module(f"twogridfem.{path.stem}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def traced_names():
    """``TRACED`` of ``perfbench/tracing.py``, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_benchmark_traces_only_callables_of_the_package():
    # the tracer looks each name up with getattr: a deleted or renamed
    # function breaks every traced benchmark run
    names = traced_names()
    assert names
    missing = [name for name in names if not callable(getattr(
        importlib.import_module("twogridfem." + name.split(".")[0]),
        name.split(".")[1], None))]
    assert missing == []


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize (linprog, shgo, fft, special) added 17 MB to the
    # resident memory of every process and about 0.3 s to its import;
    # the package uses numpy, scipy.sparse and splu only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, twogridfem, twogridfem.cli\n"
         "print(sorted(m for m in sys.modules if m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert "scipy.sparse" in loaded
    assert "scipy.optimize" not in loaded
