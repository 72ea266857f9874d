"""Every module of the package imports at module level, uses each name it
imports and defines each name it exports."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twogridfem"
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
