"""The package's export list: every name in ``fsosr.__all__`` resolves and a
star import succeeds, so a deleted public name cannot leave a stale entry;
and every exported function is one the package runs or the benchmark
tracer patches, so the public API carries no dead code."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import fsosr

PACKAGE = Path(fsosr.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_exported_name_resolves():
    assert fsosr.__all__
    assert len(set(fsosr.__all__)) == len(fsosr.__all__)
    assert [name for name in fsosr.__all__ if not hasattr(fsosr, name)] == []


def test_a_star_import_binds_every_exported_name():
    names: dict = {}
    exec("from fsosr import *", names)
    assert set(fsosr.__all__) <= set(names)


def _traced() -> set[str]:
    """The function names of ``bench/tracing.py``'s ``TRACED`` pairs."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return {attr for _, attr in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracing.py assigns no TRACED")


def _referenced() -> set[str]:
    """Every name that a module of the package other than ``__init__.py``
    reads, bare or as an attribute of a package module (``ostim.predict``).
    A dataclass field or an attribute of an object (``report.auroc``) is not
    a reference."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    names: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                names.add(node.attr)
    return names


def test_every_exported_function_is_run_by_the_package_or_traced():
    functions = [name for name in fsosr.__all__ if inspect.isfunction(getattr(fsosr, name))]
    assert functions
    used = _referenced() | _traced()
    assert [name for name in functions if name not in used] == []
