"""The runtime needs numpy and the standard library, nothing else."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fsosr").glob("*.py"))


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the modules that ``path`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_import_only_the_standard_library_and_numpy():
    assert SOURCES
    for path in SOURCES:
        foreign = absolute_imports(path) - set(sys.stdlib_module_names) - {"numpy"}
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_the_package_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]


def test_sources_import_no_process_pool():
    # Workers are forked by ``runner`` itself: a pool's helper processes,
    # such as multiprocessing's resource tracker, can outlive a run.
    for path in SOURCES:
        pools = absolute_imports(path) & {"multiprocessing", "concurrent"}
        assert not pools, f"{path.name} imports {sorted(pools)}"
