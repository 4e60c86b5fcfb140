"""The benchmark tracer patches fsosr functions by name; every name it
lists must still resolve, or a traced run fails with an AttributeError."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [
        f"{module}.{attr}"
        for module, attr in tracing.TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing
