"""The refinement kernel against the refined prototypes, dummy vectors and
loss traces stored in ``tests/data/refine_golden.npz``, bit for bit. A
trace is ``loss_and_grad`` on the state refined for each step count.

``tests/data/make_refine_golden.py`` builds every case from its seed and
wrote the file; see CHANGES.md for the commit whose bits it holds. A
mismatch means some floating-point operation of the kernel changed order,
or numpy or its BLAS library differs from the build that wrote the file:
each failure names both builds.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest


_SPEC = importlib.util.spec_from_file_location(
    "make_refine_golden", Path(__file__).parent / "data" / "make_refine_golden.py"
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)
CASES = list(enumerate(golden.cases()))


@pytest.fixture(scope="module")
def stored() -> dict[str, np.ndarray]:
    with np.load(golden.GOLDEN) as npz:
        return dict(npz)


def test_every_stored_case_is_built():
    with np.load(golden.GOLDEN) as npz:
        names = {key.split("/")[0] for key in npz.files if key != golden.BUILD}
    assert names == {case.name for _, case in CASES}


@pytest.mark.parametrize(("seed", "case"), CASES, ids=[case.name for _, case in CASES])
def test_refinement_reproduces_the_stored_bits(stored, seed, case):
    builds = f"stored with {stored[golden.BUILD]}, run with {golden.build_info()}"
    got = golden.outputs(case, seed)
    assert got.keys() == {key.split("/")[1] for key in stored if key.startswith(f"{case.name}/")}
    for key, value in got.items():
        assert np.array_equal(value, stored[f"{case.name}/{key}"]), (key, builds)
