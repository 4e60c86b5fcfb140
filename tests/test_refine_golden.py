"""The refinement kernel against the refined prototypes, dummy vectors and
loss traces stored in ``tests/data/refine_golden.npz``, bit for bit.

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

from fsosr import LossBreakdown, Variant, refine, refine_batch

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
    states, episodes, cfg = golden.build(case, seed)
    refined = refine_batch(states, episodes, cfg)
    assert np.array_equal(np.stack([ps.w for ps in refined]), stored[f"{case.name}/w"]), builds
    if case.variant is Variant.EXPLICIT_DUMMY:
        dummy = np.stack([ps.dummy for ps in refined])
        assert np.array_equal(dummy, stored[f"{case.name}/dummy"]), builds
    _, trace = refine(states[0], episodes[0], cfg)
    stored_trace = [LossBreakdown(*row) for row in stored[f"{case.name}/trace"].tolist()]
    assert trace == stored_trace, builds
