"""The refinement kernel against the refined prototypes, dummy vectors and
loss traces stored in ``tests/data/refine_golden.npz``, bit for bit.

``tests/data/make_refine_golden.py`` builds every case from its seed and
wrote the file; see CHANGES.md for the commit whose bits it holds. A
mismatch means some floating-point operation of the kernel changed order.
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
        names = {key.split("/")[0] for key in npz.files}
    assert names == {case.name for _, case in CASES}


@pytest.mark.parametrize(("seed", "case"), CASES, ids=[case.name for _, case in CASES])
def test_refinement_reproduces_the_stored_bits(stored, seed, case):
    states, episodes, cfg = golden.build(case, seed)
    refined = refine_batch(states, episodes, cfg)
    assert np.array_equal(np.stack([ps.w for ps in refined]), stored[f"{case.name}/w"])
    if case.variant is Variant.EXPLICIT_DUMMY:
        assert np.array_equal(np.stack([ps.dummy for ps in refined]), stored[f"{case.name}/dummy"])
    _, trace = refine(states[0], episodes[0], cfg)
    assert trace == [LossBreakdown(*row) for row in stored[f"{case.name}/trace"].tolist()]
