"""Write ``refine_golden.npz``: refined prototypes and loss traces that the
refinement kernel must reproduce bit for bit.

The cases cross all three variants with K in {5, 9, 20}, so the logit count
C runs from 5 to 21. D takes 16, 64 and 640 (640 for the implicit and
explicit_dummy variants), E takes 1 and 4, and centering, learning rate and
shot count alternate. ``build`` makes each case's chunk, its initial
``PrototypeSet`` and its config from the case's own seed, and ``outputs``
refines the chunk in one ``refine`` call; the test imports both, so the
file holds only outputs: for every case ``w`` (E, K, D), ``dummy`` (E, D)
for the explicit_dummy variant, and the ``refine`` trace of the first
episode as a (steps, 4) array of ce, marginal entropy, conditional entropy
and total. ``build_info`` records the numpy version and BLAS library that
wrote the file, since a matmul's bits depend on them.

Run from the repository root, on the commit whose bits are the reference:

    PYTHONPATH=src python3 tests/data/make_refine_golden.py
"""

from __future__ import annotations

from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from fsosr import Episode, OstimConfig, PrototypeSet, Variant, init_prototypes, refine
from fsosr.transforms import NormalizedChunk, normalize_chunk

GOLDEN = Path(__file__).with_name("refine_golden.npz")
BUILD = "build"
N_STEPS = 50


def build_info() -> str:
    """The numpy version and the BLAS library numpy runs on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


class Case(NamedTuple):
    variant: Variant
    k_way: int
    dim: int
    n_episodes: int
    centering: str
    lr: float
    n_shot: int

    @property
    def name(self) -> str:
        return (f"{self.variant.value}-k{self.k_way}-d{self.dim}-e{self.n_episodes}-"
                f"{self.centering}-lr{self.lr:g}-s{self.n_shot}")


def cases() -> list[Case]:
    """Every variant at every K, once at D=16 and once at D=64, plus two
    D=640 cases; E=4 at K=9, so that a batch of episodes is pinned too. The
    file stays near 200 KB because only outputs are stored, and D=640
    prototypes are the bulk."""
    out = []
    for i, (variant, k_way) in enumerate(product(Variant, (5, 9, 20))):
        centering, other = ("task", "none") if i % 2 else ("none", "task")
        lr, other_lr = (1e-3, 0.05) if (i // 2) % 2 else (0.05, 1e-3)
        n_episodes = 4 if k_way == 9 else 1
        out.append(Case(variant, k_way, 16, n_episodes, centering, lr, 1 + i % 2))
        out.append(Case(variant, k_way, 64, 1, other, other_lr, 2 - i % 2))
    out += [
        Case(Variant.IMPLICIT, 9, 640, 1, "none", 0.05, 1),
        Case(Variant.EXPLICIT_DUMMY, 5, 640, 1, "task", 1e-3, 2),
    ]
    return out


def _episode(rng: np.random.Generator, case: Case) -> Episode:
    n_open, per_class = 3, 3
    centroids = 2.0 * rng.normal(size=(case.k_way + n_open, case.dim)) + 0.5
    support = np.repeat(np.arange(case.k_way), case.n_shot)
    query_class = np.repeat(np.arange(case.k_way + n_open), per_class)
    return Episode(
        support_vectors=centroids[support] + 0.6 * rng.normal(size=(support.size, case.dim)),
        support_labels=support,
        query_vectors=centroids[query_class] + 0.6 * rng.normal(size=(query_class.size, case.dim)),
        query_truth=np.where(query_class < case.k_way, query_class, -1),
    )


def build(case: Case, seed: int) -> tuple[PrototypeSet, NormalizedChunk, OstimConfig]:
    """The case's initial prototype sets, its chunk of episodes and its config."""
    rng = np.random.default_rng(seed)
    episodes = [_episode(rng, case) for _ in range(case.n_episodes)]
    view = normalize_chunk(episodes, case.centering)
    cfg = OstimConfig(n_steps=N_STEPS, learning_rate=case.lr, variant=case.variant,
                      centering=case.centering)
    return init_prototypes(view, case.variant), view, cfg


def outputs(case: Case, seed: int) -> dict[str, np.ndarray]:
    """The case's refined ``w``, ``dummy`` (explicit_dummy only) and the
    first episode's loss trace, all from one ``refine`` of its chunk."""
    ps, view, cfg = build(case, seed)
    traces = [[] for _ in range(case.n_episodes)]
    refined = refine(ps, view, cfg, traces)
    out = {
        "w": refined.w,
        "trace": np.array([[b.ce, b.marginal_entropy, b.conditional_entropy, b.total]
                           for b in traces[0]]),
    }
    if case.variant is Variant.EXPLICIT_DUMMY:
        out["dummy"] = refined.dummy
    return out


def main() -> None:
    arrays = {}
    for seed, case in enumerate(cases()):
        for key, value in outputs(case, seed).items():
            assert np.isfinite(value).all(), (case.name, key)
            arrays[f"{case.name}/{key}"] = value
    arrays[BUILD] = np.array(build_info())
    np.savez_compressed(GOLDEN, **arrays)
    print(f"{GOLDEN}: {len(cases())} cases, {GOLDEN.stat().st_size} bytes, {build_info()}")


if __name__ == "__main__":
    main()
