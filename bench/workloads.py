"""The benchmark's workloads and their cached feature stores.

Each workload pins every config field, so a later change of a default does
not move it. Stores are a pure function of the workload's synthetic spec and
are generated once into ``.bench_cache/`` in a separate process, so neither
their generation time nor its memory reaches the measured figures. The
``--seed`` of a benchmark run is the episode stream seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

# Thread-count variables of the BLAS builds numpy may load; each run pins
# them to 1 before numpy is imported.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Seed of the recorded reference run of every workload; it is the README
# quickstart's episode seed.
REFERENCE_SEED = 1234

_OSTIM_QUICKSTART = {
    "alpha": 1.0, "lr": 0.001, "n_steps": 200, "temperature": 10.0,
    "variant": "implicit", "centering": "task",
}
_BASELINE = {"knn_k": 1, "temperature": 10.0, "centering": "base"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict  # fsosr.SynthSpec fields
    run: dict  # run config document minus store, seed, n_episodes, output_dir
    chunk: int  # episodes per runner.run call

    def config_doc(self, store: Path, seed: int, output_dir: Path) -> dict:
        doc = json.loads(json.dumps(self.run))
        doc["episodes"]["seed"] = seed
        doc.update(store=str(store), n_episodes=self.chunk, output_dir=str(output_dir))
        return doc

    @property
    def evaluations_per_call(self) -> int:
        return self.chunk * len(self.run["methods"])

    def store_path(self, root: Path) -> Path:
        digest = hashlib.sha256(json.dumps(self.synth, sort_keys=True).encode()).hexdigest()
        return root / ".bench_cache" / f"{self.name}-{digest[:12]}.fsos"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="quickstart",
            why=(
                "README quickstart verbatim (store A, 5-way 1-shot, 5 methods, 200 steps) "
                "with workers=2: what users run; tiny-array refinement and the thread pool dominate"
            ),
            synth={
                "dim": 16, "n_classes": 25, "points_per_class": 40, "centroid_radius": 1.0,
                "within_std": 0.35, "seed": 3, "split_fractions": [0.4, 0.2, 0.4],
            },
            run={
                "episodes": {"n_way": 5, "n_shot": 1, "n_query_per_class": 15, "n_open_classes": 5},
                "methods": ["ostim", "tim_closed", "simpleshot", "knn", "strong_baseline"],
                "workers": 2,
                "ostim": _OSTIM_QUICKSTART,
                "baseline": _BASELINE,
            },
            chunk=4,
        ),
        Workload(
            name="large_store",
            why=(
                "N=200k, D=64 store with the inductive methods only: load, base_mean and the "
                "O(N) class scan in sample_episode dominate, refinement does no work"
            ),
            synth={
                "dim": 64, "n_classes": 500, "points_per_class": 400, "centroid_radius": 1.0,
                "within_std": 0.15, "seed": 11, "split_fractions": [0.4, 0.2, 0.4],
            },
            run={
                "episodes": {"n_way": 5, "n_shot": 5, "n_query_per_class": 15, "n_open_classes": 5},
                "methods": ["simpleshot", "knn", "strong_baseline"],
                "workers": 1,
                "ostim": _OSTIM_QUICKSTART,
                "baseline": _BASELINE,
            },
            chunk=100,
        ),
        Workload(
            name="wide_transductive",
            why=(
                "D=64, 20-way 5-shot, 10 open classes (550 rows) with the three refinement "
                "variants, workers=1: the refinement layer on taller, wider arrays"
            ),
            synth={
                "dim": 64, "n_classes": 100, "points_per_class": 60, "centroid_radius": 1.0,
                "within_std": 0.15, "seed": 7, "split_fractions": [0.4, 0.2, 0.4],
            },
            run={
                "episodes": {"n_way": 20, "n_shot": 5, "n_query_per_class": 15, "n_open_classes": 10},
                "methods": ["ostim", "explicit_dummy", "tim_closed"],
                "workers": 1,
                "ostim": {
                    "alpha": 1.0, "lr": 0.05, "n_steps": 200, "temperature": 10.0,
                    "variant": "implicit", "centering": "task",
                },
                "baseline": _BASELINE,
            },
            chunk=2,
        ),
    )
}


def pin_blas_threads() -> None:
    for var in THREAD_ENV:
        os.environ[var] = "1"


def make_store(synth: dict, path: str) -> None:
    """Generate a store and move it into place only once complete."""
    from fsosr import SynthSpec, generate, save_feature_store
    from fsosr.feature_store import sidecar_path

    spec = SynthSpec(**{**synth, "split_fractions": tuple(synth["split_fractions"])})
    final = Path(path)
    tmp = final.with_name(final.name + ".tmp")
    save_feature_store(generate(spec), tmp)
    os.replace(sidecar_path(tmp), sidecar_path(final))
    os.replace(tmp, final)


if __name__ == "__main__":
    # python3 bench/workloads.py <synth spec JSON> <store path>
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    make_store(json.loads(sys.argv[1]), sys.argv[2])
