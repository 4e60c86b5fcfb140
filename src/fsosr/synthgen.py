"""Synthetic embedding generator: isotropic Gaussian clusters on a sphere.

Class centroids sit at a fixed radius from a global shift point in random
directions; points scatter isotropically around their centroid. The
geometry knobs map directly onto task difficulty: small within-class spread
gives tight, easy clusters, spread comparable to the centroid radius gives
heavily overlapping ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, integer, number
from .feature_store import FeatureSet
from .transforms import unit_rows


@dataclass(frozen=True)
class SynthSpec:
    dim: int
    n_classes: int
    points_per_class: int
    centroid_radius: float
    within_std: float
    global_shift: float | tuple[float, ...] = 0.0
    seed: int = 0
    split_fractions: tuple[float, float, float] = (0.4, 0.2, 0.4)

    def __post_init__(self) -> None:
        for name in ("dim", "n_classes", "points_per_class", "seed"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if self.dim < 1 or self.n_classes < 1 or self.points_per_class < 1:
            raise ConfigError("dim, n_classes and points_per_class must be >= 1")
        if not number(self.centroid_radius, "centroid_radius") > 0:
            raise ConfigError(f"centroid_radius must be > 0, got {self.centroid_radius}")
        if number(self.within_std, "within_std") < 0:
            raise ConfigError(f"within_std must be >= 0, got {self.within_std}")
        fractions = tuple(float(number(f, "split_fractions")) for f in self.split_fractions)
        if len(fractions) != 3 or any(f < 0 or f > 1 for f in fractions):
            raise ConfigError("split_fractions must be three values in [0, 1]")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ConfigError(f"split_fractions must sum to 1, got {sum(fractions)}")
        object.__setattr__(self, "split_fractions", fractions)
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        shape = np.shape(self.global_shift)
        if shape not in ((), (self.dim,)):
            raise ConfigError(
                f"global_shift must be scalar or length {self.dim}, got shape {shape}"
            )
        for value in self.global_shift if shape else (self.global_shift,):
            number(value, "global_shift")

    def shift_vector(self) -> np.ndarray:
        shift = np.asarray(self.global_shift, dtype=np.float64)
        return np.full(self.dim, float(shift)) if shift.ndim == 0 else shift


def _split_counts(fractions: tuple[float, float, float], n_classes: int) -> list[int]:
    raw = [f * n_classes for f in fractions]
    counts = [int(np.floor(x)) for x in raw]
    remainders = [x - c for x, c in zip(raw, counts)]
    for _ in range(n_classes - sum(counts)):
        i = int(np.argmax(remainders))
        counts[i] += 1
        remainders[i] = -1.0
    return counts


def generate(spec: SynthSpec) -> FeatureSet:
    """Deterministic FeatureSet for the given geometry and seed."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(spec.seed)))
    shift = spec.shift_vector()

    directions = unit_rows(rng.normal(size=(spec.n_classes, spec.dim)), "direction")[0]
    centroids = shift + spec.centroid_radius * directions

    noise = rng.normal(size=(spec.n_classes, spec.points_per_class, spec.dim))
    points = centroids[:, None, :] + spec.within_std * noise
    vectors = points.reshape(-1, spec.dim).astype(np.float32)
    labels = np.repeat(np.arange(spec.n_classes, dtype=np.int64), spec.points_per_class)

    n_base, n_val, _ = _split_counts(spec.split_fractions, spec.n_classes)
    split_of_class = {}
    for cid in range(spec.n_classes):
        if cid < n_base:
            split_of_class[cid] = "base"
        elif cid < n_base + n_val:
            split_of_class[cid] = "val"
        else:
            split_of_class[cid] = "test"

    return FeatureSet(
        vectors=vectors,
        labels=labels,
        class_names=tuple(f"class_{i}" for i in range(spec.n_classes)),
        split_of_class=split_of_class,
    )
