"""Deterministic episode sampling for few-shot open-set evaluation.

Every episode is a pure function of ``(seed, episode_index)``: the sampler
seeds a counter-based Philox generator with that pair, so episodes are
reproducible across runs and platforms and can be generated independently,
in any order or grouping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SamplingError
from .feature_store import FeatureSet

OUTLIER = -1


@dataclass(frozen=True)
class EpisodeSpec:
    """Task shape: K-way n-shot with open-set classes mixed into the queries."""

    n_way: int = 5
    n_shot: int = 1
    n_query_per_class: int = 15
    n_open_classes: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_way < 2:
            raise ConfigError(f"n_way must be >= 2, got {self.n_way}")
        if self.n_shot < 1:
            raise ConfigError(f"n_shot must be >= 1, got {self.n_shot}")
        if self.n_query_per_class < 1:
            raise ConfigError(
                f"n_query_per_class must be >= 1, got {self.n_query_per_class}"
            )
        if self.n_open_classes < 1:
            raise ConfigError(
                f"n_open_classes must be >= 1, got {self.n_open_classes}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    @property
    def n_queries(self) -> int:
        return (self.n_way + self.n_open_classes) * self.n_query_per_class


@dataclass(frozen=True)
class Episode:
    """One sampled task: labeled support set plus queries with hidden truth.

    ``query_truth`` holds the closed-set slot (0..K-1) for inlier queries and
    ``OUTLIER`` for open-set queries. ``closed_classes``/``open_classes``
    record the source class ids of each slot.
    """

    support_vectors: np.ndarray
    support_labels: np.ndarray
    query_vectors: np.ndarray
    query_truth: np.ndarray
    closed_classes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    open_classes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def n_way(self) -> int:
        return int(self.support_labels.max()) + 1

    @property
    def dim(self) -> int:
        return self.support_vectors.shape[1]

    @property
    def is_outlier(self) -> np.ndarray:
        return self.query_truth == OUTLIER


def _episode_rng(seed: int, episode_index: int) -> np.random.Generator:
    key = np.array([seed, episode_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_episode(
    fs: FeatureSet,
    spec: EpisodeSpec,
    episode_index: int,
    split: str = "test",
) -> Episode:
    """Draw episode ``episode_index`` of the stream defined by ``spec.seed``.

    Classes are drawn uniformly without replacement from the split's classes
    that hold at least ``n_shot + n_query_per_class`` vectors; the first
    ``n_way`` drawn become closed-set, the next ``n_open_classes`` open-set.
    Instances are then drawn per class without replacement, support before
    queries, so support and query sets are disjoint. The split's class ids,
    class sizes and each class's rows come from indexes built on the first
    call for ``fs`` and shared by every later one, so no call scans the
    labels or sorts the split.
    """
    if episode_index < 0:
        raise SamplingError(f"episode_index must be >= 0, got {episode_index}")
    needed_per_class = spec.n_shot + spec.n_query_per_class
    in_split = fs.split_class_ids(split)
    eligible = in_split[fs.class_counts()[in_split] >= needed_per_class]
    n_classes_needed = spec.n_way + spec.n_open_classes
    if len(eligible) < n_classes_needed:
        raise SamplingError(
            f"{split} split has {len(eligible)} classes with >= {needed_per_class} "
            f"vectors; episode needs {n_classes_needed}"
        )

    rng = _episode_rng(spec.seed, episode_index)
    drawn = eligible[rng.choice(len(eligible), size=n_classes_needed, replace=False)]
    closed_classes = drawn[: spec.n_way]
    open_classes = drawn[spec.n_way :]

    support_rows: list[np.ndarray] = []
    query_rows: list[np.ndarray] = []
    for cid in closed_classes:
        pool = fs.class_rows(cid)
        pick = pool[rng.choice(pool.size, size=needed_per_class, replace=False)]
        support_rows.append(pick[: spec.n_shot])
        query_rows.append(pick[spec.n_shot :])
    for cid in open_classes:
        pool = fs.class_rows(cid)
        query_rows.append(pool[rng.choice(pool.size, size=spec.n_query_per_class, replace=False)])

    slots = np.arange(spec.n_way, dtype=np.int64)
    query_truth = np.full(spec.n_queries, OUTLIER, dtype=np.int64)
    query_truth[: spec.n_way * spec.n_query_per_class] = np.repeat(slots, spec.n_query_per_class)
    support_idx = np.concatenate(support_rows)
    query_idx = np.concatenate(query_rows)
    return Episode(
        support_vectors=fs.vectors[support_idx].astype(np.float64),
        support_labels=np.repeat(slots, spec.n_shot),
        query_vectors=fs.vectors[query_idx].astype(np.float64),
        query_truth=query_truth,
        closed_classes=closed_classes.copy(),
        open_classes=open_classes.copy(),
    )
