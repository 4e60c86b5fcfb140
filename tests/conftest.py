"""Shared test fixtures and small builders."""

from __future__ import annotations

import builtins
import dataclasses
import errno
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import fsosr.feature_store
from fsosr import Episode, EpisodeReport, FeatureSet, OUTLIER, SynthSpec, score_episode
from fsosr.transforms import NormalizedChunk, normalize_chunk


# The one settings object of every property test: the same examples on
# every run, no example database, no per-example deadline.
properties = settings(derandomize=True, database=None, deadline=None, max_examples=150)


# The README quickstart's store.
QUICKSTART = SynthSpec(
    dim=16, n_classes=25, points_per_class=40, centroid_radius=1.0,
    within_std=0.35, seed=3, split_fractions=(0.4, 0.2, 0.4),
)


def set_cpus(monkeypatch, n: int) -> None:
    """Give runs an affinity mask of ``n`` CPUs, so they use up to ``n`` processes.

    The worker children of a run live as long as the FeatureSet it was given
    (a run that loads its own store ends them before it returns). A child
    runs the code as it was when forked: a monkeypatch made after that, on a
    set that is kept across runs, is seen by this process only."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def detector_report(scores, is_outlier) -> EpisodeReport:
    """``score_episode``'s report of a detector-only episode whose outliers
    are flagged by ``is_outlier`` and whose inliers are class 0."""
    truth = np.where(np.asarray(is_outlier, dtype=bool), OUTLIER, 0)
    return score_episode(truth, np.asarray(scores, dtype=np.float64))


def traced_peak(call) -> int:
    """Peak bytes ``tracemalloc`` sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_feature_set(
    rng: np.random.Generator,
    n_classes: int = 6,
    per_class: int = 20,
    dim: int = 4,
    splits: dict[int, str] | None = None,
    spread: float = 0.5,
    radius: float = 3.0,
) -> FeatureSet:
    """Gaussian clusters with per-class split assignment (default all test)."""
    centroids = rng.normal(size=(n_classes, dim)) * radius
    vectors = np.concatenate(
        [centroids[c] + spread * rng.normal(size=(per_class, dim)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes), per_class)
    if splits is None:
        splits = {c: "test" for c in range(n_classes)}
    return FeatureSet(
        vectors=vectors.astype(np.float32),
        labels=labels,
        class_names=tuple(f"c{i}" for i in range(n_classes)),
        split_of_class=splits,
    )


def make_episode(
    rng: np.random.Generator,
    n_way: int = 3,
    n_shot: int = 2,
    n_query_per_class: int = 4,
    n_open_classes: int = 2,
    dim: int = 5,
    spread: float = 0.4,
    radius: float = 2.0,
) -> Episode:
    """Synthetic episode with Gaussian class clusters, outliers included."""
    centroids = radius * rng.normal(size=(n_way + n_open_classes, dim))
    support_vectors = []
    support_labels = []
    query_vectors = []
    query_truth = []
    for k in range(n_way):
        support_vectors.append(centroids[k] + spread * rng.normal(size=(n_shot, dim)))
        support_labels.append(np.full(n_shot, k))
        query_vectors.append(centroids[k] + spread * rng.normal(size=(n_query_per_class, dim)))
        query_truth.append(np.full(n_query_per_class, k))
    for j in range(n_open_classes):
        query_vectors.append(
            centroids[n_way + j] + spread * rng.normal(size=(n_query_per_class, dim))
        )
        query_truth.append(np.full(n_query_per_class, OUTLIER))
    return Episode(
        support_vectors=np.concatenate(support_vectors),
        support_labels=np.concatenate(support_labels).astype(np.int64),
        query_vectors=np.concatenate(query_vectors),
        query_truth=np.concatenate(query_truth).astype(np.int64),
        closed_classes=np.arange(n_way, dtype=np.int64),
        open_classes=np.arange(n_way, n_way + n_open_classes, dtype=np.int64),
    )


def with_a_centroid_at_the_task_mean(episode: Episode, rng: np.random.Generator) -> Episode:
    """``episode`` with its two class-0 supports symmetric about the mean of
    its other rows, which is then its task mean too: their normalized rows
    cancel, so class 0's simpleshot centroid lies at the centering point."""
    rows = np.flatnonzero(episode.support_labels == 0)
    assert len(rows) == 2
    others = np.concatenate([np.delete(episode.support_vectors, rows, axis=0),
                             episode.query_vectors])
    offset = rng.normal(size=episode.dim)
    support = episode.support_vectors.copy()
    support[rows] = others.mean(axis=0) + np.stack([offset, -offset])
    return dataclasses.replace(episode, support_vectors=support)


def episode_view(
    episode: Episode, centering: str, base_mu: np.ndarray | None = None
) -> NormalizedChunk:
    """The chunk of the one ``episode``, normalized at ``centering``."""
    return normalize_chunk([episode], centering, base_mu)


@pytest.fixture(autouse=True)
def no_worker_outlives_the_test():
    """Every test ends with no child process of this one left, running or
    unreaped, and no thread it started alive: a FeatureSet that a test held
    has ended its workers with it, and a load has joined its checksum thread."""
    threads = set(threading.enumerate())
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    left = set(threading.enumerate()) - threads
    assert not left, f"threads left alive: {left}"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240913)


class _FullDisk:
    """A file whose first write stores half its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def fill_disk(monkeypatch):
    """Calling it makes every file the store module opens for writing fail
    midway through its first write, as on a full disk. Reports, stores and
    the CLI's output files are written through that module's ``atomic_write``."""

    def fill() -> None:
        def open_(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            return _FullDisk(fh) if "w" in mode else fh

        monkeypatch.setattr(fsosr.feature_store, "open", open_, raising=False)

    return fill
