"""Center-normalize transform, the three centering policies, and the
normalized view of a chunk of episodes that every method reads."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateFeatureError
from .episodes import Episode

CENTERING_KINDS = ("none", "base", "task")

_EPS = 1e-12


def check_centering(kind: str) -> None:
    """ConfigError unless ``kind`` names a centering policy."""
    if kind not in CENTERING_KINDS:
        raise ConfigError(f"unknown centering {kind!r}; expected one of {CENTERING_KINDS}")


def center_normalize(z: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Subtract ``mu`` and project onto the unit sphere.

    Accepts a single D-vector or an (N, D) batch. Vectors closer than 1e-12
    to ``mu`` are rejected rather than silently producing NaNs.
    """
    z = np.asarray(z, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    shifted = z - mu
    norms = np.linalg.norm(shifted, axis=-1, keepdims=True)
    if np.any(norms < _EPS):
        if shifted.ndim == 1:
            raise DegenerateFeatureError("vector coincides with the centering point")
        i = int(np.argmax(norms.ravel() < _EPS))
        raise DegenerateFeatureError(
            f"vector {i} coincides with the centering point"
        )
    return shifted / norms


def task_mean(episode: Episode) -> np.ndarray:
    """Mean of all raw features in the task (support and queries pooled)."""
    stacked = np.concatenate([episode.support_vectors, episode.query_vectors], axis=0)
    return stacked.mean(axis=0)


@dataclass(frozen=True)
class CenteringPolicy:
    """Which centering vector feeds the transform.

    ``none`` centers at the origin, ``base`` at a precomputed dataset mean
    (must be supplied in ``mu``), ``task`` at the per-episode mean of all
    support and query features. The task mean is computed once from raw
    features and held fixed afterwards.
    """

    kind: str
    mu: np.ndarray | None = None

    def __post_init__(self) -> None:
        check_centering(self.kind)
        if self.mu is not None:
            mu = np.asarray(self.mu, dtype=np.float64)
            if not np.all(np.isfinite(mu)):
                raise ConfigError("centering vector must be finite")
            object.__setattr__(self, "mu", mu)
        if self.kind == "base" and self.mu is None:
            raise ConfigError("base centering requires a precomputed mean")

    def resolve(self, episode: Episode) -> np.ndarray:
        """Concrete centering vector for this episode."""
        if self.kind == "task":
            return task_mean(episode)
        if self.kind == "base":
            return np.asarray(self.mu, dtype=np.float64)
        return np.zeros(episode.dim, dtype=np.float64)


class NormalizedChunk(NamedTuple):
    """E same-shape episodes center-normalized at their centering vectors
    ``mu`` (E, D): ``support`` (E, n_support, D) and ``query`` (E, n_query, D)."""

    mu: np.ndarray
    support: np.ndarray
    query: np.ndarray


def normalize_chunk(episodes: Sequence[Episode], mu: Sequence[np.ndarray]) -> NormalizedChunk:
    """Normalize each episode at its own centering vector. A vector at its
    centering point raises DegenerateFeatureError, supports checked first."""
    mu = np.stack(mu)
    return NormalizedChunk(
        mu,
        center_normalize(np.stack([ep.support_vectors for ep in episodes]), mu[:, None]),
        center_normalize(np.stack([ep.query_vectors for ep in episodes]), mu[:, None]),
    )


def class_means(rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-class means (E, K, D) of ``rows`` (E, n, D) under ``labels`` (E, n)
    in 0..K-1, in any order. Each class has the same number of rows in every
    episode; each mean sums its rows in order, as ``rows[mask].mean(axis=0)``."""
    n_episodes, dim = rows.shape[0], rows.shape[-1]
    means = []
    for k in range(int(labels.max()) + 1):
        mask = labels == k
        if np.ptp(mask.sum(axis=-1)):
            raise ValueError(f"class {k} has a different number of rows in some episode")
        means.append(rows[mask].reshape(n_episodes, -1, dim).mean(axis=1))
    return np.stack(means, axis=1)
