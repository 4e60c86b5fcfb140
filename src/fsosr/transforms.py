"""Center-normalize transform and the three centering policies."""

from __future__ import annotations

from dataclasses import dataclass

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
