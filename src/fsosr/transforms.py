"""Center-normalize transform and ``normalize_chunk``, the one place that
picks a chunk's centering (task mean, base mean or origin) and builds its
normalized view, the only input of every method."""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateFeatureError
from .episodes import Episode

CENTERING_KINDS = ("none", "base", "task")

_EPS = 1e-12


def check_centering(kind: str) -> None:
    """ConfigError unless ``kind`` names a centering."""
    if kind not in CENTERING_KINDS:
        raise ConfigError(f"unknown centering {kind!r}; expected one of {CENTERING_KINDS}")


def row_norms(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norms along the last axis of real ``x``, with
    ``np.linalg.norm``'s bits but without its copy and axis handling."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=keepdims))


def center_normalize(z: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Subtract ``mu`` and project onto the unit sphere.

    Accepts a single D-vector or an (N, D) batch. Vectors closer than 1e-12
    to ``mu`` are rejected rather than silently producing NaNs.
    """
    z = np.asarray(z, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    shifted = z - mu
    norms = row_norms(shifted, keepdims=True)
    if np.any(norms < _EPS):
        if shifted.ndim == 1:
            raise DegenerateFeatureError("vector coincides with the centering point")
        i = int(np.argmax(norms.ravel() < _EPS))
        raise DegenerateFeatureError(
            f"vector {i} coincides with the centering point"
        )
    return shifted / norms


class NormalizedChunk(NamedTuple):
    """``raw_support``, ``support_labels`` and ``query_truth`` of E same-shape episodes,
    stacked, and ``support``/``query`` center-normalized at ``mu`` (E, D)."""

    mu: np.ndarray
    support: np.ndarray
    query: np.ndarray
    raw_support: np.ndarray
    support_labels: np.ndarray
    query_truth: np.ndarray


def normalize_chunk(
    episodes: Sequence[Episode], centering: str, base_mu: np.ndarray | None = None
) -> NormalizedChunk:
    """The one stacking of episodes and the one choice of their centering
    vectors: ``task`` centers each episode at the mean of its raw support
    and query rows, ``base`` every episode at the dataset mean ``base_mu``,
    and ``none`` at the origin. A vector at its centering point raises
    DegenerateFeatureError naming its set and its row in the episode,
    supports first, and the episode when the chunk has more than one."""
    check_centering(centering)
    if base_mu is not None:
        base_mu = np.asarray(base_mu, dtype=np.float64)
        if not np.all(np.isfinite(base_mu)):
            raise ConfigError("centering vector must be finite")
    elif centering == "base":
        raise ConfigError("base centering requires a precomputed mean")
    raw_support = np.stack([ep.support_vectors for ep in episodes])
    raw_query = np.stack([ep.query_vectors for ep in episodes])
    if centering == "task":
        mu = np.concatenate([raw_support, raw_query], axis=1).mean(axis=1)
    elif centering == "base":
        mu = np.tile(base_mu, (len(episodes), 1))
    else:
        mu = np.zeros((len(episodes), raw_support.shape[-1]))
    return NormalizedChunk(
        mu,
        _normalized(raw_support, mu, "support"),
        _normalized(raw_query, mu, "query"),
        raw_support,
        np.stack([ep.support_labels for ep in episodes]),
        np.stack([ep.query_truth for ep in episodes]),
    )


def _normalized(rows: np.ndarray, mu: np.ndarray, name: str) -> np.ndarray:
    """``center_normalize`` of (E, n, D) ``rows`` at (E, D) ``mu``; a vector at
    its centering point is named as the ``name`` row of its episode."""
    try:
        return center_normalize(rows, mu[:, None])
    except DegenerateFeatureError:
        shifted = np.asarray(rows, np.float64) - mu[:, None]
        episode, row = np.argwhere(row_norms(shifted) < _EPS)[0]
        where = f" of episode {episode}" if len(rows) > 1 else ""
        raise DegenerateFeatureError(
            f"{name} vector {row}{where} coincides with the centering point"
        ) from None


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
