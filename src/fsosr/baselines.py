"""Inductive reference methods: nearest-centroid softmax classifier and a
k-nearest-neighbor outlier detector. Their combination is the strong
baseline the transductive methods are measured against. Both score a
chunk of episodes from its ``NormalizedChunk``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .episodes import Episode
from .ostim import softmax
from .predictions import PredictionSheet
from .transforms import (CenteringPolicy, NormalizedChunk, center_normalize, check_centering,
                         class_means, normalize_chunk)


@dataclass(frozen=True)
class BaselineConfig:
    """The run config's ``baseline`` section, which ``simpleshot``, ``knn``
    and ``strong_baseline`` share, ``centering`` included."""

    knn_k: int = 1
    temperature: float = 10.0
    centering: str = "base"

    def __post_init__(self) -> None:
        check_centering(self.centering)
        if self.knn_k < 1:
            raise ValueError(f"knn_k must be >= 1, got {self.knn_k}")
        if not 0 < self.temperature < math.inf:  # also refuses NaN
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")


def simpleshot_chunk(
    view: NormalizedChunk, episodes: list[Episode], temperature: float = 10.0
) -> list[PredictionSheet]:
    """Nearest-centroid classification on center-normalized features.

    Class centroids are the per-class means of the normalized support
    vectors, re-normalized to unit length; probabilities are a softmax over
    temperature-scaled cosine similarities. A sheet has no outlier column,
    so its outlierness score is the negative maximum class probability.
    """
    means = class_means(view.support, np.stack([episode.support_labels for episode in episodes]))
    centroids = center_normalize(means, np.zeros(means.shape[-1]))
    probs = softmax(temperature * (view.query @ centroids.swapaxes(-1, -2)))
    return [PredictionSheet(p, means.shape[1]) for p in probs]


def knn_chunk(view: NormalizedChunk, k: int = 1) -> np.ndarray:
    """(E, n_query): mean distance from each query to its k nearest support
    vectors, all normalized. Higher means more outlying. Taken episode by
    episode, so no difference tensor is chunk-wide; ``k`` is checked by callers."""
    scores = np.empty(view.query.shape[:2])
    for out, queries, support in zip(scores, view.query, view.support):
        diffs = queries[:, None, :] - support[None, :, :]
        distances = np.sqrt(np.square(diffs, out=diffs).sum(axis=-1))
        distances.sort(axis=1)
        out[:] = distances[:, :k].mean(axis=1)
    return scores


def simpleshot_classify(
    episode: Episode, policy: CenteringPolicy, temperature: float = 10.0
) -> PredictionSheet:
    """``simpleshot_chunk`` of one episode, normalized at ``policy``'s centering."""
    view = normalize_chunk([episode], [policy.resolve(episode)])
    return simpleshot_chunk(view, [episode], temperature)[0]


def knn_outlier_score(episode: Episode, policy: CenteringPolicy, k: int = 1) -> np.ndarray:
    """``knn_chunk`` of one episode, normalized at ``policy``'s centering."""
    n_support = episode.support_vectors.shape[0]
    if not 1 <= k <= n_support:
        raise ValueError(f"k must be in [1, {n_support}], got {k}")
    return knn_chunk(normalize_chunk([episode], [policy.resolve(episode)]), k)[0]
