"""Inductive reference methods: nearest-centroid softmax classifier and a
k-nearest-neighbor outlier detector. Their combination is the strong
baseline the transductive methods are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .episodes import Episode
from .ostim import softmax
from .predictions import PredictionSheet
from .transforms import CenteringPolicy, center_normalize


@dataclass(frozen=True)
class BaselineConfig:
    knn_k: int = 1
    temperature: float = 10.0

    def __post_init__(self) -> None:
        if self.knn_k < 1:
            raise ValueError(f"knn_k must be >= 1, got {self.knn_k}")
        if not 0 < self.temperature < math.inf:  # also refuses NaN
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")


def simpleshot_classify(
    episode: Episode, policy: CenteringPolicy, temperature: float = 10.0
) -> PredictionSheet:
    """Nearest-centroid classification on center-normalized features.

    Class centroids are the per-class means of the transformed support
    vectors, re-normalized to unit length; probabilities are a softmax over
    temperature-scaled cosine similarities. The sheet has no outlier column,
    so its outlierness score is the negative maximum class probability.
    """
    mu = policy.resolve(episode)
    support = center_normalize(episode.support_vectors, mu)
    queries = center_normalize(episode.query_vectors, mu)
    k_way = episode.n_way
    centroids = np.stack(
        [support[episode.support_labels == k].mean(axis=0) for k in range(k_way)]
    )
    centroids = center_normalize(centroids, np.zeros(episode.dim))
    logits = temperature * (queries @ centroids.T)
    return PredictionSheet(softmax(logits), k_way)


def knn_outlier_score(
    episode: Episode, policy: CenteringPolicy, k: int = 1
) -> np.ndarray:
    """Mean Euclidean distance from each query to its k nearest support
    vectors, all in the center-normalized space. Higher means more outlying.
    """
    n_support = episode.support_vectors.shape[0]
    if not 1 <= k <= n_support:
        raise ValueError(f"k must be in [1, {n_support}], got {k}")
    mu = policy.resolve(episode)
    support = center_normalize(episode.support_vectors, mu)
    queries = center_normalize(episode.query_vectors, mu)
    diffs = queries[:, None, :] - support[None, :, :]
    distances = np.sqrt(np.square(diffs, out=diffs).sum(axis=-1))
    distances.sort(axis=1)
    return distances[:, :k].mean(axis=1)
