"""Inductive reference methods: nearest-centroid softmax classifier and a
k-nearest-neighbor outlier detector. Their combination is the strong
baseline the transductive methods are measured against. Both score a
chunk of episodes from its ``NormalizedChunk`` alone, in one (E, ...) array.

The detector's scores are those of the exact difference-form distances
``sqrt(sum((q - s) ** 2))``, bit for bit. It finds each query's nearest
supports in two passes: one batched Gram matmul per chunk gives approximate
squared distances, which keep as candidates only the supports within a
rounding margin of the k-th smallest, and the difference form is then
evaluated for the candidates alone. ``knn_chunk`` bounds the margin and
proves that no true k-nearest support is screened out."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .episodes import Episode
from .errors import ConfigError, integer, number
from .ostim import softmax
from .predictions import PredictionSheet
from .transforms import NormalizedChunk, check_centering, class_means, normalize_chunk, unit_rows
# Unused; bench/tests/test_bench_tracing.py asserts the tracer patches this binding.
from .transforms import center_normalize  # noqa: F401

_EPS64 = np.finfo(np.float64).eps
_TINY64 = np.finfo(np.float64).smallest_subnormal


@dataclass(frozen=True)
class BaselineConfig:
    """The run config's ``baseline`` section, which ``simpleshot``, ``knn``
    and ``strong_baseline`` share, ``centering`` included."""

    knn_k: int = 1
    temperature: float = 10.0
    centering: str = "base"

    def __post_init__(self) -> None:
        check_centering(self.centering)
        object.__setattr__(self, "knn_k", integer(self.knn_k, "knn_k"))
        if self.knn_k < 1:
            raise ConfigError(f"knn_k must be >= 1, got {self.knn_k}")
        # Comparisons with NaN are false, so this refuses NaN as well as inf.
        if not 0 < number(self.temperature, "temperature", finite=False) < math.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")


def simpleshot_chunk(view: NormalizedChunk, temperature: float = 10.0) -> PredictionSheet:
    """Nearest-centroid classification of a chunk, as one (E, n_query, K) sheet.

    Class centroids are the per-class means of the normalized support
    vectors, re-normalized to unit length (a centroid at the origin raises
    DegenerateFeatureError); probabilities are a softmax over
    temperature-scaled cosine similarities. A sheet has no outlier column,
    so its outlierness score is the negative maximum class probability.
    """
    means = class_means(view.support, view.support_labels)
    centroids = unit_rows(means, "centroid")[0]
    probs = softmax(temperature * (view.query @ centroids.swapaxes(-1, -2)))
    return PredictionSheet(probs, means.shape[1])


def knn_chunk(view: NormalizedChunk, k: int = 1) -> np.ndarray:
    """(E, n_query): mean distance from each query to its k nearest support
    vectors, as given in ``view``. Higher means more outlying. ``k`` must be
    in [1, n_support].

    Each score equals the difference-form oracle bit for bit: the k smallest
    of ``np.square(q - s).sum(-1)`` over the supports ``s``, square-rooted,
    sorted and averaged. The oracle's squared distance ``F(s)`` is computed
    only for candidates, which a screen picks:

    * ``B(s) = |s|^2 - 2 q.s``, one batched matmul per chunk, is the squared
      distance less the per-query constant ``|q|^2``. Candidates are the
      supports with ``B(s) <= t + 2 beta``, where ``t`` is the k-th smallest
      ``B`` and ``beta = 4 (D + 4) (eps r^2 + tiny)``, with
      ``r = |q| + max |s|``, eps the float64 epsilon and tiny its smallest
      subnormal.
    * Bound. With ``d`` the exact distance, ``u = eps / 2`` and
      ``g(n) = n u / (1 - n u)``, the standard rounding bounds for a sum of
      D products in any order give ``|F - d^2| <= g(D + 2) d^2`` and
      ``|B - (d^2 - |q|^2)| <= g(D + 1) (|s|^2 + 2 |q| |s|)``, both at most
      ``g(D + 2) r^2``. So ``|B + |q|^2 - F| <= 2 (D + 2) eps r^2``, and
      ``beta`` is twice that: the slack covers the rounding of ``r``,
      ``beta`` and ``t + 2 beta``, and ``tiny`` covers gradual underflow.
    * Proof. Each of the k supports with the smallest ``B`` has
      ``F <= B + |q|^2 + beta <= t + |q|^2 + beta``, so the k-th smallest
      ``F``, ``f_k``, is at most ``t + |q|^2 + beta``. Any support with
      ``F(s) <= f_k`` then has ``B(s) <= F(s) - |q|^2 + beta <= t + 2 beta``:
      it is a candidate. Every support that is not has ``F > f_k``, so the k
      smallest ``F`` among the candidates are the k smallest overall, ties
      included.
    * Bits. A candidate's ``F`` comes from the oracle's own operations: an
      elementwise subtract and square, then a pairwise sum over a
      contiguous last axis of D elements. ``sqrt`` is monotone, so sorting
      ``F`` before the root gives the oracle's sorted distances, and the
      mean runs over the same k values in the same order.

    If ``r^2`` overflows, or a value is not finite, the limit is not finite
    and ``~(B > limit)`` keeps every support. A query's candidates lead its
    row of the ``B`` argsort. The exact pass runs over query rows in blocks
    of at most one episode's (n_query, n_support) pairs, so its gathered
    rows never take more memory than that episode's full difference tensor,
    even when every support is a candidate.
    """
    query, support = view.query, view.support
    n_episodes, n_query, dim = query.shape
    n_support = support.shape[1]
    if not 1 <= k <= n_support:
        raise ValueError(f"k must be in [1, {n_support}], got {k}")
    n_rows = n_episodes * n_query
    q_sq = np.einsum("eqd,eqd->eq", query, query)
    s_sq = np.einsum("esd,esd->es", support, support)
    screen = query @ (-2.0 * support).swapaxes(-1, -2)
    screen += s_sq[:, None, :]
    screen = screen.reshape(n_rows, n_support)
    order = np.argsort(screen, axis=-1)
    rows = np.arange(n_rows)
    reach = (np.sqrt(q_sq) + np.sqrt(s_sq.max(axis=-1))[:, None]).ravel()
    beta = 4 * (dim + 4) * (_EPS64 * reach * reach + _TINY64)
    limit = screen[rows, order[:, k - 1]] + 2 * beta
    counts = np.count_nonzero(~(screen > limit[:, None]), axis=-1)

    query_rows = query.reshape(n_rows, dim)
    support_rows = support.reshape(-1, dim)
    widest = int(counts.max())
    step = n_query * n_support // widest
    gathered = np.empty((min(step, n_rows) * widest, dim))
    nearest = np.empty((n_rows, k))
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        width = int(counts[lo:hi].max())
        cols = order[lo:hi, :width] + (rows[lo:hi] // n_query * n_support)[:, None]
        diffs = gathered[: (hi - lo) * width].reshape(hi - lo, width, dim)
        # Every index is in range; "clip" lets take write to diffs unbuffered.
        np.take(support_rows, cols, axis=0, out=diffs, mode="clip")
        np.subtract(query_rows[lo:hi, None, :], diffs, out=diffs)
        squared = np.square(diffs, out=diffs).sum(axis=-1)
        squared.sort(axis=-1)
        np.sqrt(squared[:, :k], out=nearest[lo:hi])
    return nearest.reshape(n_episodes, n_query, k).mean(axis=-1)


def simpleshot_classify(
    episode: Episode, centering: str, base_mu: np.ndarray | None = None,
    temperature: float = 10.0,
) -> PredictionSheet:
    """``simpleshot_chunk`` of one episode, normalized at ``centering``."""
    sheet = simpleshot_chunk(normalize_chunk([episode], centering, base_mu), temperature)
    return PredictionSheet(sheet.probs[0], sheet.n_closed)


def knn_outlier_score(
    episode: Episode, centering: str, base_mu: np.ndarray | None = None, k: int = 1
) -> np.ndarray:
    """``knn_chunk`` of one episode, normalized at ``centering``."""
    return knn_chunk(normalize_chunk([episode], centering, base_mu), k)[0]
