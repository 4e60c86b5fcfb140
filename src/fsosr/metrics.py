"""Episode scoring: closed-set accuracy, AUROC, AUPR, precision at fixed
recall, and aggregation across episodes.

Outliers are the positive class everywhere, so a random detector scores
0.5 AUROC and an AUPR equal to the outlier proportion. Ties are handled
by one ranking of the scores: equal scores form one block, which no
threshold splits, and AUROC counts an outlier tied with an inlier as half a
pair. All three detection metrics read the cumulative counts at the block
ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .episodes import OUTLIER
from .predictions import PredictionSheet


@dataclass(frozen=True)
class EpisodeReport:
    """Metric values for one episode. ``acc`` is None for detector-only
    methods that make no closed-set prediction."""

    acc: float | None
    auroc: float
    aupr: float
    prec_at_90: float


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float
    ci95_half_width: float


@dataclass(frozen=True)
class RunReport:
    """Aggregated metrics over an episode stream for one method."""

    method: str
    n_episodes: int
    metrics: dict[str, MetricSummary | None]
    config: dict


METRIC_NAMES = tuple(f.name for f in fields(EpisodeReport))


def _ranked(scores, is_outlier) -> tuple[np.ndarray, np.ndarray]:
    """Validate the scores, rank them once, descending, and return the
    cumulative outlier and inlier counts at the end of each block of equal
    scores. A threshold never splits a block, so every metric reads these."""
    scores = np.asarray(scores, dtype=np.float64)
    is_outlier = np.asarray(is_outlier, dtype=bool)
    if scores.ndim != 1 or scores.shape != is_outlier.shape:
        raise ValueError("scores and is_outlier must be 1-D arrays of equal length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    ends = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, scores.size)
    outliers = np.concatenate(([0], np.cumsum(is_outlier[order])))[ends]
    return outliers, ends - outliers


def _auroc(outliers: np.ndarray, inliers: np.ndarray) -> float:
    n_out, n_in = int(outliers[-1]), int(inliers[-1])
    if n_out == 0 or n_in == 0:
        raise ValueError("auroc needs at least one inlier and one outlier")
    # Twice the outlier-above-inlier pair count, ties counted half: an
    # integer, so the result is exact.
    block_out, block_in = np.diff(outliers, prepend=0), np.diff(inliers, prepend=0)
    twice_u = int((block_out * (2 * (n_in - inliers) + block_in)).sum())
    return twice_u / (2 * n_out * n_in)


def _pr_curve(outliers: np.ndarray, inliers: np.ndarray, metric: str):
    """Precision and recall at each block end, in sweep order."""
    if outliers[-1] == 0:
        raise ValueError(f"{metric} needs at least one outlier")
    return outliers / (outliers + inliers), outliers / outliers[-1]


def _aupr(outliers: np.ndarray, inliers: np.ndarray) -> float:
    precision, recall = _pr_curve(outliers, inliers, "aupr")
    # Sequential accumulation keeps results reproducible term for term.
    area = 0.0
    prev_recall = 0.0
    for p, r in zip(precision.tolist(), recall.tolist()):
        area += (r - prev_recall) * p
        prev_recall = r
    return area


def _precision_at(outliers: np.ndarray, inliers: np.ndarray, target_recall: float) -> float:
    precision, recall = _pr_curve(outliers, inliers, "precision_at_recall")
    if not 0.0 < target_recall <= 1.0:
        raise ValueError(f"target_recall must be in (0, 1], got {target_recall}")
    return float(precision[recall >= target_recall].max())


def auroc(scores, is_outlier) -> float:
    """Probability that a random outlier outscores a random inlier, ties
    counted half (the Mann-Whitney statistic)."""
    return _auroc(*_ranked(scores, is_outlier))


def aupr(scores, is_outlier) -> float:
    """Area under the precision-recall curve by step interpolation
    (average precision). Outliers are the positive class."""
    return _aupr(*_ranked(scores, is_outlier))


def precision_at_recall(scores, is_outlier, target_recall: float = 0.9) -> float:
    """Best precision among operating points reaching the target recall."""
    return _precision_at(*_ranked(scores, is_outlier), target_recall)


def score_episode(
    truth: np.ndarray, outlier_scores: np.ndarray, closed_pred: np.ndarray | None = None
) -> EpisodeReport:
    """Bundle the four metrics for one episode's predictions, ranking the
    outlier scores once."""
    truth = np.asarray(truth, dtype=np.int64)
    is_out = truth == OUTLIER
    acc = None
    if closed_pred is not None:
        inlier = ~is_out
        if not inlier.any():
            raise ValueError("accuracy needs at least one inlier query")
        closed_pred = np.asarray(closed_pred, dtype=np.int64)
        acc = float((closed_pred[inlier] == truth[inlier]).mean())
    counts = _ranked(outlier_scores, is_out)
    return EpisodeReport(
        acc=acc,
        auroc=_auroc(*counts),
        aupr=_aupr(*counts),
        prec_at_90=_precision_at(*counts, 0.9),
    )


def score_sheet(sheet: PredictionSheet, truth: np.ndarray) -> EpisodeReport:
    return score_episode(truth, sheet.outlier_score, sheet.closed_pred)


def aggregate(
    reports: Sequence[EpisodeReport], method: str = "", config: dict | None = None
) -> RunReport:
    """Per-metric mean, standard deviation, and normal-approximation 95%
    half-width (1.96 * sd / sqrt(n)) over an episode stream."""
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    n = len(reports)
    summaries: dict[str, MetricSummary | None] = {}
    for name in METRIC_NAMES:
        values = [getattr(r, name) for r in reports]
        defined = [v for v in values if v is not None]
        if not defined:
            summaries[name] = None
            continue
        if len(defined) != n:
            raise ValueError(f"metric {name} defined for only {len(defined)}/{n} episodes")
        arr = np.array(defined, dtype=np.float64)
        mean = float(arr.mean())
        std = float(arr.std(ddof=1)) if n > 1 else 0.0
        summaries[name] = MetricSummary(
            mean=mean, std=std, ci95_half_width=1.96 * std / math.sqrt(n)
        )
    return RunReport(
        method=method, n_episodes=n, metrics=summaries, config=dict(config or {})
    )
