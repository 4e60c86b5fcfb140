"""Episode scoring: closed-set accuracy, AUROC, AUPR, precision at fixed
recall, and aggregation across episodes.

Outliers are the positive class everywhere, so a random detector scores
0.5 AUROC and an AUPR equal to the outlier proportion. Ties are handled
explicitly: AUROC uses midranks, the precision-recall sweeps process equal
scores as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def to_json_dict(self) -> dict:
        summaries = {
            name: None
            if summary is None
            else {
                "mean": summary.mean,
                "std": summary.std,
                "ci95_half_width": summary.ci95_half_width,
            }
            for name, summary in self.metrics.items()
        }
        return {
            "method": self.method,
            "n_episodes": self.n_episodes,
            "metrics": summaries,
            "config": self.config,
        }


METRIC_NAMES = ("acc", "auroc", "aupr", "prec_at_90")


def _check_scores(scores, is_outlier) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    is_outlier = np.asarray(is_outlier, dtype=bool)
    if scores.ndim != 1 or scores.shape != is_outlier.shape:
        raise ValueError("scores and is_outlier must be 1-D arrays of equal length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores, is_outlier


def auroc(scores, is_outlier) -> float:
    """Probability that a random outlier outscores a random inlier, ties
    counted half (midrank form of the Mann-Whitney statistic)."""
    scores, is_outlier = _check_scores(scores, is_outlier)
    n_out = int(is_outlier.sum())
    n_in = scores.size - n_out
    if n_out == 0 or n_in == 0:
        raise ValueError("auroc needs at least one inlier and one outlier")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    group_end = np.cumsum(counts)
    midranks = group_end - (counts - 1) / 2.0
    ranks = midranks[inverse]
    u = ranks[is_outlier].sum() - n_out * (n_out + 1) / 2.0
    return float(u / (n_out * n_in))


def _pr_sweep(scores: np.ndarray, is_outlier: np.ndarray):
    """Precision and recall after each distinct-score prefix, descending.

    Equal scores enter as one block, so a threshold can never split a tie
    group. Yields (precision, recall) pairs in sweep order.
    """
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = is_outlier[order]
    n = scores.size
    block_ends = np.flatnonzero(sorted_scores[:-1] != sorted_scores[1:])
    block_ends = np.concatenate([block_ends, [n - 1]])
    tp = np.cumsum(sorted_pos)[block_ends].astype(np.float64)
    predicted = (block_ends + 1).astype(np.float64)
    total_pos = float(is_outlier.sum())
    precision = tp / predicted
    recall = tp / total_pos
    return precision, recall


def aupr(scores, is_outlier) -> float:
    """Area under the precision-recall curve by step interpolation
    (average precision). Outliers are the positive class."""
    scores, is_outlier = _check_scores(scores, is_outlier)
    if not is_outlier.any():
        raise ValueError("aupr needs at least one outlier")
    precision, recall = _pr_sweep(scores, is_outlier)
    # Sequential accumulation keeps results reproducible term for term.
    area = 0.0
    prev_recall = 0.0
    for p, r in zip(precision.tolist(), recall.tolist()):
        area += (r - prev_recall) * p
        prev_recall = r
    return area


def precision_at_recall(scores, is_outlier, target_recall: float = 0.9) -> float:
    """Best precision among operating points reaching the target recall."""
    scores, is_outlier = _check_scores(scores, is_outlier)
    if not is_outlier.any():
        raise ValueError("precision_at_recall needs at least one outlier")
    if not 0.0 < target_recall <= 1.0:
        raise ValueError(f"target_recall must be in (0, 1], got {target_recall}")
    precision, recall = _pr_sweep(scores, is_outlier)
    qualifying = precision[recall >= target_recall]
    return float(qualifying.max())


def score_episode(
    truth: np.ndarray, outlier_scores: np.ndarray, closed_pred: np.ndarray | None = None
) -> EpisodeReport:
    """Bundle the four metrics for one episode's predictions."""
    truth = np.asarray(truth, dtype=np.int64)
    is_out = truth == OUTLIER
    acc = None
    if closed_pred is not None:
        inlier = ~is_out
        if not inlier.any():
            raise ValueError("accuracy needs at least one inlier query")
        closed_pred = np.asarray(closed_pred, dtype=np.int64)
        acc = float((closed_pred[inlier] == truth[inlier]).mean())
    return EpisodeReport(
        acc=acc,
        auroc=auroc(outlier_scores, is_out),
        aupr=aupr(outlier_scores, is_out),
        prec_at_90=precision_at_recall(outlier_scores, is_out, 0.9),
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
