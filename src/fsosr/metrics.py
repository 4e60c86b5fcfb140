"""Episode scoring: closed-set accuracy, AUROC, AUPR, precision at 90%
recall, and aggregation across episodes.

Outliers are the positive class everywhere, so a random detector scores
0.5 AUROC and an AUPR equal to the outlier proportion. Ties are handled
by one ranking of the scores: equal scores form one block, which no
threshold splits, and AUROC counts an outlier tied with an inlier as half a
pair. All three detection metrics read the cumulative counts at the block
ends.

``score_chunk`` scores E episodes from (E, n) arrays: it ranks every row
with one argsort and reads all rows' block ends at once, and
``score_episode`` is its E=1 case. The bits match a loop over the episodes
because every count is an integer, AUROC divides one integer pair count per
row, Prec@90 takes a maximum, and AUPR adds each row's terms one after
another in sweep order, with exact zeros between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .episodes import OUTLIER


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


class _Ranked(NamedTuple):
    """E rows of n scores, each ranked once, descending, and read at the end
    of each block of equal scores. The block ends of all rows are listed in
    row order: ``flat`` is each one's position in the (E, n) ranking,
    ``rows`` its row, ``seen`` the row's rank count at it and ``out`` the
    row's outlier count at it; ``prev_seen``/``prev_out`` are those at the
    row's previous block end (0 before a first block), and ``starts`` indexes
    each row's first block end."""

    n: int
    n_out: np.ndarray
    flat: np.ndarray
    rows: np.ndarray
    seen: np.ndarray
    out: np.ndarray
    prev_seen: np.ndarray
    prev_out: np.ndarray
    starts: np.ndarray

    @property
    def n_in(self) -> np.ndarray:
        return self.n - self.n_out


def _ranked(scores: np.ndarray, is_outlier: np.ndarray) -> _Ranked:
    """Validate the (E, n) scores and rank every row with one argsort. A
    threshold never splits a block, so every metric reads the block ends,
    and the counts there do not depend on the order within a block."""
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    n_rows, n = scores.shape
    order = np.argsort(-scores, axis=1)
    order += np.arange(n_rows)[:, None] * n
    order = order.ravel()
    ranked = scores.ravel()[order].reshape(n_rows, n)
    cum_out = np.cumsum(is_outlier.ravel()[order].reshape(n_rows, n), axis=1)
    is_end = np.ones((n_rows, n), dtype=bool)
    is_end[:, :-1] = ranked[:, 1:] != ranked[:, :-1]
    flat = np.flatnonzero(is_end)
    rows = flat // n
    seen = flat - rows * n + 1
    out = cum_out.ravel()[flat]
    first = np.ones(flat.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    prev_seen = np.concatenate(([0], seen[:-1]))
    prev_out = np.concatenate(([0], out[:-1]))
    prev_seen[first] = prev_out[first] = 0
    return _Ranked(n, is_outlier.sum(axis=1), flat, rows, seen, out, prev_seen, prev_out,
                   np.flatnonzero(first))


def _auroc(r: _Ranked) -> np.ndarray:
    n_out, n_in = r.n_out, r.n_in
    if not (n_out.all() and n_in.all()):
        raise ValueError("auroc needs at least one inlier and one outlier")
    # Twice each row's outlier-above-inlier pair count, ties counted half:
    # an integer, so the result is exact.
    inliers, prev_inliers = r.seen - r.out, r.prev_seen - r.prev_out
    pairs = (r.out - r.prev_out) * (2 * (n_in[r.rows] - inliers) + inliers - prev_inliers)
    return np.add.reduceat(pairs, r.starts) / (2 * n_out * n_in)


def _pr_curve(r: _Ranked):
    """Precision, recall and the recall at the previous block end, at each
    block end. Every row has an outlier: ``score_chunk`` runs ``_auroc``
    first, which refuses a row without one."""
    n_out = r.n_out[r.rows]
    return r.out / r.seen, r.out / n_out, r.prev_out / n_out


def _aupr(r: _Ranked) -> np.ndarray:
    precision, recall, prev_recall = _pr_curve(r)
    # Each row's terms in sweep order, exact zeros between them, summed one
    # after another: the same sequential sum, term for term, as a loop.
    terms = np.zeros((r.n_out.size, r.n))
    terms.ravel()[r.flat] = (recall - prev_recall) * precision
    return np.add.accumulate(terms, axis=1)[:, -1]


def _prec_at_90(r: _Ranked) -> np.ndarray:
    """The best precision among the block ends that reach 0.9 recall."""
    precision, recall, _ = _pr_curve(r)
    return np.maximum.reduceat(np.where(recall >= 0.9, precision, -1.0), r.starts)


def score_chunk(
    truth: np.ndarray, outlier_scores: np.ndarray, closed_pred: np.ndarray | None = None
) -> list[EpisodeReport]:
    """The four metrics of E episodes from (E, n) arrays, one report per row,
    ranking every row once. A row that cannot be scored raises the error
    ``score_episode`` raises for it."""
    truth = np.asarray(truth, dtype=np.int64)
    scores = np.asarray(outlier_scores, dtype=np.float64)
    if truth.ndim != 2 or scores.shape != truth.shape or (
        closed_pred is not None and np.shape(closed_pred) != truth.shape
    ):
        raise ValueError("truth, outlier_scores and closed_pred must be 2-D arrays of equal shape")
    is_out = truth == OUTLIER
    acc = [None] * truth.shape[0]
    if closed_pred is not None:
        inliers = truth.shape[1] - is_out.sum(axis=1)
        if not inliers.all():
            raise ValueError("accuracy needs at least one inlier query")
        hits = ((np.asarray(closed_pred, dtype=np.int64) == truth) & ~is_out).sum(axis=1)
        acc = (hits / inliers).tolist()
    r = _ranked(scores, is_out)
    return [
        EpisodeReport(acc=a, auroc=u, aupr=p, prec_at_90=q)
        for a, u, p, q in zip(
            acc, _auroc(r).tolist(), _aupr(r).tolist(), _prec_at_90(r).tolist()
        )
    ]


def score_episode(
    truth: np.ndarray, outlier_scores: np.ndarray, closed_pred: np.ndarray | None = None
) -> EpisodeReport:
    """Bundle the four metrics for one episode's predictions: the E=1 case
    of ``score_chunk``."""
    truth = np.asarray(truth, dtype=np.int64)
    scores = np.asarray(outlier_scores, dtype=np.float64)
    if scores.ndim != 1 or scores.shape != truth.shape:
        raise ValueError("truth and outlier_scores must be 1-D arrays of equal length")
    return score_chunk(
        truth[None], scores[None], None if closed_pred is None else np.asarray(closed_pred)[None]
    )[0]


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
