"""Per-query prediction container shared by all classifiers and chunks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PredictionSheet:
    """Row-stochastic probabilities, and each query's derived prediction and score.

    ``probs`` is (n, C), or (E, n, C) for a chunk, with ``n_closed`` columns
    for closed-set-only classifiers or ``n_closed + 1`` when an explicit
    outlier column exists. The other two fields are derived from its rows:
    ``closed_pred`` is the argmax over the first ``n_closed`` columns, and
    ``outlier_score`` is the outlier column's probability when there is one,
    otherwise the negative row maximum.
    """

    probs: np.ndarray
    n_closed: int
    outlier_score: np.ndarray = field(init=False)
    closed_pred: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim not in (2, 3) or probs.shape[-1] not in (self.n_closed, self.n_closed + 1):
            raise ValueError(
                f"probs shape {probs.shape} incompatible with n_closed={self.n_closed}"
            )
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        row_sums = probs.sum(axis=-1).ravel()
        if np.any(np.abs(row_sums - 1.0) > _ROW_SUM_TOL):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(
                f"probability row {worst} sums to {row_sums[worst]!r}, not 1"
            )
        if probs.shape[-1] > self.n_closed:
            outlier_score = probs[..., self.n_closed]
        else:
            outlier_score = -probs.max(axis=-1)
        object.__setattr__(self, "outlier_score", outlier_score)
        object.__setattr__(self, "closed_pred", probs[..., : self.n_closed].argmax(axis=-1))

    @property
    def n_queries(self) -> int:
        return self.probs.shape[-2]
