"""Dataset-level difficulty measures on embedding spaces.

The imposture factor of a point against a foreign class is the fraction of
that class's members lying strictly farther from their own centroid than
the point does; averaging over external points and then classes gives the
mean imposture factor (MIF), a measure of how perturbed the class clusters
are. Zero means every class member sits closer to its centroid than any
outsider. The variance ratio complements it: average within-class spread
over the spread of the class centroids (population covariances, trace
form), so compact well-separated classes score near zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .feature_store import FeatureSet


@dataclass(frozen=True)
class DiagnosticReport:
    mif: float
    rho: float
    per_class_if: dict[int, float]


def imposture_factor(z, class_vectors, centroid) -> float:
    """Fraction of the class members strictly farther from ``centroid`` than
    ``z`` is; ties count as not farther."""
    class_vectors = np.asarray(class_vectors, dtype=np.float64)
    if class_vectors.ndim != 2 or class_vectors.shape[0] == 0:
        raise DataError("class_vectors must be a nonempty (N, D) array")
    z = np.asarray(z, dtype=np.float64)
    centroid = np.asarray(centroid, dtype=np.float64)
    member_dist = np.linalg.norm(class_vectors - centroid, axis=1)
    z_dist = np.linalg.norm(z - centroid)
    return float((member_dist > z_dist).mean())


def _class_ids(labels: np.ndarray) -> np.ndarray:
    ids = np.unique(labels)
    if ids.size < 2:
        raise DataError(f"need at least 2 classes, got {ids.size}")
    return ids


def per_class_imposture(vectors, labels) -> dict[int, float]:
    """Mean imposture factor of all external instances against each class."""
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    out: dict[int, float] = {}
    for cid in _class_ids(labels):
        member_mask = labels == cid
        members = vectors[member_mask]
        centroid = members.mean(axis=0)
        member_dist = np.sort(np.linalg.norm(members - centroid, axis=1))
        external_dist = np.linalg.norm(vectors[~member_mask] - centroid, axis=1)
        # strictly-farther member count per external point, via binary search
        farther = member_dist.size - np.searchsorted(
            member_dist, external_dist, side="right"
        )
        out[int(cid)] = float((farther / member_dist.size).mean())
    return out


def mean_imposture_factor(vectors, labels) -> float:
    """Average of the per-class external imposture factors."""
    per_class = per_class_imposture(vectors, labels)
    return float(np.mean(list(per_class.values())))


def variance_ratio(vectors, labels) -> float:
    """Mean within-class variance (trace) over the variance of the class
    centroids (trace). Raises if the centroids coincide."""
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    ids = _class_ids(labels)
    centroids = []
    within = []
    for cid in ids:
        members = vectors[labels == cid]
        centroid = members.mean(axis=0)
        centroids.append(centroid)
        within.append(((members - centroid) ** 2).sum(axis=1).mean())
    centroids = np.stack(centroids)
    grand = centroids.mean(axis=0)
    between = ((centroids - grand) ** 2).sum(axis=1).mean()
    if between < 1e-30:
        raise DataError("class centroids coincide; variance ratio undefined")
    return float(np.mean(within) / between)


def _split_arrays(fs: FeatureSet, split: str) -> tuple[np.ndarray, np.ndarray]:
    rows = fs._split_rows(split)
    if not rows.size:
        raise DataError(f"split {split!r} holds no vectors")
    return fs.vectors[rows].astype(np.float64), fs.labels[rows]


def split_diagnostics(fs: FeatureSet, split: str) -> DiagnosticReport:
    """MIF, variance ratio, and the per-class table for one split."""
    vectors, labels = _split_arrays(fs, split)
    per_class = per_class_imposture(vectors, labels)
    return DiagnosticReport(
        mif=float(np.mean(list(per_class.values()))),
        rho=variance_ratio(vectors, labels),
        per_class_if=per_class,
    )
