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


def diagnose(vectors, labels) -> DiagnosticReport:
    """MIF, variance ratio and per-class imposture factors of labeled
    vectors, in one pass over the classes.

    Each class's centroid is the float64 mean of its members. The squared
    distance of every row to it gives the class's within-class variance
    (its members' mean) and, as square roots, the distances whose
    comparison counts imposture: an external point ties a member at equal
    distance and does not count it as farther. Raises DataError for fewer
    than two classes or when the class centroids coincide.
    """
    vectors = np.asarray(vectors)
    labels = np.asarray(labels, dtype=np.int64)
    ids = np.unique(labels)
    if ids.size < 2:
        raise DataError(f"need at least 2 classes, got {ids.size}")
    diff = np.empty(vectors.shape)
    centroids, within, per_class = [], [], {}
    for cid in ids:
        member = labels == cid
        centroid = vectors[member].astype(np.float64).mean(axis=0)
        np.square(np.subtract(vectors, centroid, out=diff), out=diff)
        dist = np.add.reduce(diff, axis=1)
        centroids.append(centroid)
        within.append(dist[member].mean())
        np.sqrt(dist, out=dist)
        member_dist = np.sort(dist[member])
        # strictly-farther member count per external point, via binary search
        farther = member_dist.size - np.searchsorted(member_dist, dist[~member], side="right")
        per_class[int(cid)] = float((farther / member_dist.size).mean())
    centroids = np.stack(centroids)
    between = ((centroids - centroids.mean(axis=0)) ** 2).sum(axis=1).mean()
    if not between > 0:
        raise DataError("class centroids coincide; variance ratio undefined")
    return DiagnosticReport(
        mif=float(np.mean(list(per_class.values()))),
        rho=float(np.mean(within) / between),
        per_class_if=per_class,
    )


def split_diagnostics(fs: FeatureSet, split: str) -> DiagnosticReport:
    """``diagnose`` on one split's vectors."""
    rows = fs._split_rows(split)
    if not rows.size:
        raise DataError(f"split {split!r} holds no vectors")
    return diagnose(fs.vectors[rows], fs.labels[rows])
