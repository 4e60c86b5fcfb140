"""Imposture-factor measures and the variance ratio."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsosr import DataError, FeatureSet, diagnose, generate, split_diagnostics

from conftest import QUICKSTART, detector_report, make_feature_set, properties, traced_peak

def reference_per_class_imposture(vectors, labels) -> dict[int, float]:
    """The imposture pass ``diagnose`` replaced, as it was: a float64 copy,
    and per class its members and its externals gathered and measured."""
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    out: dict[int, float] = {}
    for cid in np.unique(labels):
        member_mask = labels == cid
        members = vectors[member_mask]
        centroid = members.mean(axis=0)
        member_dist = np.sort(np.linalg.norm(members - centroid, axis=1))
        external_dist = np.linalg.norm(vectors[~member_mask] - centroid, axis=1)
        farther = member_dist.size - np.searchsorted(
            member_dist, external_dist, side="right"
        )
        out[int(cid)] = float((farther / member_dist.size).mean())
    return out


def reference_variance_ratio(vectors, labels) -> float:
    """The variance-ratio pass ``diagnose`` replaced, as it was."""
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    centroids = []
    within = []
    for cid in np.unique(labels):
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


def oracle_mif(vectors, labels):
    """Exhaustive double-loop over classes, externals, and members."""
    classes = sorted(set(int(l) for l in labels))
    total = 0.0
    for k in classes:
        members = [v for v, l in zip(vectors, labels) if l == k]
        externals = [v for v, l in zip(vectors, labels) if l != k]
        centroid = [sum(col) / len(members) for col in zip(*members)]

        def dist(p):
            return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, centroid)))

        member_d = [dist(m) for m in members]
        acc = 0.0
        for z in externals:
            dz = dist(z)
            acc += sum(1 for d in member_d if d > dz) / len(member_d)
        total += acc / len(externals)
    return total / len(classes)


def centroid_detector_auroc(vectors, labels):
    """Mean one-vs-rest AUROC of scoring every point by its distance to the
    probed class's centroid; externals are the positives."""
    classes = sorted(set(int(l) for l in labels))
    values = []
    for k in classes:
        centroid = vectors[labels == k].mean(axis=0)
        scores = np.linalg.norm(vectors - centroid, axis=1)
        values.append(detector_report(scores, labels != k).auroc)
    return float(np.mean(values))


@st.composite
def integer_stores(draw):
    """Integer coordinates in a small range, so that distances tie exactly,
    with single-member classes and classes interleaved in row order."""
    dim = draw(st.sampled_from((1, 2, 16)))
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=5))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    order = draw(st.permutations(range(labels.size)))
    coords = draw(st.lists(st.integers(-3, 3), min_size=labels.size * dim,
                           max_size=labels.size * dim))
    vectors = np.array(coords, dtype=np.float32).reshape(labels.size, dim)
    return vectors, labels[list(order)]


class TestDiagnose:
    @properties
    @given(integer_stores())
    def test_equals_the_two_class_passes_it_replaced(self, store):
        vectors, labels = store
        per_class = reference_per_class_imposture(vectors, labels)
        try:
            rho = reference_variance_ratio(vectors, labels)
        except DataError:
            with pytest.raises(DataError, match="centroids coincide"):
                diagnose(vectors, labels)
            return
        report = diagnose(vectors, labels)
        assert report.per_class_if == per_class
        assert report.mif == float(np.mean(list(per_class.values())))
        assert report.rho == rho

    @pytest.mark.parametrize("k", [-60, 0, 20])
    def test_power_of_two_scaling_is_exact(self, k):
        fs = generate(QUICKSTART)
        scaled = dataclasses.replace(fs, vectors=np.ldexp(fs.vectors, k))
        assert split_diagnostics(scaled, "test") == split_diagnostics(fs, "test")


class TestImpostureFactor:
    """Class 1 holds the one external point ``z`` of class 0."""

    @staticmethod
    def factor(members, z) -> float:
        vectors = np.concatenate([members, [z]])
        labels = np.array([0] * len(members) + [1])
        return diagnose(vectors, labels).per_class_if[0]

    def test_farther_than_all_members(self, rng):
        members = rng.normal(size=(10, 3))
        assert self.factor(members, members.mean(axis=0) + 100.0) == 0.0

    def test_closer_than_all_members(self, rng):
        # not at the centroid itself, where the variance ratio is undefined
        members = rng.normal(size=(10, 3)) + 5.0
        assert self.factor(members, members.mean(axis=0) + 1e-6) == 1.0

    def test_ties_count_as_not_farther(self):
        # centroid (3, 0): members at distances 2, 1, 0, 1, 2; z at 1 ties two.
        # The tie counts half in the AUROC of a distance-to-centroid
        # detector, so the factor is not one minus that AUROC here.
        members = np.array([[1.0, 0], [2.0, 0], [3.0, 0], [4.0, 0], [5.0, 0]])
        z = np.array([4.0, 0.0])
        assert self.factor(members, z) == 0.4
        distances = np.linalg.norm(np.concatenate([members, [z]]) - [3.0, 0.0], axis=1)
        assert 1.0 - detector_report(distances, np.arange(6) == 5).auroc == pytest.approx(0.6)


class TestMeanImpostureFactor:
    def test_well_separated_clusters_score_zero(self, rng):
        a = rng.normal(size=(20, 4)) * 0.1
        b = rng.normal(size=(20, 4)) * 0.1 + 100.0
        vectors = np.concatenate([a, b])
        labels = np.array([0] * 20 + [1] * 20)
        assert diagnose(vectors, labels).mif == 0.0

    def test_point_at_foreign_centroid(self):
        # class 0 at origin (spread out), class 1 collapsed except one point
        vectors = np.array(
            [[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [5.0, 5.0], [5.0, 5.0],
             [0.0, 0.0]]
        )
        labels = np.array([0, 0, 0, 0, 1, 1, 1])
        got = diagnose(vectors, labels).mif
        assert np.isclose(got, oracle_mif(vectors, labels), atol=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        for _ in range(10):
            n_classes = int(rng.integers(2, 5))
            vectors = np.concatenate(
                [rng.normal(size=(12, 3)) + 3 * rng.normal(size=3) for _ in range(n_classes)]
            )
            labels = np.repeat(np.arange(n_classes), 12)
            got = diagnose(vectors, labels).mif
            assert np.isclose(got, oracle_mif(vectors, labels), atol=1e-12)

    def test_auroc_duality(self, rng):
        for _ in range(10):
            n_classes = int(rng.integers(3, 6))
            vectors = np.concatenate(
                [rng.normal(size=(20, 5)) + 2 * rng.normal(size=5) for _ in range(n_classes)]
            )
            labels = np.repeat(np.arange(n_classes), 20)
            mif = diagnose(vectors, labels).mif
            dual = 1.0 - centroid_detector_auroc(vectors, labels)
            assert abs(mif - dual) <= 1e-9

    def test_single_class_raises(self, rng):
        with pytest.raises(DataError, match="2 classes"):
            diagnose(rng.normal(size=(5, 2)), np.zeros(5, dtype=int))

    def test_rigid_motion_invariance(self, rng):
        vectors = np.concatenate([rng.normal(size=(15, 4)) + c for c in (0.0, 3.0, -2.0)])
        labels = np.repeat(np.arange(3), 15)
        base_value = diagnose(vectors, labels).mif
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        moved = vectors @ q.T + rng.normal(size=4) * 10
        assert np.isclose(diagnose(moved, labels).mif, base_value, atol=1e-12)

    def test_shrinking_classes_never_increases(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed)
            centroids = 4.0 * local.normal(size=(4, 4))
            vectors = np.concatenate(
                [centroids[c] + local.normal(size=(25, 4)) for c in range(4)]
            )
            labels = np.repeat(np.arange(4), 25)
            previous = diagnose(vectors, labels).mif
            for factor in (0.8, 0.5, 0.2):
                shrunk = vectors.copy()
                for c in range(4):
                    mask = labels == c
                    mu = vectors[mask].mean(axis=0)
                    shrunk[mask] = mu + factor * (vectors[mask] - mu)
                value = diagnose(shrunk, labels).mif
                assert value <= previous + 1e-12
                previous = value


class TestVarianceRatio:
    def test_collapsed_classes_zero(self):
        vectors = np.array([[0.0, 0], [0, 0], [5, 5], [5, 5]])
        labels = np.array([0, 0, 1, 1])
        assert diagnose(vectors, labels).rho == 0.0

    def test_hand_case(self):
        vectors = np.array([[-11.0], [-9.0], [9.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        assert np.isclose(diagnose(vectors, labels).rho, 0.01, atol=1e-15)

    def test_matches_covariance_oracle(self, rng):
        vectors = np.concatenate([rng.normal(size=(30, 3)) + 4 * rng.normal(size=3)
                                  for _ in range(4)])
        labels = np.repeat(np.arange(4), 30)
        got = diagnose(vectors, labels).rho
        within = []
        centroids = []
        for k in range(4):
            members = vectors[labels == k]
            mu = members.mean(axis=0)
            centroids.append(mu)
            within.append(float(np.trace(np.cov(members.T, bias=True))))
        between = float(np.trace(np.cov(np.stack(centroids).T, bias=True)))
        assert abs(got - np.mean(within) / between) <= 1e-8

    def test_scale_invariance(self, rng):
        vectors = np.concatenate([rng.normal(size=(10, 4)) + c for c in (0.0, 2.0, 5.0)])
        labels = np.repeat(np.arange(3), 10)
        a = diagnose(vectors, labels).rho
        b = diagnose(vectors * 37.5, labels).rho
        assert np.isclose(a, b, rtol=1e-12)

    def test_identical_centroids_raise(self):
        vectors = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(DataError, match="centroids"):
            diagnose(vectors, labels)


class TestSplitDiagnostics:
    def test_report_fields(self, rng):
        fs = make_feature_set(rng, n_classes=6, per_class=15, dim=4,
                              splits={0: "base", 1: "base", 2: "val",
                                      3: "test", 4: "test", 5: "test"})
        report = split_diagnostics(fs, "test")
        assert 0.0 <= report.mif <= 1.0
        assert report.rho >= 0.0
        assert set(report.per_class_if) == {3, 4, 5}

    def test_restricted_to_split(self, rng):
        fs = make_feature_set(rng, n_classes=6, per_class=15, dim=4,
                              splits={0: "base", 1: "base", 2: "base",
                                      3: "test", 4: "test", 5: "test"})
        report = split_diagnostics(fs, "test")
        mask = fs.labels >= 3
        assert report == diagnose(fs.vectors[mask].astype(np.float64), fs.labels[mask])

    def test_empty_split_raises(self, rng):
        fs = make_feature_set(rng, n_classes=4, per_class=10)
        with pytest.raises(DataError, match="base"):
            split_diagnostics(fs, "base")

    def test_peak_memory_is_bounded(self, rng):
        """The split's rows as float32 and one float64 difference from a
        centroid (12 B per split component), one class's members as float32
        and float64 (12 B per member component), and 64 B per split row of
        index, mask and distance arrays: not a float64 copy of the split,
        nor the externals' float64 gather and differences on top of it."""
        n, dim, n_classes = 20_000, 32, 8
        fs = FeatureSet(rng.normal(size=(n, dim)).astype(np.float32), np.arange(n) % n_classes,
                        tuple("abcdefgh"), {c: ("base", "test")[c % 2] for c in range(n_classes)})
        n_split = n // 2
        bound = 12 * n_split * dim + 12 * (n // n_classes) * dim + 64 * n_split
        split_diagnostics(fs, "test")  # a first call also traces numpy's lazy imports
        assert traced_peak(lambda: split_diagnostics(fs, "test")) < bound
