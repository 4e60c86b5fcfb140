"""Episode sampling: protocol arithmetic, determinism, disjointness, frequency."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from fsosr import OUTLIER, ConfigError, EpisodeSpec, FeatureSet, SamplingError, sample_episode
from fsosr.runner import episode_checksum

from conftest import make_feature_set


@pytest.fixture
def store(rng):
    return make_feature_set(rng, n_classes=14, per_class=25, dim=4)


class TestSpecValidation:
    def test_defaults(self):
        spec = EpisodeSpec()
        assert (spec.n_way, spec.n_shot, spec.n_query_per_class, spec.n_open_classes) == (
            5, 1, 15, 5,
        )

    @pytest.mark.parametrize(
        "kwargs", [dict(n_way=1), dict(n_shot=0), dict(n_query_per_class=0),
                   dict(n_open_classes=0), dict(seed=-1)]
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError) as caught:
            EpisodeSpec(**kwargs)
        assert isinstance(caught.value, ValueError)


class TestProtocol:
    def test_default_episode_shape(self, store):
        episode = sample_episode(store, EpisodeSpec(seed=3), 0)
        assert episode.support_vectors.shape == (5, 4)
        assert episode.query_vectors.shape == (150, 4)
        assert int(episode.is_outlier.sum()) == 75
        assert int((~episode.is_outlier).sum()) == 75

    def test_tiny_episode_arithmetic(self, store):
        spec = EpisodeSpec(n_way=2, n_shot=1, n_query_per_class=1, n_open_classes=1, seed=3)
        episode = sample_episode(store, spec, 0)
        assert episode.support_vectors.shape == (2, 4)
        assert episode.query_vectors.shape == (3, 4)
        assert sorted(episode.query_truth.tolist()) == [OUTLIER, 0, 1]

    def test_support_counts_per_class(self, store):
        spec = EpisodeSpec(n_way=4, n_shot=3, n_query_per_class=2, n_open_classes=2, seed=9)
        episode = sample_episode(store, spec, 5)
        for k in range(4):
            assert int((episode.support_labels == k).sum()) == 3
            assert int((episode.query_truth == k).sum()) == 2
        assert int(episode.is_outlier.sum()) == 4

    def test_closed_open_class_disjoint(self, store):
        for index in range(20):
            episode = sample_episode(store, EpisodeSpec(seed=11), index)
            closed = set(episode.closed_classes.tolist())
            opened = set(episode.open_classes.tolist())
            assert not closed & opened

    def test_no_duplicate_instances(self, store):
        # all drawn vectors are distinct rows of the store (draw without replacement)
        spec = EpisodeSpec(n_way=3, n_shot=4, n_query_per_class=6, n_open_classes=3, seed=2)
        episode = sample_episode(store, spec, 7)
        stacked = np.concatenate([episode.support_vectors, episode.query_vectors])
        assert len(np.unique(stacked, axis=0)) == len(stacked)


class TestDeterminism:
    def test_same_seed_index_bit_identical(self, store):
        a = sample_episode(store, EpisodeSpec(seed=77), 13)
        b = sample_episode(store, EpisodeSpec(seed=77), 13)
        assert np.array_equal(a.support_vectors, b.support_vectors)
        assert np.array_equal(a.query_vectors, b.query_vectors)
        assert np.array_equal(a.query_truth, b.query_truth)

    def test_different_index_differs(self, store):
        a = sample_episode(store, EpisodeSpec(seed=77), 0)
        b = sample_episode(store, EpisodeSpec(seed=77), 1)
        assert not np.array_equal(a.query_vectors, b.query_vectors)

    def test_different_seed_differs(self, store):
        a = sample_episode(store, EpisodeSpec(seed=77), 0)
        b = sample_episode(store, EpisodeSpec(seed=78), 0)
        assert not np.array_equal(a.query_vectors, b.query_vectors)

    def test_known_stream_frozen(self):
        # Pinned CRCs guard against silent RNG, protocol or pool-order
        # changes. The labels are shuffled, so each class's rows are spread
        # over the store and a change in the order of a class's pool
        # changes the rows drawn.
        rng = np.random.default_rng(20240913)
        labels = rng.permutation(np.repeat(np.arange(14), 25))
        vectors = rng.normal(size=(labels.size, 4)).astype(np.float32)
        store = FeatureSet(
            vectors, labels, tuple(f"c{i}" for i in range(14)), {c: "test" for c in range(14)}
        )
        pinned = {(123, 4): 0x2929FD1E, (7, 0): 0x03D33E5E, (2024, 31): 0x2547819A}
        for (seed, index), crc in pinned.items():
            episode = sample_episode(store, EpisodeSpec(seed=seed), index)
            assert episode_checksum(episode) == crc, (seed, index)

    def test_split_class_ids_are_sorted_once_and_the_stream_is_unchanged(self):
        # Three splits of unequal classes, some too small for the episode.
        # The stream CRCs were pinned while every call still re-sorted the
        # split's classes and filtered them one by one.
        rng = np.random.default_rng(20261018)
        sizes = rng.integers(12, 30, size=40)
        labels = rng.permutation(np.repeat(np.arange(40), sizes))
        vectors = rng.normal(size=(labels.size, 3)).astype(np.float32)
        splits = {c: ("test", "val", "base")[int(rng.integers(3))] for c in range(40)}
        store = FeatureSet(vectors, labels, tuple(f"c{i}" for i in range(40)), splits)
        spec = EpisodeSpec(n_way=4, n_shot=3, n_query_per_class=15, n_open_classes=3, seed=5)
        for split, pinned in (("test", 0x50DA6B37), ("val", 0xFFED9175)):
            ids = store.split_class_ids(split)
            assert ids is store.split_class_ids(split) and not ids.flags.writeable
            assert ids.tolist() == sorted(c for c, s in splits.items() if s == split)
            crc = 0
            for index in range(20):
                checksum = episode_checksum(sample_episode(store, spec, index, split=split))
                crc = zlib.crc32(checksum.to_bytes(4, "little"), crc)
            assert crc == pinned, split


class TestErrors:
    def test_insufficient_classes(self, rng):
        store = make_feature_set(rng, n_classes=6, per_class=25)
        with pytest.raises(SamplingError, match="needs 10"):
            sample_episode(store, EpisodeSpec(seed=1), 0)

    def test_insufficient_instances(self, rng):
        store = make_feature_set(rng, n_classes=12, per_class=10)
        with pytest.raises(SamplingError, match=">= 16"):
            sample_episode(store, EpisodeSpec(seed=1), 0)

    def test_negative_index(self, store):
        with pytest.raises(SamplingError, match="episode_index"):
            sample_episode(store, EpisodeSpec(seed=1), -1)

    def test_unknown_split(self, store):
        from fsosr import DataError

        with pytest.raises(DataError, match="unknown split"):
            sample_episode(store, EpisodeSpec(seed=1), 0, split="train")


class TestFrequency:
    def test_closed_set_assignment_near_uniform(self, rng):
        store = make_feature_set(rng, n_classes=12, per_class=4, dim=2)
        spec = EpisodeSpec(
            n_way=3, n_shot=1, n_query_per_class=1, n_open_classes=2, seed=2024
        )
        n_episodes = 10_000
        counts = np.zeros(12)
        for index in range(n_episodes):
            episode = sample_episode(store, spec, index)
            counts[episode.closed_classes] += 1
        p = spec.n_way / 12
        se = np.sqrt(p * (1 - p) / n_episodes)
        freq = counts / n_episodes
        assert np.all(np.abs(freq - p) <= 3 * se), freq
