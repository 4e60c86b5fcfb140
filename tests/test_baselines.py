"""Inductive baselines against brute-force oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsosr import ConfigError, baselines
from fsosr.baselines import knn_chunk, knn_outlier_score, simpleshot_classify
from fsosr.transforms import NormalizedChunk, center_normalize

from conftest import make_episode, properties, traced_peak


def oracle_simpleshot(episode, mu, temperature):
    """Scalar re-implementation: centroids, cosines, softmax by direct loops."""

    def psi(vec):
        shifted = [v - m for v, m in zip(vec, mu)]
        norm = math.sqrt(sum(x * x for x in shifted))
        return [x / norm for x in shifted]

    k_way = episode.n_way
    support = [psi(v) for v in episode.support_vectors]
    centroids = []
    for k in range(k_way):
        members = [s for s, lbl in zip(support, episode.support_labels) if lbl == k]
        mean = [sum(col) / len(members) for col in zip(*members)]
        norm = math.sqrt(sum(x * x for x in mean))
        centroids.append([x / norm for x in mean])
    probs = []
    for q in episode.query_vectors:
        u = psi(q)
        logit = [temperature * sum(a * b for a, b in zip(u, c)) for c in centroids]
        m = max(logit)
        e = [math.exp(l - m) for l in logit]
        z = sum(e)
        probs.append([x / z for x in e])
    return np.array(probs)


def oracle_knn(episode, mu, k):
    """Full pairwise-distance sort oracle."""

    def psi(vec):
        shifted = [v - m for v, m in zip(vec, mu)]
        norm = math.sqrt(sum(x * x for x in shifted))
        return [x / norm for x in shifted]

    support = [psi(v) for v in episode.support_vectors]
    scores = []
    for q in episode.query_vectors:
        u = psi(q)
        dists = sorted(
            math.sqrt(sum((a - b) ** 2 for a, b in zip(u, s))) for s in support
        )
        scores.append(sum(dists[:k]) / k)
    return np.array(scores)


def difference_formula_knn(view, k):
    """(E, n_query) k-NN scores from each episode's full (n_query, n_support, D)
    difference tensor: the formula ``knn_chunk`` must reproduce bit for bit."""
    scores = []
    for queries, support in zip(view.query, view.support):
        distances = np.sqrt(((queries[:, None, :] - support[None, :, :]) ** 2).sum(axis=-1))
        scores.append(np.sort(distances, axis=1)[:, :k].mean(axis=1))
    return np.array(scores)


def unit_rows(rng, *shape):
    x = rng.normal(size=shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def detector_view(support, query):
    """A chunk of the given normalized rows, centered at the origin; the
    detector reads only ``support`` and ``query``."""
    (n_episodes, n_support, dim), n_query = support.shape, query.shape[1]
    return NormalizedChunk(np.zeros((n_episodes, dim)), support, query, support,
                           np.zeros((n_episodes, n_support), np.int64),
                           np.zeros((n_episodes, n_query), np.int64))


@st.composite
def near_tie_views(draw):
    """Chunks with duplicated supports, supports one ulp apart and queries on
    a support: unit rows, or rows about a shared offset up to 1000 times
    their spread (where the Gram form cancels most), at scales 2^-20 to 2^20."""
    n_episodes = draw(st.sampled_from([1, 3]))
    dim = draw(st.sampled_from([1, 2, 16, 640]))
    n_support, n_query = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = unit_rows(rng, n_episodes, n_support, dim)
    query = unit_rows(rng, n_episodes, n_query, dim)
    offset = draw(st.sampled_from([0.0, 1.0, 1000.0])) * rng.normal(size=dim)
    scale = 2.0 ** draw(st.integers(-20, 20))
    support, query = (support + offset) * scale, (query + offset) * scale
    if n_support > 1 and draw(st.booleans()):
        support[:, 1] = support[:, 0]
    if n_support > 2 and draw(st.booleans()):
        support[:, 2] = np.nextafter(support[:, 0], np.inf)
    if draw(st.booleans()):
        query[:, 0] = support[:, n_support - 1]
    return detector_view(support, query)


class TestSimpleshot:
    def test_query_at_centroid_wins(self, rng):
        episode = make_episode(rng, n_way=2, n_shot=1, n_query_per_class=1,
                               n_open_classes=1, dim=4)
        mu = np.zeros(4)
        near = episode.support_vectors[0] * 1.0001
        mid = (episode.support_vectors[0] + episode.support_vectors[1]) / 2
        object.__setattr__(episode, "query_vectors", np.stack([near, mid]))
        sheet = simpleshot_classify(episode, "base", mu)
        assert sheet.closed_pred[0] == 0
        assert sheet.outlier_score[0] < sheet.outlier_score[1]

    def test_equidistant_gives_uniform(self):
        episode = make_episode(np.random.default_rng(5), n_way=2, n_shot=1,
                               n_query_per_class=1, n_open_classes=1, dim=2)
        object.__setattr__(episode, "support_vectors", np.array([[1.0, 0.0], [0.0, 1.0]]))
        object.__setattr__(episode, "support_labels", np.array([0, 1]))
        object.__setattr__(episode, "query_vectors", np.array([[1.0, 1.0]]))
        sheet = simpleshot_classify(episode, "none")
        assert np.allclose(sheet.probs[0], [0.5, 0.5], atol=1e-12)
        assert np.isclose(sheet.outlier_score[0], -0.5)

    def test_matches_oracle(self, rng):
        for trial in range(10):
            episode = make_episode(rng, n_way=3, n_shot=2, n_query_per_class=3,
                                   n_open_classes=2, dim=4)
            mu = rng.normal(size=4) * 0.3
            sheet = simpleshot_classify(episode, "base", mu, 7.5)
            expected = oracle_simpleshot(episode, mu, 7.5)
            assert np.allclose(sheet.probs, expected, atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        episode = make_episode(rng)
        sheet = simpleshot_classify(episode, "task")
        assert np.all(np.abs(sheet.probs.sum(axis=1) - 1) <= 1e-9)

    def test_argmax_temperature_invariant(self, rng):
        episode = make_episode(rng, n_way=4, n_shot=1, n_query_per_class=5)
        preds = [
            simpleshot_classify(episode, "task", temperature=t).closed_pred
            for t in (0.5, 10.0, 300.0)
        ]
        assert np.array_equal(preds[0], preds[1])
        assert np.array_equal(preds[1], preds[2])


class TestKnn:
    def test_query_on_support_scores_zero(self, rng):
        episode = make_episode(rng, n_way=2, n_shot=2, n_query_per_class=1,
                               n_open_classes=1, dim=3)
        object.__setattr__(
            episode, "query_vectors",
            np.concatenate([episode.support_vectors[:1], episode.query_vectors[1:]]),
        )
        scores = knn_outlier_score(episode, "none", k=1)
        assert scores[0] == 0.0

    def test_two_support_k2_averages(self):
        episode = make_episode(np.random.default_rng(1), n_way=2, n_shot=1,
                               n_query_per_class=1, n_open_classes=1, dim=2)
        object.__setattr__(episode, "support_vectors", np.array([[1.0, 0.0], [0.0, 1.0]]))
        object.__setattr__(episode, "query_vectors", np.array([[-1.0, 0.0]]))
        scores = knn_outlier_score(episode, "none", k=2)
        expected = (2.0 + math.sqrt(2.0)) / 2
        assert np.isclose(scores[0], expected, atol=1e-12)

    def test_matches_sort_oracle_exactly(self, rng):
        for trial in range(10):
            episode = make_episode(rng, n_way=3, n_shot=3, n_query_per_class=2,
                                   n_open_classes=2, dim=4)
            mu = rng.normal(size=4) * 0.2
            scores = knn_outlier_score(episode, "base", mu, k=3)
            expected = oracle_knn(episode, mu, 3)
            assert np.array_equal(scores, expected)

    @pytest.mark.parametrize("k", [1, 3, 25])
    def test_equals_the_squared_difference_formula_bit_for_bit(self, rng, k):
        episode = make_episode(rng, n_way=5, n_shot=5, n_query_per_class=15,
                               n_open_classes=5, dim=64)
        mu = rng.normal(size=64) * 0.2
        support = center_normalize(episode.support_vectors, mu)
        queries = center_normalize(episode.query_vectors, mu)
        distances = np.sqrt(((queries[:, None, :] - support[None, :, :]) ** 2).sum(axis=-1))
        expected = np.sort(distances, axis=1)[:, :k].mean(axis=1)
        assert np.array_equal(knn_outlier_score(episode, "base", mu, k=k), expected)

    @properties
    @given(near_tie_views())
    def test_screen_keeps_every_nearest_support_bit_for_bit(self, view):
        for k in range(1, view.support.shape[1] + 1):
            assert np.array_equal(knn_chunk(view, k), difference_formula_knn(view, k))

    @pytest.mark.parametrize("k", [1, 25])
    def test_peak_memory_is_at_most_the_difference_tensor_loop(self, rng, k):
        """One chunk at the ``large_store`` bench shape (E=16, 150 queries,
        25 supports, D=64). The bound is the traced peak of the per-episode
        difference-tensor loop this replaced, measured with numpy 2.4: two
        (150, 25, 64) float64 tensors, since each episode's was allocated
        before the previous one was freed."""
        view = detector_view(unit_rows(rng, 16, 25, 64), unit_rows(rng, 16, 150, 64))
        assert traced_peak(lambda: knn_chunk(view, k)) <= 4_019_480

    def test_k_out_of_range(self, rng):
        episode = make_episode(rng, n_way=2, n_shot=1)
        with pytest.raises(ValueError, match=r"k must be"):
            knn_outlier_score(episode, "none", k=3)

    def test_support_permutation_invariant(self, rng):
        episode = make_episode(rng, n_way=3, n_shot=3)
        perm = rng.permutation(9)
        shuffled = make_episode(rng, n_way=3, n_shot=3)
        object.__setattr__(shuffled, "support_vectors", episode.support_vectors[perm])
        object.__setattr__(shuffled, "support_labels", episode.support_labels[perm])
        object.__setattr__(shuffled, "query_vectors", episode.query_vectors)
        a = knn_outlier_score(episode, "none", k=2)
        b = knn_outlier_score(shuffled, "none", k=2)
        assert np.allclose(a, b, atol=1e-12)

    def test_monotone_in_k(self, rng):
        episode = make_episode(rng, n_way=3, n_shot=4, n_query_per_class=3)
        previous = None
        for k in range(1, 13):
            scores = knn_outlier_score(episode, "task", k=k)
            if previous is not None:
                assert np.all(scores >= previous - 1e-12)
            previous = scores

    def test_outliers_score_higher_on_separated_clusters(self, rng):
        episode = make_episode(rng, n_way=4, n_shot=2, n_query_per_class=6,
                               n_open_classes=3, dim=8, spread=0.2, radius=4.0)
        scores = knn_outlier_score(episode, "task", k=1)
        inlier_mean = scores[~episode.is_outlier].mean()
        outlier_mean = scores[episode.is_outlier].mean()
        assert outlier_mean > inlier_mean


class TestConfig:
    def test_defaults(self):
        cfg = baselines.BaselineConfig()
        assert cfg.knn_k == 1 and cfg.temperature == 10.0 and cfg.centering == "base"

    def test_rejects_unknown_centering(self):
        with pytest.raises(ConfigError, match="unknown centering 'x'"):
            baselines.BaselineConfig(centering="x")

    @pytest.mark.parametrize("kwargs", [
        dict(knn_k=0), dict(temperature=0.0), dict(temperature=float("inf")),
        dict(temperature=float("nan")),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError) as caught:
            baselines.BaselineConfig(**kwargs)
        assert isinstance(caught.value, ValueError)
