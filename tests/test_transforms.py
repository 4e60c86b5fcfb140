"""Center-normalize transform and centering policies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsosr import (
    CenteringPolicy,
    ConfigError,
    DegenerateFeatureError,
    center_normalize,
    task_mean,
)
from fsosr.transforms import normalize_chunk

from conftest import make_episode, properties


class TestCenterNormalize:
    def test_simple_case(self):
        out = center_normalize(np.array([3.0, 4.0]), np.zeros(2))
        assert np.allclose(out, [0.6, 0.8])

    def test_unit_vector_unchanged(self):
        z = np.array([1.0, 0.0, 0.0])
        assert np.allclose(center_normalize(z, np.zeros(3)), z, atol=1e-15)

    def test_degenerate_raises(self):
        z = np.array([1.0, 2.0])
        with pytest.raises(DegenerateFeatureError):
            center_normalize(z, z)

    def test_degenerate_in_batch_names_row(self):
        batch = np.array([[1.0, 0.0], [0.5, 0.5], [3.0, 1.0]])
        with pytest.raises(DegenerateFeatureError, match="vector 1"):
            center_normalize(batch, np.array([0.5, 0.5]))

    def test_unit_norm_property(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 10))
            z = rng.normal(size=dim) * 10
            mu = rng.normal(size=dim)
            out = center_normalize(z, mu)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-9

    def test_translation_covariance(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 8))
            z = rng.normal(size=dim)
            mu = rng.normal(size=dim)
            t = rng.normal(size=dim) * 5
            a = center_normalize(z, mu)
            b = center_normalize(z + t, mu + t)
            assert np.allclose(a, b, atol=1e-6)

    def test_batch_matches_single(self, rng):
        batch = rng.normal(size=(7, 3))
        mu = rng.normal(size=3)
        out = center_normalize(batch, mu)
        for i in range(7):
            assert np.allclose(out[i], center_normalize(batch[i], mu), atol=1e-15)


class TestTaskMean:
    def test_symmetric_case(self):
        episode = make_episode(np.random.default_rng(0), n_way=2, n_shot=1,
                               n_query_per_class=1, n_open_classes=1, dim=2)
        object.__setattr__(episode, "support_vectors", np.array([[1.0, 0.0]]))
        object.__setattr__(
            episode, "query_vectors", np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        )
        assert np.allclose(task_mean(episode), [0.0, 0.0], atol=1e-15)

    def test_midpoint(self, rng):
        episode = make_episode(rng, n_way=2, n_shot=1, n_query_per_class=1,
                               n_open_classes=1, dim=3)
        object.__setattr__(episode, "support_vectors", np.array([[1.0, 1.0, 1.0]]))
        object.__setattr__(episode, "query_vectors", np.array([[3.0, 5.0, 7.0]]))
        assert np.allclose(task_mean(episode), [2.0, 3.0, 4.0])

    def test_matches_brute_force(self, rng):
        episode = make_episode(rng)
        stacked = np.concatenate([episode.support_vectors, episode.query_vectors])
        expected = np.zeros(episode.dim)
        for row in stacked:
            expected += row
        expected /= len(stacked)
        assert np.allclose(task_mean(episode), expected, rtol=1e-6)


class TestNormalizeChunk:
    def test_the_view_carries_the_stacked_episode_fields(self, rng):
        episodes = [make_episode(rng) for _ in range(4)]
        mu = [task_mean(episode) for episode in episodes]
        view = normalize_chunk(episodes, mu)
        assert np.array_equal(view.mu, np.stack(mu))
        for name, field in (("raw_support", "support_vectors"),
                            ("support_labels", "support_labels"),
                            ("query_truth", "query_truth")):
            stacked = np.stack([getattr(episode, field) for episode in episodes])
            assert np.array_equal(getattr(view, name), stacked), name
            assert getattr(view, name).dtype == stacked.dtype, name
        for e, episode in enumerate(episodes):
            support = center_normalize(episode.support_vectors, mu[e])
            assert np.array_equal(view.support[e], support)
            assert np.array_equal(view.query[e], center_normalize(episode.query_vectors, mu[e]))


class TestCenteringPolicy:
    def test_none_equals_base_with_zero_mu(self, rng):
        episode = make_episode(rng)
        mu_none = CenteringPolicy("none").resolve(episode)
        mu_zero = CenteringPolicy("base", np.zeros(episode.dim)).resolve(episode)
        z = rng.normal(size=episode.dim)
        assert np.array_equal(center_normalize(z, mu_none), center_normalize(z, mu_zero))

    def test_task_policy_uses_episode(self, rng):
        episode = make_episode(rng)
        assert np.allclose(CenteringPolicy("task").resolve(episode), task_mean(episode))

    def test_base_requires_mu(self):
        with pytest.raises(ConfigError, match="precomputed"):
            CenteringPolicy("base")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown centering"):
            CenteringPolicy("global")

    def test_non_finite_mu_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            CenteringPolicy("base", np.array([1.0, np.inf]))


FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def points(draw) -> tuple[np.ndarray, np.ndarray]:
    """A centering vector and either a single D-vector or an (N, D) batch."""
    dim = draw(st.integers(1, 8))
    mu = np.array(draw(st.lists(FINITE, min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        return np.array(draw(st.lists(FINITE, min_size=dim, max_size=dim))), mu
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(FINITE, min_size=dim, max_size=dim), min_size=n, max_size=n))
    return np.array(rows), mu


@st.composite
def rows_near_mu(draw) -> tuple[np.ndarray, np.ndarray, int]:
    """A batch in which some rows lie within 1e-12 of ``mu`` and the others
    at least 1e-3 from it in every component, and the first near row."""
    dim = draw(st.integers(1, 8))
    mu = np.array(draw(st.lists(st.floats(-100, 100), min_size=dim, max_size=dim)))
    near = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    near[draw(st.integers(0, len(near) - 1))] = True
    tiny = st.floats(-1e-14, 1e-14)
    apart = st.floats(1e-3, 10) | st.floats(-10, -1e-3)
    z = np.array([
        mu + np.array(draw(st.lists(tiny if row else apart, min_size=dim, max_size=dim)))
        for row in near
    ])
    return z, mu, near.index(True)


class TestProperties:
    @properties
    @given(points())
    def test_rows_have_unit_norm_and_equal_the_shift_over_its_norm(self, drawn):
        z, mu = drawn
        shifted = z - mu
        norm = np.linalg.norm(shifted, axis=-1, keepdims=True)
        if np.any(norm < 1e-12):
            with pytest.raises(DegenerateFeatureError):
                center_normalize(z, mu)
            return
        out = center_normalize(z, mu)
        assert np.array_equal(out, shifted / norm)
        assert np.all(np.abs(np.linalg.norm(out, axis=-1) - 1.0) <= 1e-12)

    @properties
    @given(rows_near_mu())
    def test_a_row_at_the_centering_point_is_named(self, drawn):
        z, mu, first = drawn
        with pytest.raises(DegenerateFeatureError, match=rf"^vector {first} coincides"):
            center_normalize(z, mu)
        with pytest.raises(DegenerateFeatureError, match="^vector coincides"):
            center_normalize(z[first], mu)

    @properties
    @given(st.integers(0, 2**32 - 1), st.lists(FINITE, min_size=5, max_size=5))
    def test_resolve_returns_zeros_the_given_mean_or_the_task_mean(self, seed, base):
        episode = make_episode(np.random.default_rng(seed), dim=5)
        none = CenteringPolicy("none").resolve(episode)
        assert none.dtype == np.float64 and np.array_equal(none, np.zeros(5))
        given_mean = CenteringPolicy("base", np.array(base)).resolve(episode)
        assert given_mean.dtype == np.float64 and np.array_equal(given_mean, base)
        assert np.array_equal(CenteringPolicy("task").resolve(episode), task_mean(episode))
