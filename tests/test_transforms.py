"""Center-normalize transform and the centering that ``normalize_chunk`` picks."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fsosr import ConfigError, DegenerateFeatureError, DivergenceError, Episode, center_normalize
from fsosr.transforms import CENTERING_KINDS, normalize_chunk

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [np.full(3, 1e200), np.array([[1.0, 0.0], [1e200, 1e200]])])
    def test_a_length_that_overflows_is_a_divergence(self, z):
        # Each entry is finite, but the squared length is not: the row would
        # come out all zeros. numpy's overflow warning is silenced.
        with pytest.raises(DivergenceError, match="overflows"):
            center_normalize(z, np.zeros(z.shape[-1]))

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


def reference_mean(episode) -> np.ndarray:
    """The reference task mean: the episode's support and query rows pooled."""
    return np.concatenate([episode.support_vectors, episode.query_vectors]).mean(axis=0)


def chunk_mu(episode, centering: str = "task", base_mu=None) -> np.ndarray:
    """The centering vector ``normalize_chunk`` picks for ``episode`` alone."""
    return normalize_chunk([episode], centering, base_mu).mu[0]


def symmetric_episode() -> Episode:
    """An episode of four 2-D vectors symmetric about the origin, its task mean."""
    episode = make_episode(np.random.default_rng(0), n_way=2, n_shot=1,
                           n_query_per_class=1, n_open_classes=1, dim=2)
    object.__setattr__(episode, "support_vectors", np.array([[1.0, 0.0]]))
    object.__setattr__(
        episode, "query_vectors", np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    )
    return episode


def midpoint_episode(rng) -> Episode:
    """One support and one query vector, their mean the midpoint (2, 3, 4)."""
    episode = make_episode(rng, n_way=2, n_shot=1, n_query_per_class=1,
                           n_open_classes=1, dim=3)
    object.__setattr__(episode, "support_vectors", np.array([[1.0, 1.0, 1.0]]))
    object.__setattr__(episode, "query_vectors", np.array([[3.0, 5.0, 7.0]]))
    return episode


class TestTaskMean:
    def test_symmetric_case(self):
        assert np.allclose(chunk_mu(symmetric_episode()), [0.0, 0.0], atol=1e-15)

    def test_midpoint(self, rng):
        assert np.allclose(chunk_mu(midpoint_episode(rng)), [2.0, 3.0, 4.0])

    def test_matches_brute_force(self, rng):
        episode = make_episode(rng)
        stacked = np.concatenate([episode.support_vectors, episode.query_vectors])
        expected = np.zeros(episode.dim)
        for row in stacked:
            expected += row
        expected /= len(stacked)
        assert np.allclose(chunk_mu(episode), expected, rtol=1e-6)


class TestNormalizeChunk:
    def test_the_view_carries_the_stacked_episode_fields(self, rng):
        episodes = [make_episode(rng) for _ in range(4)]
        mu = [reference_mean(episode) for episode in episodes]
        view = normalize_chunk(episodes, "task")
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

    @pytest.mark.parametrize("kind, episode, row", [
        ("query", 2, 1), ("support", 1, 0), ("query", 0, 9),
    ])
    def test_a_vector_at_the_centering_point_is_named_by_set_row_and_episode(
        self, rng, kind, episode, row
    ):
        """Three episodes of 2 support and 10 query rows: the row is counted
        within its set and its episode, not over the chunk."""
        mu = rng.normal(size=4)
        episodes = [make_episode(rng, n_way=2, n_shot=1, n_query_per_class=2,
                                 n_open_classes=3, dim=4) for _ in range(3)]
        field = f"{kind}_vectors"
        rows = getattr(episodes[episode], field).copy()
        rows[row] = mu
        episodes[episode] = replace(episodes[episode], **{field: rows})
        message = rf"^{kind} vector {row} of episode {episode} coincides with the centering point$"
        with pytest.raises(DegenerateFeatureError, match=message):
            normalize_chunk(episodes, "base", mu)
        with pytest.raises(DegenerateFeatureError,
                           match=rf"^{kind} vector {row} coincides with the centering point$"):
            normalize_chunk(episodes[episode:episode + 1], "base", mu)


class TestCentering:
    def test_none_equals_base_with_zero_mu(self, rng):
        episode = make_episode(rng)
        none = normalize_chunk([episode], "none")
        zero = normalize_chunk([episode], "base", np.zeros(episode.dim))
        for name in ("mu", "support", "query"):
            assert np.array_equal(getattr(none, name), getattr(zero, name)), name

    def test_task_centering_uses_the_episode(self, rng):
        episode = make_episode(rng)
        assert np.allclose(chunk_mu(episode), reference_mean(episode))

    def test_base_requires_mu(self, rng):
        with pytest.raises(ConfigError, match="precomputed"):
            normalize_chunk([make_episode(rng)], "base")

    def test_unknown_kind(self, rng):
        with pytest.raises(ConfigError, match="unknown centering"):
            normalize_chunk([make_episode(rng)], "global")

    def test_non_finite_mu_rejected(self, rng):
        with pytest.raises(ConfigError, match="finite"):
            normalize_chunk([make_episode(rng, dim=2)], "base", np.array([1.0, np.inf]))


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


@st.composite
def chunks(draw) -> tuple[list[Episode], str, np.ndarray | None]:
    """E in {1, 2, 16} same-shape episodes, a centering and, for ``base``, a mean."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = dict(n_way=draw(st.integers(2, 4)), n_shot=draw(st.integers(1, 3)),
                 n_query_per_class=draw(st.integers(1, 3)),
                 n_open_classes=draw(st.integers(1, 2)),
                 dim=draw(st.sampled_from([2, 3, 16, 64])))
    scale = 2.0 ** draw(st.integers(-20, 20))
    episodes = []
    for _ in range(draw(st.sampled_from([1, 2, 16]))):
        episode = make_episode(rng, **shape)
        episodes.append(replace(episode, support_vectors=scale * episode.support_vectors,
                                query_vectors=scale * episode.query_vectors))
    centering = draw(st.sampled_from(CENTERING_KINDS))
    base_mu = None
    if centering == "base":
        base_mu = np.array(draw(st.lists(FINITE, min_size=shape["dim"], max_size=shape["dim"])))
    return episodes, centering, base_mu


class TestProperties:
    @properties
    @given(points())
    @example((np.empty((0, 3)), np.ones(3)))
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
    @given(chunks())
    @example(([symmetric_episode()], "task", None))
    @example(([midpoint_episode(np.random.default_rng(1))] * 2, "task", None))
    @example(([symmetric_episode()] * 16, "base", np.zeros(2)))
    @example(([symmetric_episode()] * 16, "none", None))
    def test_a_chunk_equals_its_episodes_normalized_alone(self, drawn):
        episodes, centering, base_mu = drawn
        view = normalize_chunk(episodes, centering, base_mu)
        assert view.mu.dtype == np.float64
        for e, episode in enumerate(episodes):
            mu = {"task": reference_mean(episode), "base": base_mu,
                  "none": np.zeros(episode.dim)}[centering]
            assert np.array_equal(view.mu[e], mu), e
            assert np.array_equal(view.support[e], center_normalize(episode.support_vectors, mu))
            assert np.array_equal(view.query[e], center_normalize(episode.query_vectors, mu))
            alone = normalize_chunk([episode], centering, base_mu)
            for name in ("mu", "support", "query"):
                assert np.array_equal(getattr(view, name)[e], getattr(alone, name)[0]), name
