"""Transductive prototype refinement: oracles, gradients, invariants.

Every function takes a chunk; a test of one episode uses its one-episode
chunk, ``episode_view``, and a (1, ...) ``PrototypeSet``.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fsosr.ostim as ostim_mod
from fsosr import (
    ConfigError,
    DegenerateFeatureError,
    DivergenceError,
    OstimConfig,
    PredictionSheet,
    PrototypeSet,
    Variant,
    center_normalize,
    closed_set_entropy,
    init_prototypes,
    logits,
    loss_and_grad,
    predict,
    refine,
)
from fsosr.transforms import NormalizedChunk, normalize_chunk

from conftest import episode_view, make_episode, properties

def _psi(vec, mu):
    shifted = [v - m for v, m in zip(vec, mu)]
    norm = math.sqrt(sum(x * x for x in shifted))
    return [x / norm for x in shifted]


def _softmax_row(row):
    m = max(row)
    e = [math.exp(x - m) for x in row]
    z = sum(e)
    return [x / z for x in e]


def oracle_loss(ps: PrototypeSet, episode, cfg: OstimConfig):
    """Scalar double-loop re-computation of all three loss terms of a
    one-episode state."""
    k_way = ps.n_way
    mu = ps.mu[0]
    v = [_psi(w, mu) for w in ps.w[0]]

    def logit_row(raw):
        u = _psi(raw, mu)
        row = [cfg.temperature * sum(a * b for a, b in zip(u, vk)) for vk in v]
        if ps.variant is Variant.IMPLICIT:
            row.append(-sum(row) / k_way)
        elif ps.variant is Variant.EXPLICIT_DUMMY:
            row.append(cfg.temperature * sum(a * b for a, b in zip(u, ps.dummy[0])))
        return row

    p_s = [_softmax_row(logit_row(x)) for x in episode.support_vectors]
    p_q = [_softmax_row(logit_row(x)) for x in episode.query_vectors]

    ce = -sum(
        math.log(p[label]) for p, label in zip(p_s, episode.support_labels)
    ) / len(p_s)
    n_cols = len(p_q[0])
    p_hat = [sum(p[j] for p in p_q) / len(p_q) for j in range(n_cols)]
    marginal = -sum(p * math.log(p) for p in p_hat if p > 0)
    conditional = -sum(
        sum(p * math.log(p) for p in row if p > 0) for row in p_q
    ) / len(p_q)
    total = ce - marginal + cfg.alpha * conditional
    return ce, marginal, conditional, total


def loss(ps: PrototypeSet, view: NormalizedChunk, cfg: OstimConfig):
    """The loss breakdown of a one-episode chunk: ``loss_and_grad``'s first item."""
    (breakdown,) = loss_and_grad(ps, view, cfg)[0]
    return breakdown


def fd_gradients(ps: PrototypeSet, view: NormalizedChunk, cfg: OstimConfig, h: float = 1e-4):
    """Central finite differences of a one-episode chunk's total loss."""
    w_grad = np.zeros_like(ps.w)
    for index in np.ndindex(ps.w.shape):
        plus, minus = ps.w.copy(), ps.w.copy()
        plus[index] += h
        minus[index] -= h
        w_grad[index] = (
            loss(replace(ps, w=plus), view, cfg).total
            - loss(replace(ps, w=minus), view, cfg).total
        ) / (2 * h)
    dummy_grad = None
    if ps.dummy is not None:
        dummy_grad = np.zeros_like(ps.dummy)
        for index in np.ndindex(ps.dummy.shape):
            plus, minus = ps.dummy.copy(), ps.dummy.copy()
            plus[index] += h
            minus[index] -= h
            dummy_grad[index] = (
                loss(replace(ps, dummy=plus), view, cfg).total
                - loss(replace(ps, dummy=minus), view, cfg).total
            ) / (2 * h)
    return w_grad, dummy_grad


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)))


def random_state(rng, episode, variant: Variant) -> tuple[PrototypeSet, NormalizedChunk]:
    """A random one-episode state and the episode's chunk, normalized at its ``mu``."""
    k_way = episode.n_way
    w = rng.normal(size=(1, k_way, episode.dim))
    mu = 0.3 * rng.normal(size=(1, episode.dim))
    dummy = rng.normal(size=(1, episode.dim)) if variant is Variant.EXPLICIT_DUMMY else None
    ps = PrototypeSet(w=w, mu=mu, variant=variant, dummy=dummy)
    return ps, episode_view(episode, "base", mu[0])


def predicted(view: NormalizedChunk, variant: Variant, cfg: OstimConfig) -> PredictionSheet:
    """The runner's refinement methods: init, refine and predict the chunk."""
    return predict(refine(init_prototypes(view, variant), view, cfg), view, cfg)


def one_of(ps: PrototypeSet, view: NormalizedChunk, i: int):
    """Episode ``i`` of a chunk's state and view, as a chunk of one."""
    dummy = None if ps.dummy is None else ps.dummy[i:i + 1]
    return (PrototypeSet(ps.w[i:i + 1], ps.mu[i:i + 1], ps.variant, dummy),
            NormalizedChunk(*(field[i:i + 1] for field in view)))


class TestConfig:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(alpha=-1.0), "alpha must be finite and >= 0, got -1.0"),
        (dict(alpha=math.nan), "alpha must be finite and >= 0, got nan"),
        (dict(alpha=math.inf), "alpha must be finite and >= 0, got inf"),
        (dict(n_steps=-1), "n_steps must be >= 0, got -1"),
        (dict(learning_rate=0.0), "learning_rate must be finite and > 0, got 0.0"),
        (dict(learning_rate=math.inf), "learning_rate must be finite and > 0, got inf"),
        (dict(learning_rate=math.nan), "learning_rate must be finite and > 0, got nan"),
        (dict(temperature=math.inf), "temperature must be finite and > 0, got inf"),
        (dict(temperature=-math.inf), "temperature must be finite and > 0, got -inf"),
        (dict(variant="softmax"),
         "unknown variant 'softmax'; expected one of ('implicit', 'closed', 'explicit_dummy')"),
    ])
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ConfigError, match=re.escape(message)) as caught:
            OstimConfig(**kwargs)
        assert isinstance(caught.value, ValueError)

    def test_accepts_zero_alpha_and_steps(self):
        assert OstimConfig(alpha=0.0, n_steps=0).alpha == 0.0

    def test_variant_and_centering_defaults_and_checks(self):
        cfg = OstimConfig()
        assert cfg.variant is Variant.IMPLICIT and cfg.centering == "task"
        assert OstimConfig(variant="closed").variant is Variant.CLOSED
        with pytest.raises(ConfigError, match="unknown centering 'global'"):
            OstimConfig(centering="global")
        with pytest.raises(ValueError, match="softmax"):
            OstimConfig(variant="softmax")


class TestPrototypeSet:
    W = np.ones((2, 3, 4)) + np.arange(4)

    @pytest.mark.parametrize("variant, w, mu, dummy, message", [
        (Variant.IMPLICIT, np.ones((2, 1, 4)), np.zeros((2, 4)), None, "K >= 2"),
        (Variant.IMPLICIT, np.ones((3, 4)), np.zeros((1, 4)), None, "K >= 2"),
        (Variant.IMPLICIT, W, np.zeros((1, 4)), None, r"mu of shape \(1, 4\)"),
        (Variant.IMPLICIT, W, np.zeros((2, 5)), None, r"mu of shape \(2, 5\)"),
        (Variant.CLOSED, W, np.zeros(4), None, r"mu of shape \(4,\)"),
        (Variant.EXPLICIT_DUMMY, W, np.zeros((2, 4)), np.zeros((1, 4)),
         r"dummy of shape \(1, 4\)"),
        (Variant.EXPLICIT_DUMMY, W, np.zeros((2, 4)), np.zeros(4), r"dummy of shape \(4,\)"),
        (Variant.EXPLICIT_DUMMY, W, np.zeros((2, 4)), None, "requires a dummy vector"),
        (Variant.IMPLICIT, W, np.zeros((2, 4)), np.zeros((2, 4)), "takes no dummy vector"),
        (Variant.IMPLICIT, W * np.nan, np.zeros((2, 4)), None, "must be finite"),
        (Variant.EXPLICIT_DUMMY, W, np.zeros((2, 4)), np.full((2, 4), np.inf), "must be finite"),
    ])
    def test_rejects_a_bad_state(self, variant, w, mu, dummy, message):
        with pytest.raises(ValueError, match=message):
            PrototypeSet(w, mu, variant, dummy)

    def test_holds_float64_arrays_of_a_chunk(self):
        ps = PrototypeSet(self.W.astype(np.float32), np.zeros((2, 4), np.float32),
                          Variant.EXPLICIT_DUMMY, np.ones((2, 4), np.float32))
        assert ps.n_way == 3
        assert {ps.w.dtype, ps.mu.dtype, ps.dummy.dtype} == {np.dtype(np.float64)}


class TestInit:
    def test_one_shot_prototype_is_support_vector(self, rng):
        episode = make_episode(rng, n_shot=1)
        ps = init_prototypes(episode_view(episode, "task"))
        assert np.array_equal(ps.w[0], episode.support_vectors)

    def test_five_shot_matches_summation_oracle(self, rng):
        episode = make_episode(rng, n_way=3, n_shot=5)
        ps = init_prototypes(episode_view(episode, "none"))
        for k in range(3):
            members = episode.support_vectors[episode.support_labels == k]
            expected = np.zeros(episode.dim)
            for row in members:
                expected += row
            expected /= len(members)
            assert np.allclose(ps.w[0, k], expected, rtol=1e-6)

    def test_dummy_init_matches_implicit_logits(self, rng):
        episode = make_episode(rng)
        view = episode_view(episode, "task")
        implicit = init_prototypes(view, Variant.IMPLICIT)
        dummy = init_prototypes(view, Variant.EXPLICIT_DUMMY)
        rows = center_normalize(rng.normal(size=(5, episode.dim)), view.mu[0])[None]
        li = logits(implicit, rows, 10.0)[0]
        ld = logits(dummy, rows, 10.0)[0]
        assert np.all(np.abs(li[-1] - ld[-1]) <= 1e-6)
        assert np.allclose(li[:-1], ld[:-1], atol=1e-12)

    def test_closed_variant_has_no_dummy(self, rng):
        episode = make_episode(rng)
        ps = init_prototypes(episode_view(episode, "task"), Variant.CLOSED)
        assert ps.dummy is None
        rows = center_normalize(rng.normal(size=(1, episode.dim)), ps.mu[0])[None]
        assert logits(ps, rows).shape == (1, episode.n_way, 1)


def _unit_state(w) -> PrototypeSet:
    """One implicit-variant episode with prototypes ``w`` (K, D), centered at the origin."""
    w = np.asarray(w, dtype=np.float64)
    return PrototypeSet(w=w[None], mu=np.zeros((1, w.shape[1])), variant=Variant.IMPLICIT)


def _logit_row(ps: PrototypeSet, row, temperature: float) -> np.ndarray:
    """The logits (C,) of one normalized row of a one-episode state."""
    return logits(ps, np.asarray(row, dtype=np.float64)[None, None], temperature)[0, :, 0]


class TestLogits:
    def test_symmetric_pair_gives_zero_outlier_logit(self):
        # inlier cosines +0.5 and -0.5 -> outlier logit 0
        half = math.sqrt(3) / 2
        ps = _unit_state([[0.5, half], [-0.5, half]])
        out = _logit_row(ps, [0.0, 1.0], temperature=10.0)
        assert np.allclose(out[:2], [10 * half, 10 * half])
        # rebuild with prototypes at +-60 degrees around the query
        ps = _unit_state([[half, 0.5], [half, -0.5]])
        out = _logit_row(ps, [1.0, 0.0], temperature=10.0)
        assert np.allclose(out[:2], [10 * half, 10 * half])

    def test_equal_inlier_logits_negate(self):
        c = 0.4
        s = math.sqrt(1 - c * c)
        ps = _unit_state([[c, s, 0.0], [c, -s, 0.0], [c, 0.0, s]])
        out = _logit_row(ps, [1.0, 0.0, 0.0], temperature=5.0)
        assert np.allclose(out[:3], 5.0 * c, atol=1e-12)
        assert np.isclose(out[3], -5.0 * c, atol=1e-12)

    def test_outlier_logit_is_implicit_prototype_similarity(self, rng):
        for _ in range(20):
            episode = make_episode(rng, dim=6)
            ps, _ = random_state(rng, episode, Variant.IMPLICIT)
            u = center_normalize(rng.normal(size=6), ps.mu[0])
            out = _logit_row(ps, u, 3.0)
            v = center_normalize(ps.w[0], ps.mu[0])
            implicit_prototype = -v.mean(axis=0)
            expected = 3.0 * float(u @ implicit_prototype)
            assert abs(out[-1] - expected) <= 1e-6

    @pytest.mark.filterwarnings("error")
    def test_prototype_radius_that_overflows_is_a_divergence(self):
        # Each entry is finite, but the squared radius is not: the directions
        # would all be zero and every logit 0, which looks finite downstream.
        # numpy's own overflow warning is silenced, so the error comes first.
        ps = _unit_state([[1e200, 0.0], [0.0, 1e200]])
        with pytest.raises(DivergenceError, match="overflows"):
            _logit_row(ps, center_normalize(np.array([1.0, 0.5]), np.zeros(2)), 10.0)


class TestComputeLoss:
    """The loss breakdown, the first item of ``loss_and_grad``."""

    def test_uniform_predictions_entropies(self, rng):
        # prototypes on axes, queries orthogonal to all of them: logits all zero
        k_way, dim = 3, 5
        episode = make_episode(rng, n_way=k_way, n_shot=1, n_query_per_class=2,
                               n_open_classes=1, dim=dim)
        object.__setattr__(episode, "query_vectors",
                           np.tile(np.eye(dim)[dim - 1], (episode.query_vectors.shape[0], 1)))
        ps = _unit_state(np.eye(dim)[:k_way])
        out = loss(ps, episode_view(episode, "none"), OstimConfig())
        assert np.isclose(out.marginal_entropy, math.log(k_way + 1), atol=1e-12)
        assert np.isclose(out.conditional_entropy, math.log(k_way + 1), atol=1e-12)

    def test_one_hot_spread_predictions(self):
        rng = np.random.default_rng(3)
        episode = make_episode(rng, n_way=2, n_shot=1, n_query_per_class=1,
                               n_open_classes=1, dim=2)
        object.__setattr__(episode, "support_vectors", np.array([[1.0, 0.0], [0.0, 1.0]]))
        object.__setattr__(episode, "support_labels", np.array([0, 1]))
        object.__setattr__(
            episode, "query_vectors",
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
        )
        ps = _unit_state([[1.0, 0.0], [0.0, 1.0]])
        out = loss(ps, episode_view(episode, "none"), OstimConfig(temperature=200.0))
        assert out.conditional_entropy <= 1e-9
        assert np.isclose(out.marginal_entropy, math.log(3), atol=1e-9)

    def test_matches_scalar_oracle(self, rng):
        for variant in Variant:
            for _ in range(5):
                episode = make_episode(rng, n_way=2, n_shot=2, n_query_per_class=2,
                                       n_open_classes=1, dim=4)
                ps, view = random_state(rng, episode, variant)
                cfg = OstimConfig(alpha=rng.uniform(0.0, 2.0), temperature=rng.uniform(1, 12))
                got = loss(ps, view, cfg)
                ce, marginal, conditional, total = oracle_loss(ps, episode, cfg)
                assert abs(got.ce - ce) <= 1e-8
                assert abs(got.marginal_entropy - marginal) <= 1e-8
                assert abs(got.conditional_entropy - conditional) <= 1e-8
                assert abs(got.total - total) <= 1e-8

    def test_term_ranges(self, rng):
        for _ in range(20):
            episode = make_episode(rng)
            out = loss(*random_state(rng, episode, Variant.IMPLICIT), OstimConfig())
            assert out.ce >= 0
            assert 0 <= out.marginal_entropy <= math.log(episode.n_way + 1) + 1e-12
            assert out.conditional_entropy >= 0


class TestGradients:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_central_differences(self, rng, variant):
        worst = 0.0
        for _ in range(12):
            k_way = int(rng.integers(2, 4))
            dim = int(rng.integers(3, 9))
            episode = make_episode(rng, n_way=k_way, n_shot=2, n_query_per_class=2,
                                   n_open_classes=1, dim=dim)
            ps, view = random_state(rng, episode, variant)
            cfg = OstimConfig(alpha=float(rng.uniform(0, 2)))
            _, w_grad, dummy_grad = loss_and_grad(ps, view, cfg)
            fd_w, fd_dummy = fd_gradients(ps, view, cfg)
            worst = max(worst, max_rel_err(w_grad, fd_w))
            if dummy_grad is not None:
                worst = max(worst, max_rel_err(dummy_grad, fd_dummy))
        assert worst <= 1e-4, worst


class TestRefine:
    def test_zero_steps_identity(self, rng):
        view = episode_view(make_episode(rng), "task")
        ps = init_prototypes(view)
        traces = [[]]
        assert refine(ps, view, OstimConfig(n_steps=0), traces) is ps and traces == [[]]

    def test_loss_monotone_without_conditional_term(self, rng):
        # alpha=0 leaves CE plus marginal entropy; small steps must descend
        violations = 0
        for trial in range(30):
            episode = make_episode(rng, n_way=3, n_shot=1, n_query_per_class=4,
                                   n_open_classes=2, dim=6, spread=0.3, radius=2.0)
            view = episode_view(episode, "task")
            cfg = OstimConfig(alpha=0.0, n_steps=40, learning_rate=1e-3)
            traces = [[]]
            refine(init_prototypes(view), view, cfg, traces)
            losses = np.array([t.total for t in traces[0]])
            if not np.all(np.diff(losses) <= 1e-12):
                violations += 1
        assert violations == 0

    def test_trace_length_and_final_state_move(self, rng):
        view = episode_view(make_episode(rng), "task")
        ps = init_prototypes(view)
        traces = [[]]
        out = refine(ps, view, OstimConfig(n_steps=25), traces)
        assert len(traces[0]) == 25
        assert not np.array_equal(out.w, ps.w)

    def test_dummy_vector_is_optimized(self, rng):
        view = episode_view(make_episode(rng), "task")
        ps = init_prototypes(view, Variant.EXPLICIT_DUMMY)
        out = refine(ps, view, OstimConfig(n_steps=25))
        assert not np.array_equal(out.dummy, ps.dummy)

    def test_divergence_reports_step(self, rng, monkeypatch):
        view = episode_view(make_episode(rng), "task")
        ps = init_prototypes(view)
        # The kernel's per-step forward pass and gradient, poisoned at step 2.
        real = ostim_mod._forward_and_grad
        calls = {"n": 0}

        def poisoned(*args, **kwargs):
            fwd, w_grad, dummy_grad = real(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 3:
                w_grad = w_grad.copy()
                w_grad[0, 0, 0] = np.nan
            return fwd, w_grad, dummy_grad

        monkeypatch.setattr(ostim_mod, "_forward_and_grad", poisoned)
        with pytest.raises(DivergenceError, match="step 2"):
            refine(ps, view, OstimConfig(n_steps=10))

    @pytest.mark.filterwarnings("error")
    def test_an_update_that_overflows_at_the_last_step_is_a_divergence(self, rng):
        # Prototypes near the centering point have gradients above 1, so one
        # step of 1e308 throws them out of float64 range.
        view = episode_view(make_episode(rng), "task")
        ps = init_prototypes(view)
        ps = replace(ps, w=ps.mu[:, None] + 1e-3 * (ps.w - ps.mu[:, None]))
        with pytest.raises(DivergenceError, match="^the update of step 0 overflows$"):
            refine(ps, view, OstimConfig(n_steps=1, learning_rate=1e308))


def _underflowing_support_episode(rng):
    """Closed-variant episode whose first support row points at the other
    class's prototype; queries are orthogonal to both prototypes."""
    episode = make_episode(rng, n_way=2, n_shot=1, n_query_per_class=2,
                           n_open_classes=1, dim=3)
    object.__setattr__(episode, "support_vectors", np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
    object.__setattr__(episode, "query_vectors", np.tile([0.0, 0.0, 1.0], (6, 1)))
    ps = PrototypeSet(w=np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]), mu=np.zeros((1, 3)),
                      variant=Variant.CLOSED)
    return ps, episode


class TestRefineBatch:
    """A chunk of episodes refined at once equals each episode refined alone."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_slices_match_single_episode_refine(self, rng, variant):
        episodes = [make_episode(rng, n_way=3, n_shot=2, dim=6) for _ in range(3)]
        view = normalize_chunk(episodes, "task")
        ps = init_prototypes(view, variant)
        cfg = OstimConfig(n_steps=30, learning_rate=0.05)
        batched = refine(ps, view, cfg)
        for i in range(len(episodes)):
            want = refine(*one_of(ps, view, i), cfg)
            assert np.array_equal(batched.w[i:i + 1], want.w)
            assert (want.dummy is None) == (batched.dummy is None)
            if want.dummy is not None:
                assert np.array_equal(batched.dummy[i:i + 1], want.dummy)

    def test_degenerate_prototype_names_its_slice(self, rng):
        episodes = [make_episode(rng) for _ in range(3)]
        view = normalize_chunk(episodes, "task")
        ps = init_prototypes(view)
        w = ps.w.copy()
        w[1, 2] = ps.mu[1]
        ps = replace(ps, w=w)
        cfg = OstimConfig(n_steps=5)
        with pytest.raises(DegenerateFeatureError, match="prototype 2") as batched:
            refine(ps, view, cfg)
        # The failing slice fails alone with the same error; the others do not.
        with pytest.raises(DegenerateFeatureError) as alone:
            refine(*one_of(ps, view, 1), cfg)
        assert str(batched.value) == str(alone.value)
        refine(*one_of(ps, view, 0), cfg)
        refine(*one_of(ps, view, 2), cfg)

    def test_a_prototype_at_the_task_mean_is_named_by_every_variant(self, rng):
        # Episode 1's two class-0 supports lie symmetric about the mean of its
        # other rows, which is then its task mean too: prototype 0 sits on it.
        episodes = [make_episode(rng, n_way=3, n_shot=2, dim=6) for _ in range(3)]
        support = episodes[1].support_vectors.copy()
        offset = rng.normal(size=6)
        support[:2] = np.concatenate([support[2:], episodes[1].query_vectors]).mean(axis=0)
        support[:2] += [offset, -offset]
        episodes[1] = replace(episodes[1], support_vectors=support)
        view = normalize_chunk(episodes, "task")
        cfg = OstimConfig(n_steps=3, learning_rate=0.05)
        for variant in Variant:
            with pytest.raises(DegenerateFeatureError) as batched:
                predicted(view, variant, cfg)
            with pytest.raises(DegenerateFeatureError) as alone:
                predicted(episode_view(episodes[1], "task"), variant, cfg)
            assert str(batched.value) == str(alone.value) == (
                "prototype 0 coincides with the centering point"
            ), variant

    def test_loss_only_divergence_raises(self, rng):
        # At temperature 1000 the first support row gives its own label
        # probability exp(-1000) = 0: infinite cross-entropy, finite gradient.
        cfg = OstimConfig(temperature=1000.0, n_steps=3)
        ps, episode = _underflowing_support_episode(rng)
        view = episode_view(episode, "none")
        with np.errstate(divide="ignore"):
            (breakdown,), w_grad, _ = loss_and_grad(ps, view, cfg)
        assert math.isinf(breakdown.ce) and np.all(np.isfinite(w_grad))
        with pytest.raises(DivergenceError, match="step 0"):
            refine(ps, view, cfg)

        # The same episode with each support row on its own prototype.
        _, healthy = _underflowing_support_episode(rng)
        object.__setattr__(healthy, "support_vectors", ps.w[0].copy())
        refine(ps, episode_view(healthy, "none"), cfg)
        chunk = [healthy, episode, healthy]
        three = PrototypeSet(np.repeat(ps.w, 3, axis=0), np.zeros((3, 3)), Variant.CLOSED)
        with pytest.raises(DivergenceError, match="step 0"):
            refine(three, normalize_chunk(chunk, "none"), cfg)

    # (n_way, n_shot, n_query_per_class, n_open_classes, dim) of the bench
    # workloads quickstart, large_store and wide_transductive, and D=640.
    BENCH_SHAPES = {
        "quickstart": (5, 1, 15, 5, 16),
        "large_store": (5, 5, 15, 5, 64),
        "wide_transductive": (20, 5, 15, 10, 64),
        "d640": (5, 1, 15, 5, 640),
    }

    @pytest.mark.parametrize("centering", ("none", "task"))
    @pytest.mark.parametrize("shape", BENCH_SHAPES.values(), ids=BENCH_SHAPES.keys())
    def test_an_episode_of_a_chunk_of_16_equals_it_alone(self, rng, shape, centering):
        n_way, n_shot, n_query, n_open, dim = shape
        episodes = [make_episode(rng, n_way, n_shot, n_query, n_open, dim) for _ in range(16)]
        view = normalize_chunk(episodes, centering)
        cfg = OstimConfig(n_steps=4, learning_rate=0.05)
        for variant in Variant:
            chunk = predicted(view, variant, cfg)
            for i, episode in enumerate(episodes):
                alone = predicted(episode_view(episode, centering), variant, cfg)
                assert np.array_equal(chunk.probs[i], alone.probs[0]), (variant, i)


class TestPredict:
    @staticmethod
    def one_query_view(query) -> NormalizedChunk:
        rng = np.random.default_rng(0)
        episode = make_episode(rng, n_way=2, n_shot=1, n_query_per_class=1,
                               n_open_classes=1, dim=2)
        object.__setattr__(episode, "query_vectors", np.array([query]))
        return episode_view(episode, "none")

    def test_query_on_prototype_direction(self):
        ps = _unit_state([[1.0, 0.0], [0.0, 1.0]])
        sheet = predict(ps, self.one_query_view([0.0, 1.0]), OstimConfig())
        assert sheet.closed_pred[0, 0] == 1
        assert sheet.probs[0, 0, 2] < sheet.probs[0, 0, 1]

    def test_query_on_implicit_prototype_direction(self):
        ps = _unit_state([[1.0, 0.0], [0.0, 1.0]])
        sheet = predict(ps, self.one_query_view([-1.0, -1.0]), OstimConfig())
        assert sheet.probs[0, 0].argmax() == 2
        assert sheet.outlier_score[0, 0] == sheet.probs[0, 0, 2]

    def test_rows_match_oracle_softmax(self, rng):
        ps, view = random_state(rng, make_episode(rng), Variant.IMPLICIT)
        cfg = OstimConfig()
        sheet = predict(ps, view, cfg)
        assert sheet.probs.shape == (1, view.query.shape[1], ps.n_way + 1)
        assert np.all(np.abs(sheet.probs.sum(axis=-1) - 1) <= 1e-9)
        for i, row in enumerate(view.query[0]):
            logit_row = _logit_row(ps, row, cfg.temperature)
            assert np.allclose(sheet.probs[0, i], _softmax_row(list(logit_row)), atol=1e-12)

    def test_closed_variant_outlier_score(self, rng):
        ps, view = random_state(rng, make_episode(rng), Variant.CLOSED)
        sheet = predict(ps, view, OstimConfig())
        assert np.allclose(sheet.outlier_score, -sheet.probs.max(axis=-1), atol=1e-15)


class TestClosedSetEntropy:
    def test_uniform_and_one_hot(self):
        head = np.full((2, 4), 0.25)
        sheet = PredictionSheet(np.hstack([head * 0.8, np.full((2, 1), 0.2)]), 4)
        assert np.allclose(closed_set_entropy(sheet), math.log(4), atol=1e-12)
        one_hot = np.zeros((2, 5))
        one_hot[:, 0] = 0.9
        one_hot[:, 4] = 0.1
        assert np.allclose(closed_set_entropy(PredictionSheet(one_hot, 4)), 0.0, atol=1e-12)

    def test_matches_direct_sum(self, rng):
        ps, view = random_state(rng, make_episode(rng), Variant.IMPLICIT)
        sheet = predict(ps, view, OstimConfig())
        ent = closed_set_entropy(sheet)
        assert ent.shape == (1, sheet.n_queries)
        for i in range(sheet.n_queries):
            head = sheet.probs[0, i, : sheet.n_closed]
            head = [p / head.sum() for p in head]
            expected = -sum(p * math.log(p) for p in head if p > 0)
            assert abs(ent[0, i] - expected) <= 1e-10

    @pytest.mark.parametrize("outlier_column", (0, 1))
    def test_a_chunk_sheet_equals_it_row_by_row(self, rng, outlier_column):
        probs = rng.dirichlet(np.ones(4 + outlier_column), size=(5, 7))
        probs[2, 3] = np.eye(4 + outlier_column)[1]  # a one-hot row: its entropy is 0
        chunk = closed_set_entropy(PredictionSheet(probs, 4))
        assert chunk.shape == (5, 7)
        for e in range(5):
            assert np.array_equal(chunk[e], closed_set_entropy(PredictionSheet(probs[e], 4)))
        assert chunk[2, 3] == 0.0


class TestInvariants:
    def test_implicit_identity_along_refinement(self, rng):
        for trial in range(5):
            view = episode_view(make_episode(rng), "task")
            ps = init_prototypes(view)
            cfg = OstimConfig(n_steps=1)
            for step in range(20):
                out = logits(ps, view.query[:, :10], cfg.temperature)[0]
                residual = out[-1] + out[:-1].mean(axis=0)
                assert np.max(np.abs(residual)) <= 1e-9
                ps = refine(ps, view, cfg)

    def test_closed_pred_invariant_to_logit_rescaling(self, rng):
        ps, view = random_state(rng, make_episode(rng), Variant.IMPLICIT)
        preds = [predict(ps, view, OstimConfig(temperature=t)).closed_pred
                 for t in (0.25, 10.0, 80.0)]
        assert np.array_equal(preds[0], preds[1])
        assert np.array_equal(preds[1], preds[2])

    def test_label_permutation_equivariance(self, rng):
        episode = make_episode(rng, n_way=4, n_shot=2)
        perm = rng.permutation(4)
        permuted = make_episode(rng, n_way=4, n_shot=2)
        object.__setattr__(permuted, "support_vectors", episode.support_vectors)
        object.__setattr__(permuted, "support_labels", perm[episode.support_labels])
        object.__setattr__(permuted, "query_vectors", episode.query_vectors)
        truth = episode.query_truth.copy()
        inl = truth >= 0
        truth[inl] = perm[truth[inl]]
        object.__setattr__(permuted, "query_truth", truth)

        cfg = OstimConfig(n_steps=15)
        view_a, view_b = episode_view(episode, "task"), episode_view(permuted, "task")
        a = refine(init_prototypes(view_a), view_a, cfg)
        b = refine(init_prototypes(view_b), view_b, cfg)
        assert np.allclose(b.w[0, perm], a.w[0], atol=1e-10)
        sheet_a = predict(a, view_a, cfg)
        sheet_b = predict(b, view_b, cfg)
        assert np.allclose(sheet_b.probs[..., perm], sheet_a.probs[..., :4], atol=1e-10)
        assert np.allclose(sheet_b.outlier_score, sheet_a.outlier_score, atol=1e-10)
        assert np.array_equal(sheet_b.closed_pred, perm[sheet_a.closed_pred])

    def test_marginal_entropy_no_collapse(self, rng):
        k_way = 3
        for trial in range(10):
            episode = make_episode(rng, n_way=k_way, n_shot=1, n_query_per_class=5,
                                   n_open_classes=3, dim=8)
            view = episode_view(episode, "task")
            cfg = OstimConfig(alpha=1.0, n_steps=100)
            out = refine(init_prototypes(view), view, cfg)
            assert loss(out, view, cfg).marginal_entropy > 0.5 * math.log(k_way + 1)


class TestSoftmax:
    """The one softmax, which the kernel and simpleshot share, must give
    the bits of the plain last-axis expression."""

    @properties
    @given(
        shape=st.lists(st.integers(1, 6), min_size=0, max_size=2),
        n_classes=st.integers(2, 40),
        scale=st.integers(-20, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_softmax_equals_the_shifted_exp_over_its_sum(self, shape, n_classes, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(*shape, n_classes)) * 2.0**scale
        before = x.copy()
        shifted = x - np.max(x, axis=-1, keepdims=True)
        e = np.exp(shifted)
        got = ostim_mod.softmax(x)
        assert np.array_equal(got, e / e.sum(axis=-1, keepdims=True))
        assert got.flags.c_contiguous
        assert np.array_equal(x, before)
