"""Transductive prototype refinement: oracles, gradients, invariants."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import fsosr.ostim as ostim_mod
from fsosr import (
    CenteringPolicy,
    ConfigError,
    DegenerateFeatureError,
    DivergenceError,
    OstimConfig,
    PrototypeSet,
    Variant,
    center_normalize,
    closed_set_entropy,
    compute_loss,
    init_prototypes,
    logits,
    loss_and_grad,
    predict,
    refine,
    refine_batch,
)

from conftest import make_episode


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
    """Scalar double-loop re-computation of all three loss terms."""
    k_way = ps.n_way
    v = [_psi(w, ps.mu) for w in ps.w]

    def logit_row(raw):
        u = _psi(raw, ps.mu)
        row = [cfg.temperature * sum(a * b for a, b in zip(u, vk)) for vk in v]
        if ps.variant is Variant.IMPLICIT:
            row.append(-sum(row) / k_way)
        elif ps.variant is Variant.EXPLICIT_DUMMY:
            row.append(cfg.temperature * sum(a * b for a, b in zip(u, ps.dummy)))
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


def fd_gradients(ps: PrototypeSet, episode, cfg: OstimConfig, h: float = 1e-4):
    """Central finite differences of the total loss."""
    w_grad = np.zeros_like(ps.w)
    for k in range(ps.w.shape[0]):
        for d in range(ps.w.shape[1]):
            plus, minus = ps.w.copy(), ps.w.copy()
            plus[k, d] += h
            minus[k, d] -= h
            w_grad[k, d] = (
                compute_loss(replace(ps, w=plus), episode, cfg).total
                - compute_loss(replace(ps, w=minus), episode, cfg).total
            ) / (2 * h)
    dummy_grad = None
    if ps.dummy is not None:
        dummy_grad = np.zeros_like(ps.dummy)
        for d in range(ps.dummy.size):
            plus, minus = ps.dummy.copy(), ps.dummy.copy()
            plus[d] += h
            minus[d] -= h
            dummy_grad[d] = (
                compute_loss(replace(ps, dummy=plus), episode, cfg).total
                - compute_loss(replace(ps, dummy=minus), episode, cfg).total
            ) / (2 * h)
    return w_grad, dummy_grad


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)))


def random_state(rng, episode, variant: Variant) -> PrototypeSet:
    k_way = episode.n_way
    w = rng.normal(size=(k_way, episode.dim))
    mu = 0.3 * rng.normal(size=episode.dim)
    dummy = rng.normal(size=episode.dim) if variant is Variant.EXPLICIT_DUMMY else None
    return PrototypeSet(w=w, mu=mu, variant=variant, dummy=dummy)


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
    ])
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            OstimConfig(**kwargs)

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


class TestInit:
    def test_one_shot_prototype_is_support_vector(self, rng):
        episode = make_episode(rng, n_shot=1)
        ps = init_prototypes(episode, CenteringPolicy("task"))
        assert np.array_equal(ps.w, episode.support_vectors)

    def test_five_shot_matches_summation_oracle(self, rng):
        episode = make_episode(rng, n_way=3, n_shot=5)
        ps = init_prototypes(episode, CenteringPolicy("none"))
        for k in range(3):
            members = episode.support_vectors[episode.support_labels == k]
            expected = np.zeros(episode.dim)
            for row in members:
                expected += row
            expected /= len(members)
            assert np.allclose(ps.w[k], expected, rtol=1e-6)

    def test_dummy_init_matches_implicit_logits(self, rng):
        episode = make_episode(rng)
        implicit = init_prototypes(episode, CenteringPolicy("task"), Variant.IMPLICIT)
        dummy = init_prototypes(episode, CenteringPolicy("task"), Variant.EXPLICIT_DUMMY)
        for _ in range(5):
            z = rng.normal(size=episode.dim)
            li = logits(implicit, z, 10.0)
            ld = logits(dummy, z, 10.0)
            assert abs(li[-1] - ld[-1]) <= 1e-6
            assert np.allclose(li[:-1], ld[:-1], atol=1e-12)

    def test_closed_variant_has_no_dummy(self, rng):
        episode = make_episode(rng)
        ps = init_prototypes(episode, CenteringPolicy("task"), Variant.CLOSED)
        assert ps.dummy is None
        assert logits(ps, rng.normal(size=episode.dim)).shape == (episode.n_way,)


class TestLogits:
    def test_symmetric_pair_gives_zero_outlier_logit(self):
        # inlier cosines +0.5 and -0.5 -> outlier logit 0
        half = math.sqrt(3) / 2
        ps = PrototypeSet(
            w=np.array([[0.5, half], [-0.5, half]]),
            mu=np.zeros(2),
            variant=Variant.IMPLICIT,
        )
        out = logits(ps, np.array([0.0, 1.0]), temperature=10.0)
        assert np.allclose(out[:2], [10 * half, 10 * half])
        # rebuild with prototypes at +-60 degrees around the query
        ps = PrototypeSet(
            w=np.array([[half, 0.5], [half, -0.5]]),
            mu=np.zeros(2),
            variant=Variant.IMPLICIT,
        )
        out = logits(ps, np.array([1.0, 0.0]), temperature=10.0)
        assert np.allclose(out[:2], [10 * half, 10 * half])

    def test_equal_inlier_logits_negate(self):
        c = 0.4
        s = math.sqrt(1 - c * c)
        ps = PrototypeSet(
            w=np.array([[c, s, 0.0], [c, -s, 0.0], [c, 0.0, s]]),
            mu=np.zeros(3),
            variant=Variant.IMPLICIT,
        )
        out = logits(ps, np.array([1.0, 0.0, 0.0]), temperature=5.0)
        assert np.allclose(out[:3], 5.0 * c, atol=1e-12)
        assert np.isclose(out[3], -5.0 * c, atol=1e-12)

    def test_outlier_logit_is_implicit_prototype_similarity(self, rng):
        for _ in range(20):
            episode = make_episode(rng, dim=6)
            ps = random_state(rng, episode, Variant.IMPLICIT)
            z = rng.normal(size=6)
            out = logits(ps, z, 3.0)
            v = center_normalize(ps.w, ps.mu)
            implicit_prototype = -v.mean(axis=0)
            expected = 3.0 * float(center_normalize(z, ps.mu) @ implicit_prototype)
            assert abs(out[-1] - expected) <= 1e-6

    @pytest.mark.filterwarnings("error")
    def test_prototype_radius_that_overflows_is_a_divergence(self):
        # Each entry is finite, but the squared radius is not: the directions
        # would all be zero and every logit 0, which looks finite downstream.
        # numpy's own overflow warning is silenced, so the error comes first.
        ps = PrototypeSet(w=np.array([[1e200, 0.0], [0.0, 1e200]]), mu=np.zeros(2),
                          variant=Variant.IMPLICIT)
        with pytest.raises(DivergenceError, match="overflows"):
            logits(ps, np.array([1.0, 0.5]))


class TestComputeLoss:
    def test_uniform_predictions_entropies(self, rng):
        # prototypes on axes, queries orthogonal to all of them: logits all zero
        k_way, dim = 3, 5
        episode = make_episode(rng, n_way=k_way, n_shot=1, n_query_per_class=2,
                               n_open_classes=1, dim=dim)
        object.__setattr__(episode, "query_vectors",
                           np.tile(np.eye(dim)[dim - 1], (episode.query_vectors.shape[0], 1)))
        ps = PrototypeSet(w=np.eye(dim)[:k_way], mu=np.zeros(dim), variant=Variant.IMPLICIT)
        out = compute_loss(ps, episode, OstimConfig())
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
        ps = PrototypeSet(w=np.array([[1.0, 0.0], [0.0, 1.0]]), mu=np.zeros(2),
                          variant=Variant.IMPLICIT)
        out = compute_loss(ps, episode, OstimConfig(temperature=200.0))
        assert out.conditional_entropy <= 1e-9
        assert np.isclose(out.marginal_entropy, math.log(3), atol=1e-9)

    def test_matches_scalar_oracle(self, rng):
        for variant in Variant:
            for _ in range(5):
                episode = make_episode(rng, n_way=2, n_shot=2, n_query_per_class=2,
                                       n_open_classes=1, dim=4)
                ps = random_state(rng, episode, variant)
                cfg = OstimConfig(alpha=rng.uniform(0.0, 2.0), temperature=rng.uniform(1, 12))
                got = compute_loss(ps, episode, cfg)
                ce, marginal, conditional, total = oracle_loss(ps, episode, cfg)
                assert abs(got.ce - ce) <= 1e-8
                assert abs(got.marginal_entropy - marginal) <= 1e-8
                assert abs(got.conditional_entropy - conditional) <= 1e-8
                assert abs(got.total - total) <= 1e-8

    def test_term_ranges(self, rng):
        for _ in range(20):
            episode = make_episode(rng)
            ps = random_state(rng, episode, Variant.IMPLICIT)
            out = compute_loss(ps, episode, OstimConfig())
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
            ps = random_state(rng, episode, variant)
            cfg = OstimConfig(alpha=float(rng.uniform(0, 2)))
            _, w_grad, dummy_grad = loss_and_grad(ps, episode, cfg)
            fd_w, fd_dummy = fd_gradients(ps, episode, cfg)
            worst = max(worst, max_rel_err(w_grad, fd_w))
            if dummy_grad is not None:
                worst = max(worst, max_rel_err(dummy_grad, fd_dummy))
        assert worst <= 1e-4, worst


class TestRefine:
    def test_zero_steps_identity(self, rng):
        episode = make_episode(rng)
        ps = init_prototypes(episode, CenteringPolicy("task"))
        out, trace = refine(ps, episode, OstimConfig(n_steps=0))
        assert out is ps and trace == []

    def test_loss_monotone_without_conditional_term(self, rng):
        # alpha=0 leaves CE plus marginal entropy; small steps must descend
        violations = 0
        for trial in range(30):
            episode = make_episode(rng, n_way=3, n_shot=1, n_query_per_class=4,
                                   n_open_classes=2, dim=6, spread=0.3, radius=2.0)
            ps = init_prototypes(episode, CenteringPolicy("task"))
            cfg = OstimConfig(alpha=0.0, n_steps=40, learning_rate=1e-3)
            _, trace = refine(ps, episode, cfg)
            losses = np.array([t.total for t in trace])
            if not np.all(np.diff(losses) <= 1e-12):
                violations += 1
        assert violations == 0

    def test_trace_length_and_final_state_move(self, rng):
        episode = make_episode(rng)
        ps = init_prototypes(episode, CenteringPolicy("task"))
        out, trace = refine(ps, episode, OstimConfig(n_steps=25))
        assert len(trace) == 25
        assert not np.array_equal(out.w, ps.w)

    def test_dummy_vector_is_optimized(self, rng):
        episode = make_episode(rng)
        ps = init_prototypes(episode, CenteringPolicy("task"), Variant.EXPLICIT_DUMMY)
        out, _ = refine(ps, episode, OstimConfig(n_steps=25))
        assert not np.array_equal(out.dummy, ps.dummy)

    def test_divergence_reports_step(self, rng, monkeypatch):
        episode = make_episode(rng)
        ps = init_prototypes(episode, CenteringPolicy("task"))
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
            refine(ps, episode, OstimConfig(n_steps=10))


def _underflowing_support_episode(rng):
    """Closed-variant episode whose first support row points at the other
    class's prototype; queries are orthogonal to both prototypes."""
    episode = make_episode(rng, n_way=2, n_shot=1, n_query_per_class=2,
                           n_open_classes=1, dim=3)
    object.__setattr__(episode, "support_vectors", np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
    object.__setattr__(episode, "query_vectors", np.tile([0.0, 0.0, 1.0], (6, 1)))
    ps = PrototypeSet(w=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), mu=np.zeros(3),
                      variant=Variant.CLOSED)
    return ps, episode


class TestRefineBatch:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_slices_match_single_episode_refine(self, rng, variant):
        episodes = [make_episode(rng, n_way=3, n_shot=2, dim=6) for _ in range(3)]
        states = [init_prototypes(e, CenteringPolicy("task"), variant) for e in episodes]
        cfg = OstimConfig(n_steps=30, learning_rate=0.05)
        batched = refine_batch(states, episodes, cfg)
        for state, episode, got in zip(states, episodes, batched):
            want, _ = refine(state, episode, cfg)
            assert np.array_equal(got.w, want.w)
            assert (want.dummy is None) == (got.dummy is None)
            if want.dummy is not None:
                assert np.array_equal(got.dummy, want.dummy)

    def test_degenerate_prototype_names_its_slice(self, rng):
        episodes = [make_episode(rng) for _ in range(3)]
        states = [init_prototypes(e, CenteringPolicy("task")) for e in episodes]
        w = states[1].w.copy()
        w[2] = states[1].mu
        states[1] = replace(states[1], w=w)
        cfg = OstimConfig(n_steps=5)
        with pytest.raises(DegenerateFeatureError, match="prototype 2") as batched:
            refine_batch(states, episodes, cfg)
        # The failing slice fails alone with the same error; the others do not.
        with pytest.raises(DegenerateFeatureError) as alone:
            refine(states[1], episodes[1], cfg)
        assert str(batched.value) == str(alone.value)
        refine(states[0], episodes[0], cfg)
        refine(states[2], episodes[2], cfg)

    def test_loss_only_divergence_raises(self, rng):
        # At temperature 1000 the first support row gives its own label
        # probability exp(-1000) = 0: infinite cross-entropy, finite gradient.
        cfg = OstimConfig(temperature=1000.0, n_steps=3)
        ps, episode = _underflowing_support_episode(rng)
        with np.errstate(divide="ignore"):
            breakdown, w_grad, _ = loss_and_grad(ps, episode, cfg)
        assert math.isinf(breakdown.ce) and np.all(np.isfinite(w_grad))
        with pytest.raises(DivergenceError, match="step 0"):
            refine(ps, episode, cfg)

        # The same episode with each support row on its own prototype.
        _, healthy = _underflowing_support_episode(rng)
        object.__setattr__(healthy, "support_vectors", ps.w.copy())
        refine(ps, healthy, cfg)
        with pytest.raises(DivergenceError, match="step 0"):
            refine_batch([ps] * 3, [healthy, episode, healthy], cfg)


class TestPredict:
    def test_query_on_prototype_direction(self):
        ps = PrototypeSet(w=np.array([[1.0, 0.0], [0.0, 1.0]]), mu=np.zeros(2),
                          variant=Variant.IMPLICIT)
        rng = np.random.default_rng(0)
        episode = make_episode(rng, n_way=2, n_shot=1, n_query_per_class=1,
                               n_open_classes=1, dim=2)
        object.__setattr__(episode, "query_vectors", np.array([[0.0, 1.0]]))
        sheet = predict(ps, episode, OstimConfig())
        assert sheet.closed_pred[0] == 1
        assert sheet.probs[0, 2] < sheet.probs[0, 1]

    def test_query_on_implicit_prototype_direction(self):
        ps = PrototypeSet(w=np.array([[1.0, 0.0], [0.0, 1.0]]), mu=np.zeros(2),
                          variant=Variant.IMPLICIT)
        rng = np.random.default_rng(0)
        episode = make_episode(rng, n_way=2, n_shot=1, n_query_per_class=1,
                               n_open_classes=1, dim=2)
        object.__setattr__(episode, "query_vectors", np.array([[-1.0, -1.0]]))
        sheet = predict(ps, episode, OstimConfig())
        assert sheet.probs[0].argmax() == 2
        assert sheet.outlier_score[0] == sheet.probs[0, 2]

    def test_rows_match_oracle_softmax(self, rng):
        episode = make_episode(rng)
        ps = random_state(rng, episode, Variant.IMPLICIT)
        cfg = OstimConfig()
        sheet = predict(ps, episode, cfg)
        assert np.all(np.abs(sheet.probs.sum(axis=1) - 1) <= 1e-9)
        for i, raw in enumerate(episode.query_vectors):
            row = logits(ps, raw, cfg.temperature)
            assert np.allclose(sheet.probs[i], _softmax_row(list(row)), atol=1e-12)

    def test_closed_variant_outlier_score(self, rng):
        episode = make_episode(rng)
        ps = random_state(rng, episode, Variant.CLOSED)
        sheet = predict(ps, episode, OstimConfig())
        assert np.allclose(sheet.outlier_score, -sheet.probs.max(axis=1), atol=1e-15)


class TestClosedSetEntropy:
    def test_uniform_and_one_hot(self, rng):
        episode = make_episode(rng, n_way=4)
        ps = random_state(rng, episode, Variant.IMPLICIT)
        sheet = predict(ps, episode, OstimConfig())
        head = np.full((2, 4), 0.25)
        object.__setattr__(sheet, "probs", np.hstack([head * 0.8, np.full((2, 1), 0.2)]))
        ent = closed_set_entropy(sheet)
        assert np.allclose(ent, math.log(4), atol=1e-12)
        one_hot = np.zeros((2, 5))
        one_hot[:, 0] = 0.9
        one_hot[:, 4] = 0.1
        object.__setattr__(sheet, "probs", one_hot)
        assert np.allclose(closed_set_entropy(sheet), 0.0, atol=1e-12)

    def test_matches_direct_sum(self, rng):
        episode = make_episode(rng)
        ps = random_state(rng, episode, Variant.IMPLICIT)
        sheet = predict(ps, episode, OstimConfig())
        ent = closed_set_entropy(sheet)
        for i in range(sheet.n_queries):
            head = sheet.probs[i, : sheet.n_closed]
            head = [p / head.sum() for p in head]
            expected = -sum(p * math.log(p) for p in head if p > 0)
            assert abs(ent[i] - expected) <= 1e-10


class TestInvariants:
    def test_implicit_identity_along_refinement(self, rng):
        for trial in range(5):
            episode = make_episode(rng)
            ps = init_prototypes(episode, CenteringPolicy("task"))
            cfg = OstimConfig(n_steps=1)
            for step in range(20):
                out = logits(ps, episode.query_vectors[:10], cfg.temperature)
                residual = out[:, -1] + out[:, :-1].mean(axis=1)
                assert np.max(np.abs(residual)) <= 1e-9
                ps, _ = refine(ps, episode, cfg)

    def test_closed_pred_invariant_to_logit_rescaling(self, rng):
        episode = make_episode(rng)
        ps = random_state(rng, episode, Variant.IMPLICIT)
        preds = [predict(ps, episode, OstimConfig(temperature=t)).closed_pred
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
        policy = CenteringPolicy("task")
        a, _ = refine(init_prototypes(episode, policy), episode, cfg)
        b, _ = refine(init_prototypes(permuted, policy), permuted, cfg)
        assert np.allclose(b.w[perm], a.w, atol=1e-10)
        sheet_a = predict(a, episode, cfg)
        sheet_b = predict(b, permuted, cfg)
        assert np.allclose(sheet_b.probs[:, perm], sheet_a.probs[:, :4], atol=1e-10)
        assert np.allclose(sheet_b.outlier_score, sheet_a.outlier_score, atol=1e-10)
        assert np.array_equal(sheet_b.closed_pred, perm[sheet_a.closed_pred])

    def test_marginal_entropy_no_collapse(self, rng):
        k_way = 3
        for trial in range(10):
            episode = make_episode(rng, n_way=k_way, n_shot=1, n_query_per_class=5,
                                   n_open_classes=3, dim=8)
            ps = init_prototypes(episode, CenteringPolicy("task"))
            cfg = OstimConfig(alpha=1.0, n_steps=100)
            out, _ = refine(ps, episode, cfg)
            final = compute_loss(out, episode, cfg)
            assert final.marginal_entropy > 0.5 * math.log(k_way + 1)
