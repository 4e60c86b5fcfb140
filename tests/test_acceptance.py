"""Acceptance gate: property suites, oracle equivalence, and trend
reproduction on synthetic stores.

Each criterion prints one pass/fail line (run with ``pytest -v -s``). The
trend criteria use two frozen synthetic stores: store A is centered at the
origin with difficulty tuned so the inductive strong baseline lands at
0.65-0.80 AUROC; store B carries a global shift and a deliberately small
base split so the centering ablation has teeth.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import fsosr.runner as runner_module
from fsosr import (
    OUTLIER,
    EpisodeSpec,
    OstimConfig,
    PredictionSheet,
    RunConfig,
    SynthSpec,
    Variant,
    base_mean,
    center_normalize,
    diagnose,
    generate,
    init_prototypes,
    logits,
    loss_and_grad,
    predict,
    refine,
    run,
    sample_episode,
    save_feature_store,
    score_chunk,
    score_episode,
)
from fsosr.baselines import knn_chunk, simpleshot_chunk
from fsosr.ostim import _xlogx
from fsosr.transforms import normalize_chunk

from conftest import episode_view, make_episode, set_cpus
from test_metrics import oracle_aupr, oracle_auroc, oracle_prec_at_recall
from test_ostim import fd_gradients, max_rel_err, random_state

STORE_A = SynthSpec(
    dim=16, n_classes=25, points_per_class=40, centroid_radius=1.0,
    within_std=0.35, seed=3, split_fractions=(0.4, 0.2, 0.4),
)
SPEC_A = EpisodeSpec(seed=1234)
CFG_A = OstimConfig(alpha=0.09, learning_rate=0.05)

STORE_B = SynthSpec(
    dim=16, n_classes=25, points_per_class=40, centroid_radius=1.0,
    within_std=0.35, global_shift=3.0, seed=3, split_fractions=(0.12, 0.2, 0.68),
)
SPEC_B = EpisodeSpec(seed=777)
CFG_B = OstimConfig(alpha=1.0, learning_rate=0.05)

N_TREND_EPISODES = 500
TREND_CHUNK = 100  # episodes per chunk, each refined and scored at once


def _gate(number: int, description: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def _trend_chunks(fs, spec: EpisodeSpec):
    """The trend stream as lists of consecutive episodes, each evaluated as
    one chunk, as ``fsosr run`` does; results do not depend on the chunk."""
    for start in range(0, N_TREND_EPISODES, TREND_CHUNK):
        stop = min(start + TREND_CHUNK, N_TREND_EPISODES)
        yield [sample_episode(fs, spec, index) for index in range(start, stop)]


def _scored(sheet, view):
    """One report per episode of the chunk ``view``."""
    return score_chunk(view.query_truth, sheet.outlier_score, sheet.closed_pred)


def closed_set_entropy(sheet):
    """Entropy of each query's distribution renormalized over the closed
    classes only, for an (n, C) or (E, n, C) sheet: criterion 6's
    diagnostic, not any variant's outlierness score."""
    head = sheet.probs[..., : sheet.n_closed]
    head = head / head.sum(axis=-1, keepdims=True)
    return -_xlogx(head).sum(axis=-1)


def _refined(view, variant, cfg):
    """The refined prediction sheet of the chunk ``view``."""
    return predict(refine(init_prototypes(view, variant), view, cfg), view, cfg)


@pytest.fixture(scope="module")
def store_a_run():
    """Paired evaluation of all methods on store A, with entropy tracking."""
    t0 = time.monotonic()
    fs = generate(STORE_A)
    mu_base = base_mean(fs)
    agg: dict[str, list[float]] = {
        k: []
        for k in (
            "strong_auroc", "ostim_auroc", "tim_auroc", "ss_acc", "ostim_acc",
            "ent_in_init", "ent_in_final", "ent_out_init", "ent_out_final",
        )
    }
    for episodes in _trend_chunks(fs, SPEC_A):
        base_view = normalize_chunk(episodes, "base", mu_base)
        task_view = normalize_chunk(episodes, "task")
        sheet_ss = simpleshot_chunk(base_view, 10.0)
        knn_scores = knn_chunk(base_view, 1)
        strong = score_chunk(base_view.query_truth, knn_scores, sheet_ss.closed_pred)
        agg["ss_acc"] += [report.acc for report in strong]
        agg["strong_auroc"] += [report.auroc for report in strong]

        init = init_prototypes(task_view, Variant.IMPLICIT)
        sheet_init = predict(init, task_view, CFG_A)
        sheet_final = predict(refine(init, task_view, CFG_A), task_view, CFG_A)
        reports = _scored(sheet_final, task_view)
        agg["ostim_acc"] += [report.acc for report in reports]
        agg["ostim_auroc"] += [report.auroc for report in reports]

        ent_init = closed_set_entropy(sheet_init)
        ent_final = closed_set_entropy(sheet_final)
        for e, truth in enumerate(task_view.query_truth):
            outlier = truth == OUTLIER
            agg["ent_in_init"].append(ent_init[e, ~outlier].mean())
            agg["ent_in_final"].append(ent_final[e, ~outlier].mean())
            agg["ent_out_init"].append(ent_init[e, outlier].mean())
            agg["ent_out_final"].append(ent_final[e, outlier].mean())

        closed = _scored(_refined(task_view, Variant.CLOSED, CFG_A), task_view)
        agg["tim_auroc"] += [report.auroc for report in closed]
    means = {k: float(np.mean(v)) for k, v in agg.items()}
    means["elapsed"] = time.monotonic() - t0
    return means


def test_criterion_1_mif_auroc_duality(rng):
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        n_classes = int(rng.integers(3, 7))
        dim = int(rng.integers(4, 17))
        per_class = int(rng.integers(10, 25))
        vectors = np.concatenate(
            [rng.normal(size=(per_class, dim)) + 2.0 * rng.normal(size=dim)
             for _ in range(n_classes)]
        )
        labels = np.repeat(np.arange(n_classes), per_class)
        mif = diagnose(vectors, labels).mif
        distances = []
        for k in range(n_classes):
            centroid = vectors[labels == k].mean(axis=0)
            distances.append(np.linalg.norm(vectors - centroid, axis=1))
        # Row k scores class k's centroid detector; the other classes are its outliers.
        truth = np.where(labels != np.arange(n_classes)[:, None], OUTLIER, 0)
        per_class_auroc = [report.auroc for report in score_chunk(truth, distances)]
        worst = max(worst, abs(mif - (1.0 - float(np.mean(per_class_auroc)))))
    elapsed = time.monotonic() - t0
    _gate(
        1,
        f"MIF equals 1 - centroid-detector AUROC on 50 datasets "
        f"(max gap {worst:.2e} <= 1e-9, {elapsed:.1f}s < 10s)",
        worst <= 1e-9 and elapsed < 10.0,
    )


def test_criterion_2_gradient_correctness(rng):
    t0 = time.monotonic()
    worst = 0.0
    variants = list(Variant)
    for trial in range(100):
        k_way = int(rng.integers(2, 4))
        dim = int(rng.integers(3, 9))
        episode = make_episode(
            rng, n_way=k_way, n_shot=int(rng.integers(1, 3)),
            n_query_per_class=2, n_open_classes=1, dim=dim,
        )
        variant = variants[trial % len(variants)]
        state, view = random_state(rng, episode, variant)
        cfg = OstimConfig(alpha=float(rng.uniform(0.0, 2.0)))
        _, w_grad, dummy_grad = loss_and_grad(state, view, cfg)
        fd_w, fd_dummy = fd_gradients(state, view, cfg, h=1e-4)
        worst = max(worst, max_rel_err(w_grad, fd_w))
        if dummy_grad is not None:
            worst = max(worst, max_rel_err(dummy_grad, fd_dummy))
    elapsed = time.monotonic() - t0
    _gate(
        2,
        f"analytic gradients match central differences on 100 states "
        f"(max rel err {worst:.2e} <= 1e-4, {elapsed:.1f}s < 30s)",
        worst <= 1e-4 and elapsed < 30.0,
    )


def test_criterion_3_implicit_prototype_identity(rng):
    fs = generate(STORE_A)
    worst = 0.0
    for index in range(20):
        episode = sample_episode(fs, EpisodeSpec(seed=42), index)
        view = episode_view(episode, "task")
        state = init_prototypes(view, Variant.IMPLICIT)
        step_cfg = replace(CFG_A, n_steps=1)
        for _ in range(10):
            out = logits(state, view.query, CFG_A.temperature)[0]
            residual = np.abs(out[-1] + out[:-1].mean(axis=0)).max()
            # independent route: similarity to the negated prototype mean
            u = center_normalize(episode.query_vectors, state.mu[0])
            v = center_normalize(state.w[0], state.mu[0])
            via_prototype = CFG_A.temperature * (u @ (-v.mean(axis=0)))
            worst = max(
                worst, float(residual), float(np.abs(out[-1] - via_prototype).max())
            )
            state = refine(state, view, step_cfg)
    _gate(
        3,
        f"outlier logit equals negated mean inlier logit at every step "
        f"(max residual {worst:.2e} <= 1e-9)",
        worst <= 1e-9,
    )


def test_criterion_4_metric_oracles(rng):
    mismatches = 0
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        if rng.random() < 0.5:
            scores = rng.integers(0, 5, size=n).astype(np.float64)  # heavy ties
        else:
            scores = np.round(rng.normal(size=n), 2)
        labels = rng.random(n) < float(rng.uniform(0.2, 0.8))
        if not labels.any():
            continue
        truth = np.where(labels, OUTLIER, 0)
        if labels.all():
            # score_episode needs an inlier. One ranked below every score
            # ends the sweep at recall 1 already reached: it adds an exact
            # zero to the AUPR, and its precision is below the 1.0 that
            # every operating point of an all-outlier set has.
            report = score_episode(np.append(truth, 0), np.append(scores, scores.min() - 1.0))
        else:
            report = score_episode(truth, scores)
            if report.auroc != oracle_auroc(scores, labels):
                mismatches += 1
        if report.aupr != oracle_aupr(scores, labels):
            mismatches += 1
        if report.prec_at_90 != oracle_prec_at_recall(scores, labels, 0.9):
            mismatches += 1
        checked += 1

    big = np.random.default_rng(7)
    big_scores = big.normal(size=10_000)
    big_labels = np.arange(10_000) % 2 == 0
    big_report = score_episode(np.where(big_labels, OUTLIER, 0), big_scores)
    baselines = (big_report.auroc, big_report.aupr, big_report.prec_at_90)
    near_half = all(abs(b - 0.5) <= 0.02 for b in baselines)
    _gate(
        4,
        f"AUROC/AUPR/Prec@0.9 equal exhaustive oracles on {checked} tied score "
        f"sets (mismatches {mismatches}); random baselines "
        f"{', '.join(f'{b:.3f}' for b in baselines)} within 0.5 +- 0.02",
        mismatches == 0 and near_half,
    )


def test_criterion_5_transductive_trend(store_a_run):
    r = store_a_run
    in_band = 0.65 <= r["strong_auroc"] <= 0.80
    gap_ok = r["ostim_auroc"] >= r["tim_auroc"] + 0.05
    beats_strong = r["ostim_auroc"] >= r["strong_auroc"]
    acc_ok = r["ostim_acc"] >= r["ss_acc"] - 0.01
    time_ok = r["elapsed"] < 300.0
    _gate(
        5,
        f"over {N_TREND_EPISODES} paired 1-shot episodes: strong baseline AUROC "
        f"{r['strong_auroc']:.3f} in [0.65, 0.80]; ostim {r['ostim_auroc']:.3f} >= "
        f"closed-variant {r['tim_auroc']:.3f} + 0.05 and >= strong baseline; acc "
        f"{r['ostim_acc']:.3f} >= {r['ss_acc']:.3f} - 0.01 ({r['elapsed']:.0f}s < 300s)",
        in_band and gap_ok and beats_strong and acc_ok and time_ok,
    )


def test_criterion_6_entropy_shift_directions(store_a_run):
    r = store_a_run
    outliers_up = r["ent_out_final"] >= r["ent_out_init"]
    inliers_down = r["ent_in_final"] < r["ent_in_init"]
    _gate(
        6,
        f"closed-set entropy after refinement: outliers "
        f"{r['ent_out_init']:.4f} -> {r['ent_out_final']:.4f} (must not decrease), "
        f"inliers {r['ent_in_init']:.4f} -> {r['ent_in_final']:.4f} (must decrease)",
        outliers_up and inliers_down,
    )


class TestClosedSetEntropy:
    """Criterion 6's diagnostic against direct sums."""

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


def test_criterion_7_ablation_trends():
    fs = generate(STORE_B)
    mu_base = base_mean(fs)
    acc_init, acc_final = [], []
    aupr_of = {"task": [], "base": [], "none": [], "dummy": [], "init": []}
    for episodes in _trend_chunks(fs, SPEC_B):
        views = {c: normalize_chunk(episodes, c, mu_base) for c in ("task", "base", "none")}
        task_view = views["task"]
        initial = _scored(predict(init_prototypes(task_view, Variant.IMPLICIT), task_view, CFG_B),
                          task_view)
        acc_init += [report.acc for report in initial]
        aupr_of["init"] += [report.aupr for report in initial]
        for name, view in views.items():
            reports = _scored(_refined(view, Variant.IMPLICIT, CFG_B), view)
            aupr_of[name] += [report.aupr for report in reports]
            if name == "task":
                acc_final += [report.acc for report in reports]
        dummies = _scored(_refined(task_view, Variant.EXPLICIT_DUMMY, CFG_B), task_view)
        aupr_of["dummy"] += [report.aupr for report in dummies]

    m = {k: float(np.mean(v)) for k, v in aupr_of.items()}
    a0, a1 = float(np.mean(acc_init)), float(np.mean(acc_final))
    centering_ok = m["task"] >= m["base"] >= m["none"]
    refine_ok = a1 > a0 and abs(m["task"] - m["init"]) < 0.03
    dummy_ok = m["task"] > m["dummy"]
    _gate(
        7,
        f"centering AUPR task {m['task']:.3f} >= base {m['base']:.3f} >= none "
        f"{m['none']:.3f}; refinement acc {a0:.3f} -> {a1:.3f} with |dAUPR| "
        f"{abs(m['task'] - m['init']):.4f} < 0.03; implicit {m['task']:.3f} > "
        f"free outlier vector {m['dummy']:.3f}",
        centering_ok and refine_ok and dummy_ok,
    )


def test_criterion_8_run_determinism(tmp_path, monkeypatch):
    fs = generate(
        SynthSpec(dim=8, n_classes=16, points_per_class=16, centroid_radius=1.0,
                  within_std=0.4, seed=9, split_fractions=(0.25, 0.25, 0.5))
    )
    store = tmp_path / "det.fsos"
    save_feature_store(fs, store)
    base_cfg = RunConfig(
        store=str(store),
        episode=EpisodeSpec(n_way=3, n_shot=1, n_query_per_class=4,
                            n_open_classes=2, seed=5),
        methods=("ostim", "simpleshot", "knn"),
        n_episodes=7,
        ostim_cfg=OstimConfig(n_steps=20),
    )

    def report_bytes(name: str) -> tuple[bytes, bytes]:
        out_dir = tmp_path / name
        run(replace(base_cfg, output_dir=str(out_dir)))
        return (
            (out_dir / "run_report.json").read_bytes(),
            (out_dir / "run_report.csv").read_bytes(),
        )

    reference = report_bytes("r1")
    identical_reruns = report_bytes("r2") == reference
    # 7 episodes leave a partial last chunk at every chunk size but 1.
    chunk_sizes = (1, 3, runner_module.CHUNK_SIZE)
    identical_chunks = True
    for chunk in chunk_sizes:
        monkeypatch.setattr(runner_module, "CHUNK_SIZE", chunk)
        for jobs in (1, 2):
            set_cpus(monkeypatch, jobs)
            identical_chunks &= report_bytes(f"c{chunk}-j{jobs}") == reference
    _gate(
        8,
        "repeated runs, chunk sizes "
        f"{', '.join(map(str, chunk_sizes))} and process counts 1 and 2 produce "
        "byte-identical JSON and CSV reports",
        identical_reruns and identical_chunks,
    )


def test_criterion_9_episode_protocol():
    fs = generate(STORE_A)
    episode = sample_episode(fs, EpisodeSpec(seed=2), 0)
    n_support = episode.support_vectors.shape[0]
    n_queries = episode.query_vectors.shape[0]
    n_out = int(episode.is_outlier.sum())
    n_in = n_queries - n_out
    per_class_ok = all(
        int((episode.query_truth == k).sum()) == 15 for k in range(5)
    )
    _gate(
        9,
        f"default 1-shot episode has {n_support} support, {n_queries} queries, "
        f"{n_in}/{n_out} inlier/outlier split at 15 per class",
        n_support == 5 and n_queries == 150 and n_in == 75 and n_out == 75
        and per_class_ok,
    )
