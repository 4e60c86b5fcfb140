"""Tests of the benchmark's own arithmetic and of its tracer."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import fsosr
from fsosr import SynthSpec, generate, runner, save_feature_store, transforms

import harness
import tracing
from tracing import Span


def _span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, parent, None, None)


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, (50.0, 10)), (39, (50.0, 20)), (40, (75.0, 30)),
     (100, (90.0, 90)), (1000, (99.0, 990)), (20000, (99.95, 19990))],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # 1..n, unsorted
    assert tracing.tail_percentile(samples) == expected


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracing.covered_ns(0, 100, []) == 0
    assert tracing.covered_ns(0, 100, [(10, 20), (30, 40)]) == 20
    assert tracing.covered_ns(0, 100, [(10, 50), (20, 30), (40, 60)]) == 50
    assert tracing.covered_ns(10, 100, [(0, 20), (90, 150), (200, 300)]) == 20
    assert tracing.covered_ns(0, 100, [(10, 20), (20, 30)]) == 20


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span(0, 0, 100),  # a run with two pool threads
        _span(1, 10, 60, parent=0),
        _span(2, 40, 90, parent=0),  # overlaps span 1
        _span(3, 20, 30, parent=1),
    ]
    selfs = tracing.self_times_ns(spans)
    assert selfs == {0: 100 - 80, 1: 50 - 10, 2: 50, 3: 10}
    assert tracing.root_ids(spans) == {0: 0, 1: 0, 2: 0, 3: 0}


def test_unique_fraction_counts_distinct_keys_per_key():
    assert tracing.unique_fraction([]) == 0.0
    assert tracing.unique_fraction(["a", "a", "b", "a"]) == 0.5


def test_content_key_follows_content_not_identity():
    tracer = tracing.Tracer()
    a = np.arange(12.0).reshape(3, 4)
    b = a.copy()
    c = a.copy()
    c[2, 3] += 1.0
    assert tracer.content_key(a) == tracer.content_key(b)
    assert tracer.content_key(a) != tracer.content_key(c)
    assert tracer.content_key(a) != tracer.content_key(a.reshape(4, 3))
    del b
    assert len(tracer._content_keys) == 2  # the freed array's entry is gone


@pytest.fixture
def store(tmp_path) -> Path:
    spec = SynthSpec(dim=8, n_classes=16, points_per_class=12, centroid_radius=1.0,
                     within_std=0.3, seed=5, split_fractions=(0.4, 0.2, 0.4))
    path = tmp_path / "store.fsos"
    save_feature_store(generate(spec), path)
    return path


def _config(store: Path, out: Path, workers: int = 1):
    return runner.config_from_dict({
        "store": str(store),
        "episodes": {"n_way": 3, "n_shot": 2, "n_query_per_class": 4,
                     "n_open_classes": 2, "seed": 99},
        "methods": ["ostim", "tim_closed", "simpleshot", "knn", "strong_baseline"],
        "n_episodes": 3,
        "workers": workers,
        "output_dir": str(out),
        "ostim": {"lr": 0.05, "n_steps": 3, "centering": "task"},
        "baseline": {"centering": "base"},
    })


def test_install_patches_every_binding_and_uninstall_restores_them():
    original = transforms.center_normalize
    original_load = fsosr.feature_store.load_feature_store
    tracer = tracing.Tracer()
    with tracer.installed():
        for module in (fsosr, fsosr.transforms, fsosr.ostim, fsosr.baselines):
            assert module.center_normalize is not original
        assert fsosr.runner.load_feature_store is fsosr.feature_store.load_feature_store
        assert fsosr.runner.load_feature_store is not original_load
        assert fsosr.runner.sample_episode is fsosr.episodes.sample_episode
    for module in (fsosr, fsosr.transforms, fsosr.ostim, fsosr.baselines):
        assert module.center_normalize is original


@pytest.mark.parametrize("workers", [1, 2])
def test_tracing_leaves_report_bytes_unchanged(store, tmp_path, workers):
    plain = _config(store, tmp_path / "plain", workers)
    traced = _config(store, tmp_path / "traced", workers)
    runner.run(plain)
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.run(traced)
    assert (tmp_path / "plain" / "run_report.json").read_bytes() == (
        tmp_path / "traced" / "run_report.json"
    ).read_bytes()
    assert tracer.spans


def test_summary_counts_are_exact(store, tmp_path):
    cfg = _config(store, tmp_path / "out", workers=2)
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.run(cfg)
    m = tracing.summarize(tracer.spans, cfg.n_episodes)
    steps = cfg.ostim_cfg.n_steps
    # ostim, tim_closed: two per step plus predict; simpleshot 3, knn 2, strong 5.
    per_episode = 2 * (2 * steps + 1) + 3 + 2 + 5
    assert m["transforms.center_normalize.calls"] == per_episode
    # Distinct (input, mu) pairs per episode: support and queries at the task
    # mean, the same at the base mean, and the centroids at the origin.
    assert m["transforms.center_normalize.unique_frac"] == pytest.approx(5 / per_episode)
    assert m["ostim.loss_and_grad.calls"] == 2 * steps
    assert m["ostim.refine.calls"] == 2
    assert m["episodes.sample_episode.calls"] == 1
    assert m["metrics.score_episode.calls"] == 5
    n_rows = 3 * 2 + 5 * 4
    assert m["ostim.loss_and_grad.flops_computed"] == 2 * steps * 4 * n_rows * 8 * 3
    assert m["baselines.knn_outlier_score.bytes_computed"] == 2 * 20 * 6 * 8 * 8
    assert m["runner.evaluate_method.explicit_dummy.busy_s"] == 0.0
    assert 0 < m["runner.concurrency"] <= 2.0 + 1e-9
    assert {sp.request for sp in tracer.spans if sp.name == "ostim.refine"} == {0, 1, 2}
    assert {sp.request for sp in tracer.spans if sp.name == "runner.write_reports"} == {None}


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((Path(harness.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.LAYER_UNITS
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: wl.why for name, wl in harness.workloads.WORKLOADS.items()
    }


def test_reference_check_flags_a_moved_mean():
    reference = {"episode_stream_crc32": "0000abcd",
                 "means": {"knn": {"acc": None, "auroc": 0.75}}}
    report = {"episode_stream_crc32": "0000abcd",
              "reports": {"knn": {"metrics": {"acc": None, "auroc": {"mean": 0.75}}}}}
    assert harness.reference_problem(json.dumps(report).encode(), reference) is None
    report["reports"]["knn"]["metrics"]["auroc"]["mean"] = 0.75 + 1e-5
    assert "auroc" in harness.reference_problem(json.dumps(report).encode(), reference)
    report["episode_stream_crc32"] = "0000abce"
    assert "crc" in harness.reference_problem(json.dumps(report).encode(), reference)


def test_recomputed_stream_crc_matches_the_runner(store, tmp_path):
    cfg = _config(store, tmp_path / "out")
    runner.run(cfg)
    report = (tmp_path / "out" / "run_report.json").read_bytes()
    fs = fsosr.load_feature_store(store)
    check = harness.MeasuredCheck(harness.episode_stream_crc(fs, cfg.episode, cfg.n_episodes))
    assert check(report) is None
    assert check(report) is None
    assert "differs" in check(report.replace(b'"mean"', b'"mean" '))
    assert "crc" in harness.MeasuredCheck("00000000")(report)
