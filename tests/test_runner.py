"""Run orchestration: config parsing, determinism, pairing, the sweep."""

from __future__ import annotations

import errno
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fsosr.baselines as baselines_mod
import fsosr.cli as cli
import fsosr.ostim as ostim_mod
import fsosr.runner as runner_mod
import fsosr.workers as workers_mod
from fsosr import (
    ConfigError,
    DataError,
    FsosrError,
    DegenerateFeatureError,
    DivergenceError,
    Episode,
    EpisodeSpec,
    FeatureSet,
    OstimConfig,
    RunConfig,
    SynthSpec,
    Variant,
    config_from_dict,
    generate,
    load_feature_store,
    run,
    save_feature_store,
    sweep_alpha,
)
from fsosr.baselines import BaselineConfig, knn_outlier_score, simpleshot_classify
from fsosr.episodes import sample_episode
from fsosr.feature_store import base_mean
from fsosr.metrics import aggregate, score_episode
from fsosr.runner import episode_checksum, load_config
from fsosr.transforms import (CENTERING_KINDS, NormalizedChunk, center_normalize,
                              normalize_chunk)

from conftest import episode_view, set_cpus, with_a_centroid_at_the_task_mean

CHUNK_SIZES = (1, 3, runner_mod.CHUNK_SIZE)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    fs = generate(
        SynthSpec(
            dim=6, n_classes=16, points_per_class=12, centroid_radius=1.5,
            within_std=0.5, seed=5, split_fractions=(0.25, 0.375, 0.375),
        )
    )
    path = tmp_path_factory.mktemp("stores") / "synth.fsos"
    save_feature_store(fs, path)
    return str(path)


def tiny_config(store_path, **overrides) -> RunConfig:
    defaults = dict(
        store=store_path,
        episode=EpisodeSpec(n_way=3, n_shot=1, n_query_per_class=3,
                            n_open_classes=2, seed=99),
        methods=("simpleshot",),
        n_episodes=4,
        ostim_cfg=OstimConfig(n_steps=8),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def full_document(store_path) -> dict:
    """A run config document that sets every key."""
    return {
        "store": store_path,
        "episodes": {"n_way": 3, "n_shot": 5, "n_query_per_class": 4,
                     "n_open_classes": 2, "seed": 7},
        "methods": ["ostim", "knn"],
        "n_episodes": 10,
        "workers": 2,
        "ostim": {"alpha": 0.5, "n_steps": 50, "lr": 0.01,
                  "temperature": 5.0, "variant": "implicit",
                  "centering": "task"},
        "baseline": {"knn_k": 3, "temperature": 2.0, "centering": "base"},
    }


def round_trip(cfg: RunConfig) -> RunConfig:
    """``cfg`` parsed back from its report snapshot and the one key the
    snapshot leaves out."""
    snapshot = runner_mod._config_snapshot(cfg)
    return config_from_dict({**snapshot, "output_dir": cfg.output_dir})


class TestConfigParsing:
    def test_full_document(self, store_path):
        cfg = config_from_dict(full_document(store_path))
        assert cfg.episode.n_shot == 5
        assert cfg.ostim_cfg.learning_rate == 0.01
        assert cfg.baseline_cfg.knn_k == 3
        assert cfg.methods == ("ostim", "knn")

    def test_a_workers_key_is_checked_and_dropped(self, store_path):
        doc = full_document(store_path)
        assert doc["workers"] == 2
        without = {key: value for key, value in doc.items() if key != "workers"}
        assert config_from_dict(doc) == config_from_dict(without)

    def test_method_sections_hold_every_key_of_their_json_section(self, store_path):
        cfg = config_from_dict(full_document(store_path))
        assert cfg.ostim_cfg.variant is Variant.IMPLICIT and cfg.ostim_cfg.centering == "task"
        assert cfg.baseline_cfg.centering == "base"
        assert round_trip(cfg) == cfg
        other = {"variant": "explicit_dummy", "centering": "none"}
        doc = {**full_document(store_path), "ostim": other, "baseline": {"centering": "task"}}
        cfg = config_from_dict(doc)
        assert cfg.ostim_cfg == OstimConfig(variant=Variant.EXPLICIT_DUMMY, centering="none")
        assert cfg.baseline_cfg == BaselineConfig(centering="task")
        assert round_trip(cfg) == cfg

    @pytest.mark.parametrize("method", runner_mod.METHODS)
    def test_knn_k_is_checked_against_the_support_size_when_used(self, store_path, method):
        # 3-way 2-shot: 6 support vectors.
        doc = {"store": store_path, "episodes": {"n_way": 3, "n_shot": 2}, "methods": [method]}
        assert config_from_dict({**doc, "baseline": {"knn_k": 6}}).baseline_cfg.knn_k == 6
        if method not in ("knn", "strong_baseline"):
            assert config_from_dict({**doc, "baseline": {"knn_k": 7}}).baseline_cfg.knn_k == 7
        else:
            with pytest.raises(ConfigError, match=r"baseline\.knn_k .* support size 6 .* got 7"):
                config_from_dict({**doc, "baseline": {"knn_k": 7}})

    def test_missing_store(self):
        with pytest.raises(ConfigError, match="^config is missing the required key 'store'$"):
            config_from_dict({"methods": ["knn"]})

    def test_a_synth_spec_names_a_missing_key_by_its_json_key(self):
        doc = {"n_classes": 4, "points_per_class": 3, "centroid_radius": 1.0, "within_std": 0.1}
        with pytest.raises(ConfigError, match="^config is missing the required key 'synth.dim'$"):
            runner_mod.synth_spec_from_dict(doc)

    def test_unknown_top_level_key(self, store_path):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"store": store_path, "episodse": {}})

    def test_unknown_method(self, store_path):
        with pytest.raises(ConfigError, match="unknown method"):
            config_from_dict({"store": store_path, "methods": ["protonet"]})

    def test_unknown_ostim_key(self, store_path):
        with pytest.raises(ConfigError, match="ostim"):
            config_from_dict({"store": store_path, "ostim": {"learning_rate": 0.1}})

    def test_bad_variant(self, store_path):
        with pytest.raises(ConfigError, match="variant"):
            config_from_dict({"store": store_path, "ostim": {"variant": "softmax"}})

    def test_bad_centering(self, store_path):
        with pytest.raises(ConfigError, match="centering"):
            config_from_dict({"store": store_path, "ostim": {"centering": "global"}})

    def test_bad_episode_fields_are_config_errors(self, store_path):
        with pytest.raises(ConfigError, match="episodes"):
            config_from_dict({"store": store_path, "episodes": {"n_way": 1}})

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"n_episodes": "abc"}, "n_episodes"),
            ({"n_episodes": 2.7}, "n_episodes"),
            ({"workers": None}, "workers"),
            ({"ostim": 5}, "ostim"),
            ({"episodes": ["n_way"]}, "episodes"),
            ({"episodes": {"n_way": "5"}}, "episodes.n_way"),
            ({"ostim": {"n_steps": 2.5}}, "ostim.n_steps"),
            ({"baseline": {"knn_k": None}}, "baseline.knn_k"),
            ({"methods": ["ostim", []]}, "unknown method"),
            ({"output_dir": 3}, "output_dir"),
            ({"store": None}, "store"),
            ({"methods": "knn"}, "^methods must be a list of method names, got 'knn'$"),
            ({"ostim": {"centering": 5}}, "^ostim.centering must be a string, got 5$"),
            ({"ostim": {"alpha": "abc"}}, "ostim.alpha"),
            ({"baseline": {"temperature": True}}, "baseline.temperature"),
            ({"baseline": {"variant": "closed"}}, "unknown baseline config keys"),
            ({"methods": ["knn", "ostim", "knn"]}, "method 'knn' is listed more than once"),
            ({"workers": 0}, "workers must be >= 1, got 0"),
            ({"workers": "2"}, "workers must be an integer"),
            ({"workers": 2.5}, "workers must be an integer"),
        ],
    )
    def test_bad_values_are_config_errors_naming_the_key(self, store_path, doc, key):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"store": store_path, **doc})

    @pytest.mark.parametrize("cls, kwargs, message", [
        (EpisodeSpec, dict(n_way=2.5), "n_way must be an integer, got 2.5"),
        (EpisodeSpec, dict(seed=1.5), "seed must be an integer, got 1.5"),
        (EpisodeSpec, dict(n_way="3"), "n_way must be an integer, got '3'"),
        (OstimConfig, dict(n_steps=2.5), "n_steps must be an integer, got 2.5"),
        (OstimConfig, dict(n_steps=True), "n_steps must be an integer, got True"),
        (OstimConfig, dict(alpha="1"), "alpha must be a number, got '1'"),
        (BaselineConfig, dict(knn_k=1.5), "knn_k must be an integer, got 1.5"),
        (RunConfig, dict(store="x", n_episodes=2.5), "n_episodes must be an integer, got 2.5"),
        (SynthSpec, dict(dim=2.5, n_classes=4, points_per_class=3, centroid_radius=1.0,
                         within_std=0.1), "dim must be an integer, got 2.5"),
    ])
    def test_config_classes_refuse_a_value_of_the_wrong_type_naming_it(self, cls, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cls(**kwargs)

    def test_integral_counts_accepted(self, store_path):
        cfg = config_from_dict({"store": store_path, "n_episodes": 3.0,
                                "episodes": {"n_way": 4.0}})
        assert cfg.n_episodes == 3 and isinstance(cfg.n_episodes, int)
        assert cfg.episode.n_way == 4 and isinstance(cfg.episode.n_way, int)

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(path)


class TestRun:
    def test_single_episode_single_method(self, store_path):
        cfg = tiny_config(store_path, n_episodes=1)
        reports = run(cfg)
        report = reports["simpleshot"]
        assert report.n_episodes == 1
        assert report.metrics["auroc"].ci95_half_width == 0.0

    def test_deterministic_reports(self, store_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = tiny_config(store_path, methods=("ostim", "simpleshot"))
        run(replace(cfg, output_dir=str(out_a)))
        run(replace(cfg, output_dir=str(out_b)))
        assert (out_a / "run_report.json").read_bytes() == (out_b / "run_report.json").read_bytes()
        assert (out_a / "run_report.csv").read_bytes() == (out_b / "run_report.csv").read_bytes()

    def test_failed_write_leaves_the_earlier_reports_intact(self, store_path, tmp_path, fill_disk):
        cfg = tiny_config(store_path, methods=("simpleshot", "knn"), output_dir=str(tmp_path))
        run(cfg)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["run_report.csv", "run_report.json"]
        fill_disk()
        with pytest.raises(OSError, match="No space left"):
            run(replace(cfg, episode=replace(cfg.episode, seed=100)))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_chunk_size_invariance(self, store_path, tmp_path, monkeypatch):
        # 7 episodes: a partial last chunk at every chunk size but 1.
        out_a = tmp_path / "reference"
        cfg = tiny_config(store_path, methods=("ostim", "explicit_dummy", "knn"), n_episodes=7)
        run(replace(cfg, output_dir=str(out_a)))
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(runner_mod, "CHUNK_SIZE", chunk)
            out_b = tmp_path / f"c{chunk}"
            run(replace(cfg, output_dir=str(out_b)))
            for name in ("run_report.json", "run_report.csv"):
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_paired_episode_stream(self, store_path, tmp_path):
        # different method lists, same episode stream fingerprint
        out_a, out_b = tmp_path / "m1", tmp_path / "m2"
        run(tiny_config(store_path, methods=("simpleshot",), output_dir=str(out_a)))
        run(tiny_config(store_path, methods=("knn",), output_dir=str(out_b)))
        crc_a = json.loads((out_a / "run_report.json").read_text())["episode_stream_crc32"]
        crc_b = json.loads((out_b / "run_report.json").read_text())["episode_stream_crc32"]
        assert crc_a == crc_b

    def test_episode_checksum_sensitivity(self, store_path):
        from fsosr import load_feature_store

        fs = load_feature_store(store_path)
        spec = EpisodeSpec(n_way=3, n_shot=1, n_query_per_class=3, n_open_classes=2, seed=1)
        a = sample_episode(fs, spec, 0)
        b = sample_episode(fs, spec, 1)
        assert episode_checksum(a) != episode_checksum(b)
        assert episode_checksum(a) == episode_checksum(sample_episode(fs, spec, 0))

    @pytest.mark.parametrize("method", ["ostim", "tim_closed", "explicit_dummy"])
    def test_logits_whose_shift_overflows_predict_without_a_warning(self, method):
        # At temperature 1e308 the logits fit in float64 but their softmax
        # shift does not; pytest raises a RuntimeWarning as an error.
        fs = generate(SynthSpec(dim=5, n_classes=12, points_per_class=10, seed=1,
                                centroid_radius=1.0, within_std=0.3))
        cfg = RunConfig(store="", methods=(method,), n_episodes=3,
                        episode=EpisodeSpec(n_way=3, n_query_per_class=5, n_open_classes=2),
                        ostim_cfg=OstimConfig(n_steps=0, temperature=1e308))
        assert run(cfg, fs=fs)[method].n_episodes == 3

    def test_detector_method_has_no_acc(self, store_path, tmp_path):
        out = tmp_path / "knn"
        reports = run(tiny_config(store_path, methods=("knn",), output_dir=str(out)))
        assert reports["knn"].metrics["acc"] is None
        doc = json.loads((out / "run_report.json").read_text())
        assert doc["reports"]["knn"]["metrics"]["acc"] is None
        csv_lines = (out / "run_report.csv").read_text().splitlines()
        assert csv_lines[1].split(",")[2] == ""  # empty acc cell

    @pytest.mark.parametrize("methods, parts", [
        (tuple(runner_mod.METHODS), set(runner_mod.PARTS)),
        (("strong_baseline",), {"simpleshot", "knn"}),
    ], ids=["all_methods", "strong_baseline"])
    def test_each_part_receives_its_own_section(self, store_path, monkeypatch, methods, parts):
        cfg = tiny_config(store_path, methods=methods, n_episodes=1)
        seen = {}

        def spy(name, part):
            def compute(section, view):
                seen[name] = section
                return part.compute(section, view)

            return part._replace(compute=compute)

        monkeypatch.setattr(runner_mod, "PARTS",
                            {name: spy(name, p) for name, p in runner_mod.PARTS.items()})
        set_cpus(monkeypatch, 1)  # the spy sees only this process
        run(cfg)
        transductive = ("ostim", "tim_closed", "explicit_dummy")
        assert seen.keys() == parts
        for name, section in seen.items():
            assert section is (cfg.ostim_cfg if name in transductive else cfg.baseline_cfg)

    def test_closed_variant_matches_tim_closed(self, store_path):
        cfg = config_from_dict({
            "store": store_path, "n_episodes": 3, "methods": ["ostim", "tim_closed"],
            "episodes": {"n_way": 3, "n_query_per_class": 3, "n_open_classes": 2},
            "ostim": {"variant": "closed", "n_steps": 8},
        })
        reports = run(cfg)
        assert reports["ostim"].metrics == reports["tim_closed"].metrics

    def test_all_methods_smoke(self, store_path):
        cfg = tiny_config(
            store_path,
            methods=("ostim", "tim_closed", "explicit_dummy", "simpleshot",
                     "knn", "strong_baseline"),
            n_episodes=2,
        )
        reports = run(cfg)
        assert set(reports) == set(cfg.methods)
        for method, report in reports.items():
            assert 0.0 <= report.metrics["auroc"].mean <= 1.0

    def test_run_propagates_sampler_error(self, store_path):
        cfg = tiny_config(store_path, episode=EpisodeSpec(n_way=5, n_shot=1,
                                                          n_query_per_class=10,
                                                          n_open_classes=5, seed=1))
        with pytest.raises(DataError):
            run(cfg)

    def test_method_failure_names_episode_and_method(self, store_path, monkeypatch):
        cfg = tiny_config(store_path, methods=("knn",))
        knn_fails_at(monkeypatch, cfg, 0)
        with pytest.raises(DataError, match=r"episode 0, method knn"):
            run(cfg)

    def test_base_centering_needs_base_split(self, tmp_path):
        fs = generate(
            SynthSpec(dim=4, n_classes=8, points_per_class=10, centroid_radius=1.0,
                      within_std=0.3, seed=2, split_fractions=(0.0, 0.0, 1.0))
        )
        path = tmp_path / "nobase.fsos"
        save_feature_store(fs, path)
        cfg = tiny_config(str(path), methods=("simpleshot",))
        with pytest.raises(DataError, match="base"):
            run(cfg)

    def test_failure_only_in_a_batch_is_raised_as_it_is(self, store_path, monkeypatch):
        # The one-episode replay finds nothing, so the chunk's own error stands.
        real = ostim_mod.refine

        def batch_only(ps, view, cfg):
            if len(view.mu) > 1:
                raise ValueError("batch-only failure")
            return real(ps, view, cfg)

        monkeypatch.setattr(ostim_mod, "refine", batch_only)
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", 3)
        with pytest.raises(ValueError, match="^batch-only failure$"):
            run(tiny_config(store_path, methods=("ostim",), n_episodes=3))

    def test_a_failing_chunk_is_evaluated_once(self, store_path, monkeypatch):
        # Each method sees the whole chunk once; only the replay that names
        # the failure evaluates single episodes.
        cfg = tiny_config(store_path, methods=("ostim", "knn"), n_episodes=3)
        knn_fails_at(monkeypatch, cfg, 1)
        calls, real = Counter(), runner_mod.evaluate_method

        def evaluate_method(method, episodes, *args):
            if len(episodes) > 1:
                calls[method] += 1
            return real(method, episodes, *args)

        monkeypatch.setattr(runner_mod, "evaluate_method", evaluate_method)
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", 3)
        set_cpus(monkeypatch, 1)  # the spy sees only this process
        with pytest.raises(DataError, match=r"^episode 1, method knn: poisoned knn$"):
            run(cfg)
        assert calls == {"ostim": 1, "knn": 1}

    def test_scoring_failure_in_one_episode_of_a_chunk_names_it(self, store_path, monkeypatch):
        # The whole chunk is scored at once; the replay names the episode.
        cfg = tiny_config(store_path, methods=("simpleshot", "knn"), n_episodes=3)
        fs = load_feature_store(store_path)
        target = center_normalize(sample_episode(fs, cfg.episode, 2).query_vectors, base_mean(fs))
        real = baselines_mod.knn_chunk

        def nan_for_episode_2(view, k=1):
            scores = real(view, k)
            for e, queries in enumerate(view.query):
                if np.array_equal(queries, target):
                    scores[e, 0] = np.nan
            return scores

        monkeypatch.setattr(baselines_mod, "knn_chunk", nan_for_episode_2)
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", 3)
        with pytest.raises(DataError, match=r"^episode 2, method knn: scores must be finite$"):
            run(cfg)


STRONG_BASELINE_METHOD_LISTS = [
    ("simpleshot", "knn", "strong_baseline"),
    ("strong_baseline", "knn"),
    ("knn", "strong_baseline"),
    ("strong_baseline",),
]

# Each method key as (classifier, detector) of the per-episode parts; a
# detector alone has no classifier.
COMPOSITIONS = {
    "ostim": ("ostim", "ostim"),
    "tim_closed": ("tim_closed", "tim_closed"),
    "explicit_dummy": ("explicit_dummy", "explicit_dummy"),
    "simpleshot": ("simpleshot", "simpleshot"),
    "knn": (None, "knn"),
    "strong_baseline": ("simpleshot", "knn"),
}

# Each key on its own and in each of the lists above, every run once.
COMPOSED_RUNS = list(dict.fromkeys(
    (key, methods if key in methods else (*methods, key))
    for key in COMPOSITIONS for methods in [(), *STRONG_BASELINE_METHOD_LISTS]
))


class TestStrongBaseline:
    """Every method's reports are its detector's outlier scores and its
    classifier's accuracy, scored one episode at a time, however the
    methods are listed or chunked: ``strong_baseline`` is the chunk's
    ``knn`` report with the ``simpleshot`` accuracy."""

    @pytest.mark.parametrize("key, methods", COMPOSED_RUNS)
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_equals_the_per_episode_composition(self, store_path, monkeypatch, key, methods,
                                                chunk):
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", chunk)
        cfg = tiny_config(store_path, methods=methods, n_episodes=7)
        fs = load_feature_store(store_path)
        mu = base_mean(fs)
        ocfg, bcfg = cfg.ostim_cfg, cfg.baseline_cfg
        variants = {"ostim": ocfg.variant, "tim_closed": Variant.CLOSED,
                    "explicit_dummy": Variant.EXPLICIT_DUMMY}

        def part(name, episode):
            """The part's (outlier scores, closed-set predictions) of the episode."""
            if name == "knn":
                return knn_outlier_score(episode, "base", mu, bcfg.knn_k), None
            if name == "simpleshot":
                sheet = simpleshot_classify(episode, "base", mu, bcfg.temperature)
                return sheet.outlier_score, sheet.closed_pred
            sheet = refined_sheet(episode_view(episode, ocfg.centering, mu), variants[name], ocfg)
            return sheet.outlier_score[0], sheet.closed_pred[0]

        classifier, detector = COMPOSITIONS[key]
        expected = []
        for i in range(cfg.n_episodes):
            episode = sample_episode(fs, cfg.episode, i)
            parts = {name: part(name, episode) for name in {classifier, detector} - {None}}
            closed_pred = None if classifier is None else parts[classifier][1]
            expected.append(score_episode(episode.query_truth, parts[detector][0], closed_pred))
        snapshot = runner_mod._config_snapshot(cfg)
        assert run(cfg, fs=fs)[key] == aggregate(expected, key, snapshot)

    def test_reuses_the_simpleshot_and_knn_results(self, store_path, monkeypatch):
        cfg = tiny_config(store_path, methods=("strong_baseline", "knn", "simpleshot"),
                          n_episodes=7)
        fs = load_feature_store(store_path)
        episodes = [sample_episode(fs, cfg.episode, i) for i in range(7)]
        stream = [episode_checksum(episode) for episode in episodes]
        # Each chunk function sees only the view: its episodes are told apart
        # by their queries normalized at the base mean.
        checksum_of = {
            center_normalize(episode.query_vectors, base_mean(fs)).tobytes(): checksum
            for episode, checksum in zip(episodes, stream)
        }
        calls = {"simpleshot_chunk": [], "knn_chunk": []}
        real_simpleshot, real_knn = baselines_mod.simpleshot_chunk, baselines_mod.knn_chunk

        def simpleshot_chunk(view, *args):
            calls["simpleshot_chunk"] += [checksum_of[queries.tobytes()] for queries in view.query]
            return real_simpleshot(view, *args)

        def knn_chunk(view, *args):
            calls["knn_chunk"] += [checksum_of[queries.tobytes()] for queries in view.query]
            return real_knn(view, *args)

        monkeypatch.setattr(baselines_mod, "simpleshot_chunk", simpleshot_chunk)
        monkeypatch.setattr(baselines_mod, "knn_chunk", knn_chunk)
        set_cpus(monkeypatch, 1)  # the spies see only this process
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(runner_mod, "CHUNK_SIZE", chunk)
            for log in calls.values():
                log.clear()
            run(cfg, fs=fs)
            assert calls == {"simpleshot_chunk": stream, "knn_chunk": stream}


def shuffled_support(episode: Episode, rng: np.random.Generator) -> Episode:
    """``episode`` with its support rows, and their labels, in a random order."""
    order = rng.permutation(len(episode.support_labels))
    return replace(episode, support_vectors=episode.support_vectors[order],
                   support_labels=episode.support_labels[order])


def refined_sheet(view, variant: Variant, ocfg: OstimConfig):
    """The chunk's sheet from the public refinement functions, as the runner composes them."""
    ps = ostim_mod.init_prototypes(view, variant)
    return ostim_mod.predict(ostim_mod.refine(ps, view, ocfg), view, ocfg)


class TestChunkPath:
    """Each method's chunk-level function, fed the chunk normalized once,
    equals the one-episode public functions composed episode by episode."""

    @pytest.mark.parametrize("centering", CENTERING_KINDS)
    @pytest.mark.parametrize("chunk", (1, 3, 16))
    def test_equals_one_episode_at_a_time(self, store_path, centering, chunk):
        fs = load_feature_store(store_path)
        spec = EpisodeSpec(n_way=3, n_shot=3, n_query_per_class=3, n_open_classes=2, seed=11)
        episodes = [sample_episode(fs, spec, i) for i in range(chunk)]
        middle = len(episodes) // 2
        episodes[middle] = shuffled_support(episodes[middle], np.random.default_rng(chunk))
        assert chunk < 3 or not np.all(np.diff(episodes[middle].support_labels) >= 0)
        mu = base_mean(fs) if centering == "base" else None
        view = normalize_chunk(episodes, centering, mu)
        ocfg = OstimConfig(n_steps=6, learning_rate=0.05)
        for variant in Variant:
            sheet = refined_sheet(view, variant, ocfg)
            for episode, probs in zip(episodes, sheet.probs, strict=True):
                alone = refined_sheet(episode_view(episode, centering, mu), variant, ocfg)
                assert np.array_equal(probs, alone.probs[0])
        sheet = baselines_mod.simpleshot_chunk(view, 7.5)
        scores = baselines_mod.knn_chunk(view, 2)
        for episode, probs, score in zip(episodes, sheet.probs, scores, strict=True):
            assert np.array_equal(probs, simpleshot_classify(episode, centering, mu, 7.5).probs)
            assert np.array_equal(score, knn_outlier_score(episode, centering, mu, 2))

    def test_a_range_of_a_normalized_chunk_equals_the_range_normalized_alone(self):
        # What a cut unit reads: a slice of its chunk's view, starting inside
        # the chunk's arrays, at D=64, the width of the wide bench stores.
        fs = generate(SynthSpec(dim=64, n_classes=12, points_per_class=20, centroid_radius=1.0,
                                within_std=0.3, seed=2, split_fractions=(0.25, 0.25, 0.5)))
        spec = EpisodeSpec(n_way=4, n_shot=2, n_query_per_class=3, n_open_classes=2, seed=5)
        episodes = [sample_episode(fs, spec, i) for i in range(5)]
        view = normalize_chunk(episodes, "task")
        ocfg = OstimConfig(n_steps=5, learning_rate=0.05)
        for start, stop in ((0, 3), (1, 2), (1, 4), (3, 5)):
            part = NormalizedChunk(*(array[start:stop] for array in view))
            alone = normalize_chunk(episodes[start:stop], "task")
            for variant in Variant:
                assert np.array_equal(refined_sheet(part, variant, ocfg).probs,
                                      refined_sheet(alone, variant, ocfg).probs)
            assert np.array_equal(baselines_mod.simpleshot_chunk(part, 7.5).probs,
                                  baselines_mod.simpleshot_chunk(alone, 7.5).probs)
            assert np.array_equal(baselines_mod.knn_chunk(part, 2),
                                  baselines_mod.knn_chunk(alone, 2))

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_every_method_of_a_chunk_equals_its_episodes_scored_alone(
        self, store_path, monkeypatch, chunk
    ):
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", chunk)
        cfg = tiny_config(store_path, methods=tuple(runner_mod.METHODS), n_episodes=5,
                          episode=EpisodeSpec(n_way=3, n_shot=2, n_query_per_class=3,
                                              n_open_classes=2, seed=4),
                          baseline_cfg=BaselineConfig(knn_k=2, centering="none"))
        fs = load_feature_store(store_path)
        ocfg, bcfg = cfg.ostim_cfg, cfg.baseline_cfg
        alone: dict[str, list] = {m: [] for m in cfg.methods}
        for i in range(cfg.n_episodes):
            episode = sample_episode(fs, cfg.episode, i)
            for method, variant in (("ostim", ocfg.variant), ("tim_closed", Variant.CLOSED),
                                    ("explicit_dummy", Variant.EXPLICIT_DUMMY)):
                sheet = refined_sheet(episode_view(episode, "task"), variant, ocfg)
                alone[method].append(score_episode(
                    episode.query_truth, sheet.outlier_score[0], sheet.closed_pred[0]
                ))
            sheet = simpleshot_classify(episode, "none", temperature=bcfg.temperature)
            scores = knn_outlier_score(episode, "none", k=bcfg.knn_k)
            alone["simpleshot"].append(
                score_episode(episode.query_truth, sheet.outlier_score, sheet.closed_pred)
            )
            alone["knn"].append(score_episode(episode.query_truth, scores))
            alone["strong_baseline"].append(
                score_episode(episode.query_truth, scores, sheet.closed_pred)
            )
        snapshot = runner_mod._config_snapshot(cfg)
        reports = run(cfg, fs=fs)
        for method in cfg.methods:
            assert reports[method] == aggregate(alone[method], method, snapshot), method

    def test_a_query_at_the_base_mean_names_the_first_method_centered_there(
        self, monkeypatch
    ):
        # Quarter-integer vectors and 32 base vectors: the base mean is
        # exact in float32, so a stored vector can sit on it.
        rng = np.random.default_rng(3)
        labels = np.repeat(np.arange(10), 16)
        offsets = np.repeat(rng.normal(size=(10, 4)) * 8, 16, axis=0)
        vectors = np.round(offsets + rng.normal(size=(160, 4)) * 4) / 4
        splits = {c: "base" if c < 2 else "test" for c in range(10)}
        names = tuple(f"c{i}" for i in range(10))
        mu = base_mean(FeatureSet(vectors.astype(np.float32), labels, names, splits))
        spec = EpisodeSpec(n_way=3, n_shot=2, n_query_per_class=3, n_open_classes=2, seed=8)
        fs = FeatureSet(vectors.astype(np.float32), labels, names, splits)
        query = sample_episode(fs, spec, 4).query_vectors[5].astype(np.float32)
        (row,) = np.flatnonzero((fs.vectors == query).all(axis=1))
        vectors[row] = mu
        fs = FeatureSet(vectors.astype(np.float32), labels, names, splits)
        assert np.array_equal(base_mean(fs), mu)
        for i in range(6):
            episode = sample_episode(fs, spec, i)
            hits = [(rows == mu).all(axis=1).sum()
                    for rows in (episode.support_vectors, episode.query_vectors)]
            assert hits == ([0, 1] if i == 4 else [0, 0])
        cfg = RunConfig(store="unused.fsos", episode=spec, methods=("ostim", "simpleshot"),
                        n_episodes=6, ostim_cfg=OstimConfig(n_steps=4))
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(runner_mod, "CHUNK_SIZE", chunk)
            with pytest.raises(DegenerateFeatureError, match=(
                r"^episode 4, method simpleshot: query vector 5 coincides with the centering point$"
            )):
                run(cfg, fs=fs)


def diverge_at(monkeypatch, cfg: RunConfig, plan: dict[int, int]) -> None:
    """Make the refinement of stream episode i produce a NaN gradient at
    step plan[i]. Episodes are told apart by their task mean, the centering
    vector of the default ``ostim`` section."""
    fs = load_feature_store(cfg.store)
    step_of = {
        episode_view(sample_episode(fs, cfg.episode, i), "task").mu[0].tobytes(): step
        for i, step in plan.items()
    }
    real = ostim_mod._forward_and_grad
    calls: list = []  # [inputs, steps taken] of the running kernel call

    def poisoned(inputs, w, dummy, ostim_cfg):
        fwd, w_grad, dummy_grad = real(inputs, w, dummy, ostim_cfg)
        if not calls or calls[-1][0] is not inputs:
            calls.append([inputs, 0])
        step = calls[-1][1]
        calls[-1][1] += 1
        w_grad = w_grad.copy()
        for e, mu in enumerate(inputs.mu):
            if step_of.get(mu.tobytes()) == step:
                w_grad[e, 0, 0] = np.nan
        return fwd, w_grad, dummy_grad

    monkeypatch.setattr(ostim_mod, "_forward_and_grad", poisoned)


def knn_fails_at(monkeypatch, cfg: RunConfig, index: int) -> None:
    """Make ``knn`` fail on any chunk holding stream episode ``index``, told
    apart by its queries normalized at the base mean (the default
    ``baseline`` centering)."""
    assert cfg.baseline_cfg.centering == "base"
    fs = load_feature_store(cfg.store)
    target = center_normalize(sample_episode(fs, cfg.episode, index).query_vectors, base_mean(fs))
    real = baselines_mod.knn_chunk

    def poisoned(view, k=1):
        if any(np.array_equal(queries, target) for queries in view.query):
            raise ValueError("poisoned knn")
        return real(view, k)

    monkeypatch.setattr(baselines_mod, "knn_chunk", poisoned)


class TestChunkFailures:
    """A failure inside a chunk is reported as the first failing
    (episode, method) of the stream, whatever the chunk size and the
    process count."""

    @pytest.fixture(autouse=True, params=(1, 2, 3), ids=lambda jobs: f"jobs{jobs}")
    def jobs(self, request, monkeypatch):
        set_cpus(monkeypatch, request.param)
        return request.param

    def expect(self, monkeypatch, cfg, error, message):
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(runner_mod, "CHUNK_SIZE", chunk)
            with pytest.raises(error, match=message):
                run(cfg)
            assert_no_child_left()

    def test_divergence_in_later_slice(self, store_path, monkeypatch):
        cfg = tiny_config(store_path, methods=("ostim",), n_episodes=6)
        diverge_at(monkeypatch, cfg, {2: 3})
        self.expect(monkeypatch, cfg, DivergenceError,
                    r"^episode 2, method ostim: non-finite loss or gradient at step 3$")

    def test_earlier_episode_failing_at_later_step_wins(self, store_path, monkeypatch):
        cfg = tiny_config(store_path, methods=("ostim",), n_episodes=6)
        diverge_at(monkeypatch, cfg, {3: 1, 1: 5})
        self.expect(monkeypatch, cfg, DivergenceError,
                    r"^episode 1, method ostim: non-finite loss or gradient at step 5$")

    def test_degenerate_prototype_in_later_slice(self, store_path, monkeypatch):
        cfg = tiny_config(store_path, methods=("ostim", "tim_closed"), n_episodes=6)
        fs = load_feature_store(store_path)
        target = episode_view(sample_episode(fs, cfg.episode, 2), "task").mu[0].tobytes()
        real = ostim_mod.init_prototypes

        def poisoned(view, variant):
            ps = real(view, variant)
            if variant is ostim_mod.Variant.CLOSED:
                w = ps.w.copy()
                for e, episode_mu in enumerate(ps.mu):
                    if episode_mu.tobytes() == target:
                        w[e, 1] = episode_mu
                ps = replace(ps, w=w)
            return ps

        monkeypatch.setattr(ostim_mod, "init_prototypes", poisoned)
        self.expect(monkeypatch, cfg, DegenerateFeatureError,
                    r"^episode 2, method tim_closed: prototype 1 coincides")

    def test_a_centroid_at_the_centering_point_names_episode_and_method(
        self, store_path, monkeypatch
    ):
        spec = EpisodeSpec(n_way=3, n_shot=2, n_query_per_class=3, n_open_classes=2, seed=99)
        cfg = tiny_config(store_path, episode=spec, methods=("knn", "simpleshot"), n_episodes=6,
                          baseline_cfg=BaselineConfig(centering="task"))
        real = runner_mod.sample_episode

        def poisoned(fs, spec, index, split="test"):
            episode = real(fs, spec, index, split)
            if index == 4:
                episode = with_a_centroid_at_the_task_mean(episode, np.random.default_rng(0))
            return episode

        monkeypatch.setattr(runner_mod, "sample_episode", poisoned)
        self.expect(monkeypatch, cfg, DegenerateFeatureError, r"^episode 4, method simpleshot: "
                    r"centroid 0 coincides with the centering point$")

    def test_earlier_episode_wins_across_methods(self, store_path, monkeypatch, jobs):
        # At chunk size 16 and 2 or 3 processes, ostim's refinement is cut
        # into [0, 3) and [3, 6), both ranked before knn's unit. The later
        # range fails at episode 4, knn at episode 2: its worker replays the
        # whole chunk, so episode 2 is named, not the range's own episode 4.
        cfg = tiny_config(store_path, methods=("ostim", "knn"), n_episodes=6)
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", 16)
        units = sorted(unit for share in runner_mod._plan(cfg, 6, jobs) for _, unit in share)
        assert [(unit.methods, unit.start, unit.stop) for unit in units] == (
            [(("ostim",), 0, 6), (("knn",), 0, 6)] if jobs == 1
            else [(("ostim",), 0, 3), (("ostim",), 3, 6), (("knn",), 0, 6)]
        )
        diverge_at(monkeypatch, cfg, {4: 2})
        knn_fails_at(monkeypatch, cfg, 2)
        self.expect(monkeypatch, cfg, DataError, r"^episode 2, method knn: poisoned knn$")

    def test_strong_baseline_listed_first_names_itself(self, store_path, monkeypatch):
        # The chunk evaluates knn first; the replay goes in config order.
        cfg = tiny_config(store_path, methods=("strong_baseline", "knn"), n_episodes=6)
        knn_fails_at(monkeypatch, cfg, 2)
        self.expect(monkeypatch, cfg, DataError,
                    r"^episode 2, method strong_baseline: poisoned knn$")

    def test_knn_listed_first_names_knn(self, store_path, monkeypatch):
        cfg = tiny_config(store_path, methods=("knn", "strong_baseline"), n_episodes=6)
        knn_fails_at(monkeypatch, cfg, 2)
        self.expect(monkeypatch, cfg, DataError, r"^episode 2, method knn: poisoned knn$")

    def test_earliest_failure_wins_across_three_groups(self, store_path, monkeypatch):
        # At 3 processes and chunk size 16, each group has its own worker,
        # and all three fail.
        cfg = tiny_config(store_path, methods=("ostim", "tim_closed", "knn"), n_episodes=6)
        diverge_at(monkeypatch, cfg, {4: 2})
        knn_fails_at(monkeypatch, cfg, 2)
        self.expect(monkeypatch, cfg, DataError, r"^episode 2, method knn: poisoned knn$")

    def test_earlier_method_wins_on_the_same_episode(self, store_path, monkeypatch):
        cfg = tiny_config(store_path, methods=("ostim", "knn"), n_episodes=6)
        diverge_at(monkeypatch, cfg, {1: 6, 3: 0})
        knn_fails_at(monkeypatch, cfg, 1)
        self.expect(monkeypatch, cfg, DivergenceError,
                    r"^episode 1, method ostim: non-finite loss or gradient at step 6$")



def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_the_worker_ends_with_its_killed_run(code: str, within: float) -> None:
    """Run ``code`` in a fresh interpreter with a 2-CPU mask, kill it outright
    once it has forked its one worker, and assert that the worker ends
    within ``within`` seconds. The worker is SIGKILLed in any case."""
    script = (
        "import os; import fsosr.workers as workers; "
        "from fsosr import EpisodeSpec, OstimConfig, RunConfig, run; "
        "os.sched_getaffinity = lambda pid: {0, 1}; "
        "SPEC = EpisodeSpec(n_way=3, n_shot=1, n_query_per_class=3, n_open_classes=2); "
        + code
    )
    src = str(Path(runner_mod.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    parent = subprocess.Popen([sys.executable, "-c", script], env=env)
    children = Path(f"/proc/{parent.pid}/task/{parent.pid}/children")
    deadline = time.monotonic() + 60
    while not (worker := children.read_text().split()) and time.monotonic() < deadline:
        time.sleep(0.01)
    parent.kill()
    parent.wait()
    assert worker, "no worker was forked"

    def running() -> bool:  # an ended worker is gone, or a zombie until reaped
        try:
            stat = Path(f"/proc/{worker[0]}/stat").read_text()
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    deadline = time.monotonic() + within
    try:
        while running():
            assert time.monotonic() < deadline, "the worker outlived its killed run"
            time.sleep(0.01)
    finally:  # a worker that outlived it would run on or block for good
        with suppress(ProcessLookupError):
            os.kill(int(worker[0]), signal.SIGKILL)


def acting(action, here: bool = False):
    """An ``evaluate_method`` that calls ``action()`` in this process if
    ``here``, else in every other one, then evaluates as the real one does."""
    parent, real = os.getpid(), runner_mod.evaluate_method

    def evaluate_method(*args):
        if (os.getpid() == parent) == here:
            action()
        return real(*args)

    return evaluate_method


# The method mixes of the benchmark's workloads.
BENCH_METHODS = {
    "quickstart": ("ostim", "tim_closed", "simpleshot", "knn", "strong_baseline"),
    "large_store": ("simpleshot", "knn", "strong_baseline"),
    "wide_transductive": ("ostim", "explicit_dummy", "tim_closed"),
}


class TestJobs:
    """Units run in forked worker processes; nothing they return depends on
    how many, and none outlives a run."""

    @pytest.mark.parametrize("methods", BENCH_METHODS.values(), ids=BENCH_METHODS.keys())
    @pytest.mark.parametrize("chunk", CHUNK_SIZES, ids=lambda chunk: f"chunk{chunk}")
    def test_reports_are_byte_identical_across_process_counts(
        self, store_path, tmp_path, monkeypatch, methods, chunk
    ):
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", chunk)
        cfg = tiny_config(store_path, methods=methods, n_episodes=7)
        outputs = {}
        for jobs in (1, 2, 3):
            set_cpus(monkeypatch, jobs)
            out = tmp_path / f"jobs{jobs}"
            run(replace(cfg, output_dir=str(out)))
            assert_no_child_left()
            outputs[jobs] = [(out / name).read_bytes() for name in runner_mod.REPORT_FILES]
        assert outputs[2] == outputs[1] and outputs[3] == outputs[1]

    def test_units_pair_each_chunk_with_each_refinement_and_the_baselines(self, store_path,
                                                                          monkeypatch):
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", 3)
        cfg = tiny_config(store_path, methods=("strong_baseline", "tim_closed", "knn", "ostim"),
                          n_episodes=4)
        (share,) = runner_mod._plan(cfg, 6, 1)
        assert [(index, tuple(unit)) for index, unit in share] == [
            (0, (0, 3, 0, 0, 3, ("ostim",))), (1, (0, 3, 1, 0, 3, ("tim_closed",))),
            (2, (0, 3, 2, 0, 3, ("knn", "strong_baseline"))),
            (3, (3, 4, 0, 3, 4, ("ostim",))), (4, (3, 4, 1, 3, 4, ("tim_closed",))),
            (5, (3, 4, 2, 3, 4, ("knn", "strong_baseline"))),
        ]

    def test_job_count(self, monkeypatch):
        assert workers_mod.job_count() == len(os.sched_getaffinity(0))
        set_cpus(monkeypatch, 5)
        assert workers_mod.job_count() == 5
        monkeypatch.delattr(os, "fork")
        assert workers_mod.job_count() == 1

    def test_reports_are_byte_identical_when_the_plan_cuts_a_unit(
        self, store_path, tmp_path, monkeypatch
    ):
        cfg = tiny_config(store_path, methods=("ostim", "knn", "strong_baseline"), n_episodes=7)
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", 16)
        for jobs in (2, 3):  # the refinement is cut in two, so this test covers cut units
            ranges = [(unit.start, unit.stop) for share in runner_mod._plan(cfg, 6, jobs)
                      for _, unit in share if unit.methods == ("ostim",)]
            assert sorted(ranges) == [(0, 3), (3, 7)]
        outputs = set()
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(runner_mod, "CHUNK_SIZE", chunk)
            for jobs in (1, 2, 3):
                set_cpus(monkeypatch, jobs)
                out = tmp_path / f"chunk{chunk}-jobs{jobs}"
                run(replace(cfg, output_dir=str(out)))
                assert_no_child_left()
                outputs.add(tuple((out / name).read_bytes() for name in runner_mod.REPORT_FILES))
        assert len(outputs) == 1

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="reads /proc")
    @pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)])
    def test_a_worker_that_cannot_start_is_named_and_leaves_no_pipe_or_child(
        self, store_path, tmp_path, monkeypatch, capsys, call, code
    ):
        real, calls = getattr(os, call), []

        def second_call_fails():
            calls.append(None)
            if len(calls) == 2:
                raise OSError(code, os.strerror(code))
            return real()

        cfg = tiny_config(store_path, methods=BENCH_METHODS["quickstart"])
        config = tmp_path / "run.json"
        config.write_text(json.dumps(runner_mod._config_snapshot(cfg)))
        assert len(runner_mod._plan(cfg, 6, 3)) == 3  # so the run starts two workers
        set_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, call, second_call_fails)
        message = f"cannot start a worker process: [Errno {code}] {os.strerror(code)}"
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(FsosrError, match=f"^{re.escape(message)}$"):
            run(cfg)
        assert sorted(os.listdir("/proc/self/fd")) == fds
        assert_no_child_left()
        calls.clear()
        assert cli.main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert_no_child_left()

    def test_a_mask_of_one_cpu_forks_nothing(self, store_path, monkeypatch):
        def fork():
            raise AssertionError("forked")

        cfg = tiny_config(store_path, methods=BENCH_METHODS["quickstart"])
        set_cpus(monkeypatch, 2)
        forked = run(cfg)
        set_cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", fork)
        assert run(cfg) == forked

    def test_no_child_outlives_a_run(self, store_path, monkeypatch):
        set_cpus(monkeypatch, 2)
        run(tiny_config(store_path, methods=BENCH_METHODS["quickstart"]))
        assert_no_child_left()

    def test_no_child_outlives_an_interrupt_in_this_process(self, store_path, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_mod, "evaluate_method", acting(interrupt, here=True))
        set_cpus(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            run(tiny_config(store_path, methods=BENCH_METHODS["quickstart"], n_episodes=40))
        assert_no_child_left()

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads /proc")
    def test_no_child_outlives_a_killed_run(self, store_path):
        # A run of many minutes, killed outright once its one worker is
        # forked: the kernel kills the worker with it.
        assert_the_worker_ends_with_its_killed_run(
            f"run(RunConfig(store={store_path!r}, methods=('ostim', 'tim_closed'), "
            "n_episodes=10_000, ostim_cfg=OstimConfig(n_steps=1000), episode=SPEC))",
            within=10,
        )

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads /proc")
    def test_without_prctl_a_worker_ends_on_writing_to_its_killed_run(self, store_path):
        # The worker finishes its share and then writes results larger than
        # a pipe buffer (64 KiB); with no read end left open it ends there.
        assert_the_worker_ends_with_its_killed_run(
            "workers._prctl = lambda: None; "
            f"run(RunConfig(store={store_path!r}, methods=('ostim', 'tim_closed'), "
            "n_episodes=6_000, ostim_cfg=OstimConfig(n_steps=0), episode=SPEC))",
            within=30,
        )

    @pytest.mark.parametrize("action, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ], ids=["exit", "signal"])
    def test_a_worker_that_ends_without_results_is_named(self, store_path, monkeypatch,
                                                         action, how):
        monkeypatch.setattr(runner_mod, "evaluate_method", acting(action))
        set_cpus(monkeypatch, 2)
        with pytest.raises(FsosrError, match=rf"^worker process \d+ {how} before sending"):
            run(tiny_config(store_path, methods=BENCH_METHODS["quickstart"]))
        assert_no_child_left()

    def test_a_failure_only_in_a_worker_names_its_error(self, store_path, monkeypatch):
        def fail():
            raise ValueError("only in a worker")

        # The worker holds the tim_closed unit and its replay fails first on ostim.
        monkeypatch.setattr(runner_mod, "evaluate_method", acting(fail))
        set_cpus(monkeypatch, 2)
        with pytest.raises(DataError, match=r"^episode 0, method ostim: only in a worker$"):
            run(tiny_config(store_path, methods=BENCH_METHODS["quickstart"]))
        assert_no_child_left()

    @pytest.mark.parametrize("failing", ["knn", "ostim"])
    def test_a_failure_stops_the_other_worker(self, store_path, tmp_path, monkeypatch,
                                              failing):
        # At chunk size 1, worker 0 (this process) takes the ostim and knn
        # units of every even chunk and worker 1 those of every odd one.
        # Only episode 0 fails, so worker 1 meets no failure of its own. The
        # other method logs each call and takes 50 ms, so a worker 1 that went
        # on past worker 0's failure would log 20.
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", 1)
        set_cpus(monkeypatch, 2)
        cfg = tiny_config(store_path, methods=("ostim", "knn"), n_episodes=40)
        first = episode_checksum(sample_episode(load_feature_store(store_path), cfg.episode, 0))
        log, real = tmp_path / "calls", runner_mod.evaluate_method
        log.touch()

        def evaluate_method(method, episodes, *args):
            if method == failing and episode_checksum(episodes[0]) == first:
                raise ValueError("fails at once")
            if method != failing:
                with log.open("a") as fh:
                    fh.write(".")
                time.sleep(0.05)
            return real(method, episodes, *args)

        assert [[(unit.chunk, unit.methods) for _, unit in share]
                for share in runner_mod._plan(cfg, 6, 2)] == [
            [(chunk, (method,)) for chunk in range(first_chunk, 40, 2)
             for method in ("ostim", "knn")]
            for first_chunk in (0, 1)
        ]
        monkeypatch.setattr(runner_mod, "evaluate_method", evaluate_method)
        with pytest.raises(DataError, match=rf"^episode 0, method {failing}: fails at once$"):
            run(cfg)
        assert_no_child_left()
        # A unit or two before the failure is seen, and the failing worker's replay.
        assert len(log.read_text()) <= 5



def counting_forks(monkeypatch) -> list[int]:
    """The pids of the children forked from now on, in order."""
    forked, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


def has_a_child() -> bool:
    return os.waitpid(-1, os.WNOHANG) == (0, 0)


def report_bytes(out: Path) -> list[bytes]:
    return [(out / name).read_bytes() for name in runner_mod.REPORT_FILES]


class TestWorkerReuse:
    """The children forked for a FeatureSet serve every later run on it,
    and what they return does not depend on it."""

    def test_two_runs_on_one_held_set_fork_once(self, store_path, monkeypatch):
        set_cpus(monkeypatch, 2)
        cfg = tiny_config(store_path, methods=BENCH_METHODS["quickstart"])
        assert len(runner_mod._plan(cfg, 6, 2)) == 2
        forked = counting_forks(monkeypatch)
        fs = load_feature_store(store_path)
        first = run(cfg, fs=fs)
        assert run(cfg, fs=fs) == first
        assert len(forked) == 1

    def test_a_sweep_forks_once(self, store_path, monkeypatch):
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", 1)  # four units, so two workers
        forked = counting_forks(monkeypatch)
        _, table = sweep_alpha(tiny_config(store_path, methods=("ostim",)), [0.5, 1.0, 2.0])
        assert len(table) == 3
        assert len(forked) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("jobs", (1, 2, 3))
    def test_reused_workers_write_the_reports_of_fresh_ones(self, store_path, tmp_path,
                                                           monkeypatch, jobs):
        set_cpus(monkeypatch, jobs)
        fs = load_feature_store(store_path)
        for name, methods in BENCH_METHODS.items():
            cfg = tiny_config(store_path, methods=methods, n_episodes=7)
            other = replace(cfg, episode=replace(cfg.episode, seed=5))
            for kind, held in (("fresh", None), ("reused", fs)):
                run(other, fs=held)  # the reused workers serve another run first
                run(replace(cfg, output_dir=str(tmp_path / name / kind)), fs=held)
            reused, fresh = (report_bytes(tmp_path / name / kind) for kind in ("reused", "fresh"))
            assert reused == fresh

    def test_a_chunk_size_set_after_the_fork_reaches_the_workers(self, store_path, tmp_path,
                                                                 monkeypatch):
        set_cpus(monkeypatch, 2)
        cfg = tiny_config(store_path, methods=("ostim", "knn"), n_episodes=7)
        forked = counting_forks(monkeypatch)
        fs = load_feature_store(store_path)
        for chunk in (1, 16, 3):  # the workers are forked at chunk size 1
            monkeypatch.setattr(runner_mod, "CHUNK_SIZE", chunk)
            run(replace(cfg, output_dir=str(tmp_path / f"chunk{chunk}")), fs=fs)
        assert len(forked) == 1
        assert (report_bytes(tmp_path / "chunk3") == report_bytes(tmp_path / "chunk1")
                == report_bytes(tmp_path / "chunk16"))


class TestWorkerLifetime:
    """The children end with their FeatureSet, when another set comes, when
    a run raises and at interpreter exit; one that ended is replaced."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        set_cpus(monkeypatch, 2)

    @staticmethod
    def cfg(store_path) -> RunConfig:
        return tiny_config(store_path, methods=BENCH_METHODS["quickstart"])

    def test_dropping_the_set_ends_its_workers(self, store_path):
        fs = load_feature_store(store_path)
        run(self.cfg(store_path), fs=fs)
        assert has_a_child()
        del fs
        assert_no_child_left()

    def test_a_second_set_ends_the_first_sets_workers(self, store_path, monkeypatch):
        forked = counting_forks(monkeypatch)
        first, second = load_feature_store(store_path), load_feature_store(store_path)
        reports = run(self.cfg(store_path), fs=first)
        assert run(self.cfg(store_path), fs=second) == reports
        assert len(forked) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)
        assert has_a_child()
        del second
        assert_no_child_left()

    def test_a_worker_killed_between_runs_is_replaced(self, store_path, monkeypatch):
        forked = counting_forks(monkeypatch)
        fs = load_feature_store(store_path)
        reports = run(self.cfg(store_path), fs=fs)
        os.kill(forked[0], signal.SIGKILL)
        os.waitid(os.P_PID, forked[0], os.WEXITED | os.WNOWAIT)  # dead, not reaped
        assert run(self.cfg(store_path), fs=fs) == reports
        assert len(forked) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)

    def test_a_run_that_raises_leaves_no_child(self, store_path, monkeypatch):
        def fail():
            raise ValueError("fails here")

        fs = load_feature_store(store_path)
        run(self.cfg(store_path), fs=fs)
        assert has_a_child()
        monkeypatch.setattr(runner_mod, "evaluate_method", acting(fail, here=True))
        with pytest.raises(DataError, match="fails here"):
            run(self.cfg(store_path), fs=fs)
        assert_no_child_left()

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads /proc")
    def test_no_worker_outlives_an_interpreter_that_holds_its_set(self, store_path):
        # The exit hook, registered before the workers' own, sees whether
        # they were reaped before the interpreter ended; prctl is off, so
        # the kernel does not end them.
        script = (
            "import atexit, os; import fsosr.workers as workers; "
            "from fsosr import EpisodeSpec, RunConfig, load_feature_store, run; "
            "os.sched_getaffinity = lambda pid: {0, 1}; workers._prctl = lambda: None; "
            "children = lambda: print(open(f'/proc/self/task/{os.getpid()}/children').read()); "
            "atexit.register(children); "
            f"fs = load_feature_store({store_path!r}); "
            f"run(RunConfig(store={store_path!r}, methods={BENCH_METHODS['quickstart']!r}, "
            "n_episodes=4, episode=EpisodeSpec(n_way=3, n_shot=1, n_query_per_class=3, "
            "n_open_classes=2)), fs=fs); "
            "children()"
        )
        src = str(Path(runner_mod.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        while_held, at_exit = done.stdout.splitlines()
        (worker,) = while_held.split()
        assert at_exit.split() == []
        assert not Path(f"/proc/{worker}").exists()


def bench_workloads() -> dict:
    """``WORKLOADS`` of the benchmark's ``bench/workloads.py``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


BENCH_WORKLOADS = bench_workloads()


def bench_plan(name: str, jobs: int, n_episodes: int | None = None):
    """``_plan`` of the benchmark workload ``name``'s calls at ``jobs`` workers."""
    workload = BENCH_WORKLOADS[name]
    cfg = config_from_dict(workload.config_doc(Path("unused.fsos"), 1, Path("unused")))
    if n_episodes is not None:
        cfg = replace(cfg, n_episodes=n_episodes)
    return runner_mod._plan(cfg, workload.synth["dim"], jobs)


def dealt(shares) -> list[list[tuple]]:
    """Each share's units as (first method, start, stop)."""
    return [[(unit.methods[0], unit.start, unit.stop) for _, unit in share] for share in shares]


class TestPlan:
    """``_plan`` deals the units by their estimated cost, from the config and
    the store's dimension alone, and cuts a refinement only where that
    evens the load."""

    def test_wide_transductive_gives_each_of_two_workers_three_episode_refinements(self):
        shares = bench_plan("wide_transductive", 2)
        assert dealt(shares) == [
            [("ostim", 0, 2), ("explicit_dummy", 0, 1)],
            [("tim_closed", 0, 2), ("explicit_dummy", 1, 2)],
        ]
        assert [index for share in shares for index, _ in share] == [0, 2, 1, 3]

    def test_quickstart_cuts_nothing_at_two_workers(self):
        assert dealt(bench_plan("quickstart", 2)) == [
            [("ostim", 0, 4), ("simpleshot", 0, 4)], [("tim_closed", 0, 4)],
        ]

    def test_large_store_cuts_nothing_and_deals_52_and_48_episodes(self):
        shares = dealt(bench_plan("large_store", 2))
        assert [[start for _, start, _ in share] for share in shares] == [[0, 32, 64, 96],
                                                                        [16, 48, 80]]
        assert [sum(stop - start for _, start, stop in share) for share in shares] == [52, 48]

    def test_the_plan_repeats_and_reads_no_clock(self, monkeypatch):
        def plans():
            return {(name, jobs): bench_plan(name, jobs)
                    for name in BENCH_WORKLOADS for jobs in (1, 2, 3, 8)}

        first = plans()

        def clock():
            raise AssertionError("the plan read a clock")

        for name in ("perf_counter", "monotonic", "time"):
            monkeypatch.setattr(time, name, clock)
        assert plans() == first

    @pytest.mark.parametrize("jobs", (1, 2, 3, 5))
    @pytest.mark.parametrize("chunk", CHUNK_SIZES, ids=lambda chunk: f"chunk{chunk}")
    def test_every_episode_of_every_group_is_dealt_once(self, monkeypatch, jobs, chunk):
        monkeypatch.setattr(runner_mod, "CHUNK_SIZE", chunk)
        for name in BENCH_WORKLOADS:
            for n_episodes in (1, 2, 7, 37):
                shares = bench_plan(name, jobs, n_episodes)
                assert 1 <= len(shares) <= jobs and all(shares)
                pairs = sorted(pair for share in shares for pair in share)
                assert [index for index, _ in pairs] == list(range(len(pairs)))
                units = [unit for _, unit in pairs]
                assert units == sorted(units)
                assert all(share == sorted(share) for share in shares)
                tiles: dict = {}
                for unit in units:
                    assert unit.start < unit.stop
                    tiles.setdefault((unit.chunk, unit.group, unit.methods), []).append(unit)
                chunks = range(0, n_episodes, chunk)
                assert {key[0] for key in tiles} == set(chunks)
                assert len(tiles) == len(chunks) * len({key[1:] for key in tiles})
                for (start, _, _), ranges in tiles.items():
                    assert [r.start for r in ranges] == [start] + [r.stop for r in ranges[:-1]]
                    assert ranges[-1].stop == min(start + chunk, n_episodes)

class TestSweep:
    def test_single_value_grid(self, store_path):
        cfg = tiny_config(store_path, methods=("ostim",), n_episodes=3)
        best, table = sweep_alpha(cfg, [0.7])
        assert best == 0.7
        assert len(table) == 1

    def test_matches_manual_rerun(self, store_path):
        cfg = tiny_config(store_path, methods=("ostim",), n_episodes=4)
        best, table = sweep_alpha(cfg, [0.5, 1.0])
        manual = {}
        for alpha in (0.5, 1.0):
            manual_cfg = replace(cfg, ostim_cfg=replace(cfg.ostim_cfg, alpha=alpha))
            reports = run(manual_cfg, split="val")
            manual[alpha] = reports["ostim"].metrics["auroc"].mean
        for row in table:
            assert row["auroc"] == manual[row["alpha"]]
        assert best == max(manual, key=lambda a: (manual[a], -a))

    def test_tie_breaks_toward_smaller_alpha(self, store_path):
        cfg = tiny_config(store_path, methods=("ostim",), n_episodes=2,
                          ostim_cfg=OstimConfig(n_steps=0))
        # zero refinement steps: every alpha gives identical predictions
        best, table = sweep_alpha(cfg, [2.0, 1.0, 1.5])
        assert {row["auroc"] for row in table} == {table[0]["auroc"]}
        assert best == 1.0

    def test_empty_grid(self, store_path):
        with pytest.raises(ConfigError, match="grid"):
            sweep_alpha(tiny_config(store_path), [])

    def test_requires_val_split(self, tmp_path):
        fs = generate(
            SynthSpec(dim=4, n_classes=8, points_per_class=12, centroid_radius=1.0,
                      within_std=0.3, seed=2, split_fractions=(0.5, 0.0, 0.5))
        )
        path = tmp_path / "noval.fsos"
        save_feature_store(fs, path)
        with pytest.raises(DataError, match="validation"):
            sweep_alpha(tiny_config(str(path)), [1.0])
