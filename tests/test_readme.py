"""The README's example documents parse with the config parsers that
``fsosr synth``, ``fsosr run`` and ``fsosr sweep`` use, and set what they
say they set."""

from __future__ import annotations

import json
import re
from pathlib import Path

from fsosr import generate, runner, sample_episode, save_feature_store

README = Path(__file__).resolve().parent.parent / "README.md"


def heredocs() -> dict[str, dict]:
    """``cat > name <<'EOF' ... EOF`` blocks of the README, parsed as JSON."""
    blocks = re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", README.read_text(), re.S)
    return {name: json.loads(text) for name, text in blocks}


def test_synth_spec_parses():
    doc = heredocs()["synth.json"]
    spec = runner.synth_spec_from_dict(doc)
    assert spec.dim == doc["dim"] and spec.seed == doc["seed"]
    assert spec.split_fractions == tuple(doc["split_fractions"])


def test_run_config_parses_and_sets_every_documented_value():
    doc = heredocs()["run.json"]
    cfg = runner.config_from_dict(doc)
    snapshot = runner._config_snapshot(cfg)
    for key, value in doc.items():
        if isinstance(value, dict):
            assert {k: snapshot[key][k] for k in value} == value, key
        elif key in snapshot:
            assert snapshot[key] == value, key
    assert "workers" not in doc
    assert cfg.output_dir == doc["output_dir"]


def test_run_config_round_trips_through_the_report_snapshot():
    cfg = runner.config_from_dict(heredocs()["run.json"])
    doc = {**runner._config_snapshot(cfg), "output_dir": cfg.output_dir}
    assert runner.config_from_dict(doc) == cfg


def test_sweep_config_fits_the_val_split_of_the_synth_store():
    fs = generate(runner.synth_spec_from_dict(heredocs()["synth.json"]))
    cfg = runner.config_from_dict(heredocs()["sweep.json"])
    episode = sample_episode(fs, cfg.episode, 0, split="val")
    assert len(episode.closed_classes) == cfg.episode.n_way
    assert len(episode.open_classes) == cfg.episode.n_open_classes


def test_method_table_lists_exactly_the_registry():
    methods = README.read_text().split("\n## Methods\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `(\w+)` ", methods, re.M) == list(runner.METHODS)


def test_methods_paragraph_lists_exactly_the_section_keys():
    methods = README.read_text().split("\n## Methods\n", 1)[1]
    for section in ("ostim", "baseline"):
        keys = re.search(rf"`{section}`\s+(?:holds\s+)?every setting[^(]*\(([^)]*)\)", methods)[1]
        assert sorted(re.findall(r"`(\w+)`", keys)) == sorted(runner._KEYS[section]), section


def test_python_api_example_runs_on_the_synth_store(tmp_path, monkeypatch):
    code = re.search(r"\n## Python API\n.*?```python\n(.*?)```", README.read_text(), re.S)[1]
    save_feature_store(generate(runner.synth_spec_from_dict(heredocs()["synth.json"])),
                       tmp_path / "store.fsos")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(code, names)
    assert names["sheet"].probs.shape == (16, 150, 6)
    assert len(names["reports"]) == 16
