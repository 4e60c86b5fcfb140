"""The README's example documents parse with the config parsers that
``fsosr synth``, ``fsosr run`` and ``fsosr sweep`` use, and set what they
say they set."""

from __future__ import annotations

import json
import re
from pathlib import Path

from fsosr import generate, runner, sample_episode

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
    assert cfg.workers == doc["workers"] and cfg.output_dir == doc["output_dir"]


def test_sweep_config_fits_the_val_split_of_the_synth_store():
    fs = generate(runner.synth_spec_from_dict(heredocs()["synth.json"]))
    cfg = runner.config_from_dict(heredocs()["sweep.json"])
    episode = sample_episode(fs, cfg.episode, 0, split="val")
    assert len(episode.closed_classes) == cfg.episode.n_way
    assert len(episode.open_classes) == cfg.episode.n_open_classes


def test_method_table_lists_exactly_the_registry():
    methods = README.read_text().split("\n## Methods\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `(\w+)` ", methods, re.M) == list(runner.METHODS)
