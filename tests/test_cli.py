"""End-to-end CLI flows and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fsosr
from fsosr.cli import main
from fsosr.feature_store import load_feature_store, sidecar_path


@pytest.fixture
def synth_store(tmp_path):
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(
        json.dumps(
            {
                "dim": 5, "n_classes": 12, "points_per_class": 10,
                "centroid_radius": 1.5, "within_std": 0.4, "seed": 21,
                "split_fractions": [0.25, 0.25, 0.5],
            }
        )
    )
    store = tmp_path / "store.fsos"
    assert main(["synth", "--spec", str(spec_path), "--out", str(store)]) == 0
    return store


def test_synth_creates_loadable_store(synth_store):
    fs = load_feature_store(synth_store)
    assert fs.n == 120 and fs.dim == 5 and fs.n_classes == 12


def test_ingest_round_trip(tmp_path, capsys):
    csv_path = tmp_path / "feats.csv"
    csv_path.write_text("label,f0,f1\na,0.5,1.5\nb,2.5,3.5\na,4.5,5.5\n")
    splits_path = tmp_path / "splits.json"
    splits_path.write_text(json.dumps({"base": ["a"], "val": [], "test": ["b"]}))
    out = tmp_path / "ingested.fsos"
    assert main(["ingest", "--csv", str(csv_path), "--splits", str(splits_path),
                 "--out", str(out)]) == 0
    fs = load_feature_store(out)
    assert fs.class_names == ("a", "b")
    assert "3 vectors" in capsys.readouterr().out


def test_sample_dumps_episodes(synth_store, tmp_path):
    spec_path = tmp_path / "episode.json"
    spec_path.write_text(
        json.dumps({"n_way": 2, "n_shot": 1, "n_query_per_class": 2,
                    "n_open_classes": 1, "seed": 4})
    )
    dump = tmp_path / "episodes"
    assert main(["sample", "--store", str(synth_store), "--spec", str(spec_path),
                 "--n", "3", "--dump", str(dump)]) == 0
    files = sorted(dump.glob("episode_*.json"))
    assert len(files) == 3
    doc = json.loads(files[0].read_text())
    assert len(doc["support_labels"]) == 2
    assert len(doc["query_truth"]) == 6
    assert doc["query_truth"].count(-1) == 2


def test_diagnose_reports_split(synth_store, tmp_path, capsys):
    out = tmp_path / "diag.json"
    assert main(["diagnose", "--store", str(synth_store), "--split", "test",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 0.0 <= doc["mif"] <= 1.0
    assert doc["mif_percent"] == 100.0 * doc["mif"]
    assert doc["rho"] >= 0.0
    assert len(doc["per_class_if"]) == 6


def test_run_and_sweep(synth_store, tmp_path, capsys):
    out_dir = tmp_path / "reports"
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "store": str(synth_store),
                "episodes": {"n_way": 2, "n_shot": 1, "n_query_per_class": 2,
                             "n_open_classes": 1, "seed": 9},
                "methods": ["ostim", "strong_baseline"],
                "n_episodes": 3,
                "output_dir": str(out_dir),
                "ostim": {"n_steps": 5},
            }
        )
    )
    assert main(["run", "--config", str(config)]) == 0
    captured = capsys.readouterr().out
    assert "ostim:" in captured and "strong_baseline:" in captured
    report = json.loads((out_dir / "run_report.json").read_text())
    assert set(report["reports"]) == {"ostim", "strong_baseline"}
    assert (out_dir / "run_report.csv").read_text().startswith("method,shot,")

    assert main(["sweep", "--config", str(config), "--param", "ostim.alpha",
                 "--grid", "0.5,1.0"]) == 0
    sweep_doc = json.loads((out_dir / "sweep.json").read_text())
    assert sweep_doc["best"] in (0.5, 1.0)
    assert len(sweep_doc["table"]) == 2


def test_sweep_leaves_the_run_reports_in_its_output_dir_as_they_were(synth_store, tmp_path):
    out_dir = tmp_path / "reports"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "store": str(synth_store),
        "episodes": {"n_way": 2, "n_shot": 1, "n_query_per_class": 2,
                     "n_open_classes": 1, "seed": 9},
        "methods": ["simpleshot", "knn"], "n_episodes": 3,
        "output_dir": str(out_dir), "ostim": {"n_steps": 5},
    }))
    assert main(["run", "--config", str(config)]) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(before) == ["run_report.csv", "run_report.json"]
    assert main(["sweep", "--config", str(config), "--param", "ostim.alpha",
                 "--grid", "0.5,1.0"]) == 0
    after = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert after.pop("sweep.json")
    assert after == before


def test_an_empty_output_dir_is_the_working_directory(synth_store, tmp_path, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "store": str(synth_store), "n_episodes": 2, "ostim": {"n_steps": 5}, "output_dir": "",
        "episodes": {"n_way": 2, "n_shot": 1, "n_query_per_class": 2, "n_open_classes": 1},
    }))
    assert main(["run", "--config", str(config)]) == 0
    assert main(["sweep", "--config", str(config), "--param", "ostim.alpha",
                 "--grid", "0.5,1.0"]) == 0
    assert sorted(p.name for p in work.iterdir()) == [
        "run_report.csv", "run_report.json", "sweep.json"]


@pytest.mark.parametrize("command", ["run", "sweep --param ostim.alpha --grid 0.5,1.0"])
@pytest.mark.parametrize("output_dir", ["notadir", "notadir/sub"])
def test_output_dir_under_a_file_is_2_before_the_store_loads(
    synth_store, tmp_path, capsys, monkeypatch, command, output_dir
):
    (tmp_path / "notadir").write_text("")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"store": str(synth_store), "n_episodes": 2,
                                  "output_dir": str(tmp_path / output_dir)}))

    def refuse(path):
        raise AssertionError("the store was loaded")

    monkeypatch.setattr("fsosr.runner.load_feature_store", refuse)
    assert main([*command.split(), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "output_dir" in err and "notadir is not a directory" in err
    assert (tmp_path / "notadir").read_text() == ""


# Each command with its output path in ``{out}``, and the flag naming it.
OUTPUT_COMMANDS = {
    "ingest": ("ingest --csv {csv} --splits {splits} --out {out}", "--out"),
    "synth": ("synth --spec {spec} --out {out}", "--out"),
    "sample": ("sample --store {store} --n 2 --dump {out}", "--dump"),
    "diagnose": ("diagnose --store {store} --out {out}", "--out"),
}


def output_argv(command, tmp_path, synth_store, out):
    """The command's argv writing to ``out``, with its inputs in ``tmp_path``."""
    csv_path, splits, spec = tmp_path / "f.csv", tmp_path / "splits.json", tmp_path / "s.json"
    csv_path.write_text("label,f0\na,0.5\nb,1.5\n")
    splits.write_text(json.dumps({"base": ["a"], "test": ["b"]}))
    spec.write_text(json.dumps({"dim": 3, "n_classes": 4, "points_per_class": 5,
                                "centroid_radius": 1.0, "within_std": 0.2}))
    template = OUTPUT_COMMANDS[command][0]
    return template.format(csv=csv_path, splits=splits, spec=spec, store=synth_store,
                           out=out).split()


def refuse_work(monkeypatch):
    """Make every command fail its test if it loads, ingests or generates a store."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output files were checked")

    for name in ("fsosr.cli.ingest_csv", "fsosr.cli.load_feature_store",
                 "fsosr.runner.load_feature_store", "fsosr.synthgen.generate"):
        monkeypatch.setattr(name, refuse)


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_output_under_a_file_is_2_naming_it_before_any_work(
    synth_store, tmp_path, capsys, monkeypatch, command
):
    blocker = tmp_path / "notadir"
    blocker.write_text("")
    out = blocker / "sub" / "o.fsos"
    argv = output_argv(command, tmp_path, synth_store, out)
    refuse_work(monkeypatch)
    assert main(argv) == 2
    flag = OUTPUT_COMMANDS[command][1]
    assert capsys.readouterr().err == f"error: {flag} {str(out)!r}: {blocker} is not a directory\n"
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command", ["ingest", "synth"])
def test_a_sidecar_that_is_a_directory_is_2_before_any_work(
    synth_store, tmp_path, capsys, monkeypatch, command
):
    out = tmp_path / "o.fsos"
    sidecar = sidecar_path(out)
    sidecar.mkdir()
    argv = output_argv(command, tmp_path, synth_store, out)
    refuse_work(monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: --out sidecar {str(sidecar)!r}: {sidecar} is a directory\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, target",
    [
        ("run --config {config}", "run_report.json"),
        ("run --config {config}", "run_report.csv"),
        ("sweep --config {config} --param ostim.alpha --grid 0.5,1.0", "sweep.json"),
        ("sample --store {store} --n 3 --dump {out}", "episode_00002.json"),
    ],
    ids=("run-json", "run-csv", "sweep", "sample"),
)
def test_a_written_file_that_is_a_directory_is_2_before_any_work(
    synth_store, tmp_path, capsys, monkeypatch, argv, target
):
    out = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"store": str(synth_store), "output_dir": str(out)}))
    (out / target).mkdir(parents=True)
    refuse_work(monkeypatch)
    assert main(argv.format(config=config, store=synth_store, out=out).split()) == 2
    flag = "--dump" if target.startswith("episode") else "output_dir"
    path = out / target
    assert capsys.readouterr().err == f"error: {flag} {str(path)!r}: {path} is a directory\n"
    assert [p.name for p in out.iterdir()] == [target]


@pytest.mark.parametrize("command", ["ingest", "synth", "diagnose"])
def test_missing_output_directories_are_made(synth_store, tmp_path, command):
    out = tmp_path / "new" / "deeper" / "o.out"
    assert main(output_argv(command, tmp_path, synth_store, out)) == 0
    assert out.is_file()


def test_a_file_output_that_is_a_directory_is_2(synth_store, tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    assert main(output_argv("diagnose", tmp_path, synth_store, out)) == 2
    assert capsys.readouterr().err == f"error: --out {str(out)!r}: {out} is a directory\n"


@pytest.mark.parametrize(
    "argv, target",
    [
        ("sample --store {store} --spec {spec} --n 2 --dump {out}", "episode_00000.json"),
        ("diagnose --store {store} --out {out}/diag.json", "diag.json"),
        ("sweep --config {config} --param ostim.alpha --grid 0.5,1.0", "sweep.json"),
    ],
    ids=("sample", "diagnose", "sweep"),
)
def test_failed_write_leaves_the_earlier_file_intact(
    synth_store, tmp_path, fill_disk, argv, target
):
    out = tmp_path / "out"
    episodes = {"n_way": 2, "n_shot": 1, "n_query_per_class": 2, "n_open_classes": 1, "seed": 4}
    spec = tmp_path / "episode.json"
    spec.write_text(json.dumps(episodes))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"store": str(synth_store), "episodes": episodes,
                                  "n_episodes": 2, "output_dir": str(out),
                                  "ostim": {"n_steps": 5}}))
    argv = argv.format(store=synth_store, spec=spec, out=out, config=config).split()
    out.mkdir()
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert target in before
    fill_disk()
    with pytest.raises(OSError, match="No space left"):
        main(argv)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"methods": ["knn"]}))
        assert main(["run", "--config", str(config)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_method_listed_twice_is_2_before_the_store_loads(self, tmp_path, capsys):
        config = tmp_path / "twice.json"
        config.write_text(json.dumps({"store": str(tmp_path / "absent.fsos"),
                                      "methods": ["knn", "simpleshot", "knn"]}))
        assert main(["run", "--config", str(config)]) == 2
        assert "method 'knn' is listed more than once" in capsys.readouterr().err

    def test_bad_config_value_is_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"store": "store.fsos", "n_episodes": "abc"}))
        assert main(["run", "--config", str(config)]) == 2
        assert "n_episodes" in capsys.readouterr().err

    @pytest.mark.parametrize("section", [{"n_way": 1}, {"n_way": "5"}])
    def test_bad_episode_section_is_2_for_sample_and_run(
        self, synth_store, tmp_path, capsys, section
    ):
        spec = tmp_path / "episode.json"
        spec.write_text(json.dumps(section))
        assert main(["sample", "--store", str(synth_store), "--spec", str(spec),
                     "--dump", str(tmp_path / "episodes")]) == 2
        sample_err = capsys.readouterr().err
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"store": str(synth_store), "episodes": section}))
        assert main(["run", "--config", str(config)]) == 2
        # One parser: the same message from both commands.
        assert capsys.readouterr().err == sample_err

    @pytest.mark.parametrize("value, key", [
        ({"split_fractions": 5}, "synth.split_fractions"),
        ({"split_fractions": [0.5, 0.5, "a"]}, "synth.split_fractions[2]"),
        ({"n_classes": 2.5}, "synth.n_classes"),
        ({"global_shift": "abc"}, "synth.global_shift"),
        ({"global_shift": [1.0, 2.0]}, "synth config: global_shift"),
        ({"centroid_radius": None}, "synth.centroid_radius"),
        ({"variant": "closed"}, "unknown synth config keys"),
    ])
    def test_bad_synth_spec_is_2_naming_the_key(self, tmp_path, capsys, value, key):
        spec = {"dim": 5, "n_classes": 12, "points_per_class": 10,
                "centroid_radius": 1.5, "within_std": 0.4}
        spec_path = tmp_path / "synth.json"
        spec_path.write_text(json.dumps({**spec, **value}))
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "s.fsos")]) == 2
        assert key in capsys.readouterr().err

    def test_malformed_split_file_is_3(self, tmp_path, capsys):
        csv_path = tmp_path / "feats.csv"
        csv_path.write_text("a,0.5,1.5\nb,2.5,3.5\n")
        splits_path = tmp_path / "splits.json"
        splits_path.write_text(json.dumps({"base": [None], "test": ["b"]}))
        assert main(["ingest", "--csv", str(csv_path), "--splits", str(splits_path),
                     "--out", str(tmp_path / "o.fsos")]) == 3
        assert "split 'base' entry None" in capsys.readouterr().err

    def test_a_bad_first_row_is_3_naming_line_1(self, tmp_path, capsys):
        # Line 1 is a header only when none of its feature fields is a number.
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("a,x,1.0\nb,2.5,3.5\n")
        splits_path = tmp_path / "splits.json"
        splits_path.write_text(json.dumps({"base": ["a"], "test": ["b"]}))
        argv = ["ingest", "--csv", str(csv_path), "--splits", str(splits_path),
                "--out", str(tmp_path / "o.fsos")]
        assert main(argv) == 3
        assert f"{csv_path}:1: bad feature value" in capsys.readouterr().err
        csv_path.write_text("label,f0,f1\na,0.5,1.5\nb,2.5,3.5\n")
        assert main(argv) == 0
        assert load_feature_store(tmp_path / "o.fsos").n == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf", "1e39"])
    def test_a_non_finite_feature_is_3_naming_its_line(self, tmp_path, capsys, value):
        # 1e39 parses as a float but overflows float32; no numpy warning is printed.
        csv_path = tmp_path / "features.csv"
        csv_path.write_text(f"label,f0,f1\na,0.5,1.5\nb,2.5,{value}\n")
        splits_path = tmp_path / "splits.json"
        splits_path.write_text(json.dumps({"base": ["a"], "test": ["b"]}))
        argv = ["ingest", "--csv", str(csv_path), "--splits", str(splits_path),
                "--out", str(tmp_path / "o.fsos")]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {csv_path}:3: feature 1 is '{value}', which is not a finite float32\n"
        )
        assert not (tmp_path / "o.fsos").exists()

    @pytest.mark.parametrize("text", [
        'a,0.5\n"b\nc",1.5\nd,x\n',
        # A header that spans two lines is still the first record.
        '"lab\nel",f0\nb,1.5\nd,x\n',
    ], ids=["quoted-label", "quoted-header"])
    def test_a_record_is_named_by_the_line_it_ends_on(self, tmp_path, capsys, text):
        csv_path = tmp_path / "f.csv"
        csv_path.write_text(text)
        splits_path = tmp_path / "splits.json"
        splits_path.write_text(json.dumps({"test": ["a", "b", "b\nc", "d"]}))
        assert main(["ingest", "--csv", str(csv_path), "--splits", str(splits_path),
                     "--out", str(tmp_path / "o.fsos")]) == 3
        assert capsys.readouterr().err.startswith(f"error: {csv_path}:4: bad feature value")

    def test_missing_config_file_is_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_data_error_is_3(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"store": str(tmp_path / "absent.fsos"),
                                      "methods": ["knn"], "n_episodes": 1}))
        assert main(["run", "--config", str(config)]) == 3

    def test_corrupt_store_is_3(self, synth_store, tmp_path, capsys):
        raw = bytearray(synth_store.read_bytes())
        raw[40] ^= 0x5A
        synth_store.write_bytes(bytes(raw))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"store": str(synth_store), "methods": ["knn"],
                                      "episodes": {"n_way": 2, "n_query_per_class": 2,
                                                   "n_open_classes": 1},
                                      "n_episodes": 1}))
        assert main(["run", "--config", str(config)]) == 3

    @pytest.mark.parametrize("grid, value", [
        ("-1", "-1.0"), ("nan", "nan"), ("inf", "inf"), ("0.5,nan", "nan"),
    ])
    def test_bad_sweep_grid_is_2_naming_the_value(self, tmp_path, capsys, grid, value):
        # An absent store would exit 3: every grid point is checked before the load.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"store": str(tmp_path / "absent.fsos")}))
        assert main(["sweep", "--config", str(config), "--param", "ostim.alpha",
                     "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert f"alpha must be finite and >= 0, got {value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n", ["-1", "-2"])
    def test_negative_sample_count_is_2(self, synth_store, tmp_path, capsys, n):
        dump = tmp_path / "episodes"
        assert main(["sample", "--store", str(synth_store), "--n", n,
                     "--dump", str(dump)]) == 2
        assert f"--n must be >= 0, got {n}" in capsys.readouterr().err
        assert not dump.exists()

    def test_sweep_rejects_other_params(self, synth_store, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"store": str(synth_store)}))
        assert main(["sweep", "--config", str(config), "--param", "ostim.lr",
                     "--grid", "0.1"]) == 2

    @pytest.mark.parametrize("method", ["knn", "strong_baseline"])
    def test_knn_k_above_the_support_size_is_2_before_the_store_loads(
        self, tmp_path, capsys, method
    ):
        # An absent store would exit 3: the check runs before the load.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"store": str(tmp_path / "absent.fsos"),
                                      "episodes": {"n_way": 5, "n_shot": 1},
                                      "methods": [method], "baseline": {"knn_k": 10}}))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "baseline.knn_k" in err and "support size 5" in err and "got 10" in err

    # ``ostim`` sections whose refinement overflows: a step that throws a
    # prototype out of float64 range, and logits that do not fit in it. (At
    # 1e300 the logits fit: the probabilities are one-hot and refinement runs.)
    OVERFLOWS = {
        "lr": {"lr": 1e160, "n_steps": 5},
        "temperature": {"n_steps": 3, "temperature": 1e308},
    }

    @staticmethod
    def overflow_config(synth_store, tmp_path, ostim=OVERFLOWS["lr"]):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"store": str(synth_store), "n_episodes": 3,
                                      "episodes": {"n_way": 3, "n_query_per_class": 5,
                                                   "n_open_classes": 2},
                                      "methods": ["ostim", "tim_closed"],
                                      "ostim": ostim}))
        return config

    def test_step_size_that_overflows_a_prototype_is_4(self, synth_store, tmp_path, capsys):
        config = self.overflow_config(synth_store, tmp_path)
        assert main(["run", "--config", str(config)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: episode 0, method ostim: ")
        assert "overflows" in captured.err and captured.out == ""

    @pytest.mark.parametrize("ostim", OVERFLOWS.values(), ids=OVERFLOWS.keys())
    def test_overflow_error_is_the_first_line_of_stderr(self, synth_store, tmp_path, ostim):
        # In a fresh interpreter, where a numpy RuntimeWarning would print
        # to stderr ahead of the run's own message.
        config = self.overflow_config(synth_store, tmp_path, ostim)
        src = str(Path(fsosr.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "fsosr.cli", "run", "--config", str(config)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert done.returncode == 4
        assert done.stderr.startswith("error: episode 0, method ostim: "), done.stderr
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("method", ["ostim", "tim_closed", "explicit_dummy"])
    def test_logits_whose_shift_overflows_run_with_an_empty_stderr(self, tmp_path, method):
        # At temperature 1e308 the logits fit in float64 but their softmax
        # shift does not, which must not print a numpy RuntimeWarning.
        spec = tmp_path / "synth.json"
        spec.write_text(json.dumps({"dim": 5, "n_classes": 12, "points_per_class": 10,
                                    "seed": 1, "centroid_radius": 1.0, "within_std": 0.3}))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"store": str(tmp_path / "store.fsos"), "n_episodes": 3,
                                      "episodes": {"n_way": 3, "n_query_per_class": 5,
                                                   "n_open_classes": 2},
                                      "methods": [method],
                                      "ostim": {"n_steps": 0, "temperature": 1e308}}))
        src = str(Path(fsosr.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for command in (["synth", "--spec", str(spec), "--out", str(tmp_path / "store.fsos")],
                        ["run", "--config", str(config)]):
            done = subprocess.run([sys.executable, "-m", "fsosr.cli", *command],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert (done.returncode, done.stderr) == (0, "")

    def test_missing_store_is_3_starting_with_its_path(self, tmp_path, capsys):
        store = tmp_path / "missing.fsos"
        assert main(["diagnose", "--store", str(store)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {store}: cannot read store")

    def test_missing_sidecar_is_3_starting_with_its_path(self, synth_store, capsys):
        sidecar_path(synth_store).unlink()
        assert main(["diagnose", "--store", str(synth_store)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sidecar_path(synth_store)}: missing sidecar")

    def test_duplicate_class_names_are_3(self, synth_store, capsys):
        meta = json.loads(sidecar_path(synth_store).read_text())
        meta["class_names"][3] = meta["class_names"][0]
        sidecar_path(synth_store).write_text(json.dumps(meta))
        assert main(["diagnose", "--store", str(synth_store)]) == 3
        name = meta["class_names"][0]
        assert f"classes 0 and 3 share the name {name!r}" in capsys.readouterr().err

    def test_divergence_exit_code_is_4(self):
        from fsosr import DivergenceError

        assert DivergenceError("x").exit_code == 4


# Each command that reads an input file: its argv, the file a case spoils,
# the name its messages give that file and the exit code when it is bad.
# ``cfg`` is a valid run config on the store, and ``csv``/``splits`` a valid
# ingest pair, so the spoiled file is the first one to fail.
INPUT_FILES = {
    "run --config": ("run --config {cfg}", "cfg", "config", 2),
    "sweep --config": ("sweep --config {cfg} --param ostim.alpha --grid 0.1", "cfg", "config", 2),
    "synth --spec": ("synth --spec {spec} --out {out}", "spec", "synth spec", 2),
    "sample --spec": ("sample --store {store} --spec {spec} --dump {dump}", "spec",
                      "episode spec", 2),
    "ingest --splits": ("ingest --csv {csv} --splits {splits} --out {out}", "splits",
                        "split file", 3),
    "run sidecar": ("run --config {cfg}", "sidecar", "sidecar metadata", 3),
    "diagnose sidecar": ("diagnose --store {store}", "sidecar", "sidecar metadata", 3),
    "ingest --csv": ("ingest --csv {csv} --splits {splits} --out {out}", "csv", "CSV", 3),
}
# Each way to spoil a file: its bytes (None: made by ``spoil``) and how the
# message goes on after the file's path.
JSON_FAILURES = {
    "missing": (None, "missing {what}"),
    "a directory": (None, "cannot read {what}"),
    "not UTF-8": (b'{"store": "\xff"}', "{what} is not valid JSON"),
    "not JSON": (b"{not json", "{what} is not valid JSON"),
    "nested 100,000 deep": (b"[" * 100_000 + b"]" * 100_000, "{what} is not valid JSON"),
    "not an object": (b"[1, 2]", "{what} must be a JSON object"),
}
CSV_FAILURES = {
    "missing": (None, "cannot read {what} (["),
    "a directory": (None, "cannot read {what} (["),
    "not UTF-8": (b"a,0.5\nb\xff,1.5\n", "cannot read {what} ('utf-8' codec can't decode"),
    "a 200,000-character field": (b"a,0.5\nb," + b"1" * 200_000 + b"\n",
                                  "cannot read {what} (field larger than field limit"),
    "an unterminated quote": (b'a,0.5\nb,"1.5\n', "cannot read {what} (unexpected end of data"),
    "text after a closing quote": (b'a,0.5\nb,"1.5"x\n',
                                   "cannot read {what} (',' expected after '\"'"),
}


def spoil(path: Path, data: bytes | None, failure: str) -> None:
    """Make ``path`` missing, a directory or a file holding ``data``."""
    path.unlink(missing_ok=True)
    if failure == "a directory":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)


@pytest.mark.parametrize("command, failure", [
    *((command, failure) for command in INPUT_FILES if command != "ingest --csv"
      for failure in JSON_FAILURES),
    *(("ingest --csv", failure) for failure in CSV_FAILURES),
])
def test_an_unreadable_input_file_is_one_line_naming_it(
    synth_store, tmp_path, capsys, command, failure
):
    argv, spoiled, what, code = INPUT_FILES[command]
    files = {name: tmp_path / f"input_{name}" for name in ("cfg", "spec", "csv", "splits")}
    files["cfg"].write_text(json.dumps({
        "store": str(synth_store), "methods": ["knn"], "n_episodes": 1,
        "episodes": {"n_way": 2, "n_query_per_class": 2, "n_open_classes": 1},
    }))
    files["csv"].write_text("a,0.5\nb,1.5\n")
    files["splits"].write_text(json.dumps({"base": ["a"], "test": ["b"]}))
    files["sidecar"] = sidecar_path(synth_store)
    data, problem = (CSV_FAILURES if spoiled == "csv" else JSON_FAILURES)[failure]
    path = files[spoiled]
    spoil(path, data, failure)
    argv = argv.format(store=synth_store, out=tmp_path / "out.fsos", dump=tmp_path / "dump",
                       **files).split()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {problem.format(what=what)}"), err
    assert err.count("\n") == 1 and "Traceback" not in err
