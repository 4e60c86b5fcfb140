"""One benchmark run of one workload through the public fsosr API.

The path is the one ``fsosr run`` takes apart from argparse:
``runner.load_config`` + ``feature_store.load_feature_store`` (set-up), then
``runner.run(cfg, fs=fs)`` repeatedly on a fixed-size episode stream. Every
call is checked; a call that raises or fails a check counts all of its
method x episode evaluations as failed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fsosr import episodes, feature_store, runner
from fsosr.feature_store import sidecar_path

import tracing
import workloads

END_TO_END_UNITS = {
    "episodes_per_s": "episode/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

LAYER_UNITS = {
    "feature_store.load_feature_store.busy_s": "s",
    "feature_store.load_feature_store.bytes": "B",
    "feature_store.load_feature_store.peak_traced_mb": "MB",
    "feature_store.base_mean.busy_s": "s",
    "episodes.sample_episode.calls": "1/episode",
    "episodes.sample_episode.busy_s": "s/episode",
    "episodes.sample_episode.ms_p50": "ms",
    "episodes.sample_episode.ms_tail": "ms",
    "episodes.sample_episode.tail_pct": "%",
    "episodes.sample_episode.samples": "count",
    "transforms.center_normalize.calls": "1/episode",
    "transforms.center_normalize.busy_s": "s/episode",
    "transforms.center_normalize.unique_frac": "ratio",
    "ostim.loss_and_grad.calls": "1/episode",
    "ostim.loss_and_grad.us_p50": "us",
    "ostim.loss_and_grad.us_tail": "us",
    "ostim.loss_and_grad.tail_pct": "%",
    "ostim.loss_and_grad.samples": "count",
    "ostim.loss_and_grad.flops_computed": "flop/episode",
    "ostim.refine.calls": "1/episode",
    "ostim.refine.busy_s": "s/episode",
    "ostim.refine.self_s": "s/episode",
    "ostim.init_prototypes.busy_s": "s/episode",
    "ostim.predict.busy_s": "s/episode",
    "baselines.simpleshot_classify.calls": "1/episode",
    "baselines.simpleshot_classify.busy_s": "s/episode",
    "baselines.knn_outlier_score.calls": "1/episode",
    "baselines.knn_outlier_score.busy_s": "s/episode",
    "baselines.knn_outlier_score.bytes_computed": "B/episode",
    "metrics.score_episode.calls": "1/episode",
    "metrics.score_episode.busy_s": "s/episode",
    "metrics.aggregate.busy_s": "s/episode",
    **{f"runner.evaluate_method.{m}.busy_s": "s/episode" for m in tracing.METHODS},
    "runner.write_reports.busy_s": "s/episode",
    "runner.episode_checksum.busy_s": "s/episode",
    "runner.self_s": "s/episode",
    "runner.concurrency": "ratio",
    "trace.overhead_frac": "ratio",
}

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# Allowed distance of a metric mean from its recorded value. One flipped
# rank pair in one reference episode moves a mean by more than 1e-6.
MEAN_TOLERANCE = 1e-7

MIN_CALLS = 3
SETUP_EVERY = 3
SETUP_BATCH_S = 0.05
SETUP_BATCH_MAX = 20


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, evaluations: int, problem: str | None) -> None:
        self.attempted += evaluations
        if problem is not None:
            self.failed += evaluations
            self.problems.append(problem)


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in workloads.THREAD_ENV},
        "seed": seed,
    }


def ensure_store(root: Path, wl: workloads.Workload) -> Path:
    """The workload's cached store, generated in a child process if absent."""
    path = wl.store_path(root)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        # A plain child process, waited for (and killed on any way out of
        # subprocess.run): multiprocessing would also leave its resource
        # tracker process running past the end of the benchmark.
        proc = subprocess.run(
            [sys.executable, workloads.__file__, json.dumps(wl.synth), str(path)],
            stdin=subprocess.DEVNULL,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"store generation for {wl.name} exited with {proc.returncode}")
    return path


def timed_setup(config_path: Path, times: list[float]):
    """``load_config`` + ``load_feature_store``, appending each wall time.

    Small stores load in well under a millisecond, so loads repeat until the
    batch spans SETUP_BATCH_S (at most SETUP_BATCH_MAX loads).
    """
    cfg = fs = None
    batch: list[float] = []
    while not batch or (sum(batch) < SETUP_BATCH_S and len(batch) < SETUP_BATCH_MAX):
        fs = None  # one store in memory at a time
        start = time.perf_counter()
        cfg = runner.load_config(config_path)
        fs = feature_store.load_feature_store(cfg.store)
        batch.append(time.perf_counter() - start)
    times.extend(batch)
    return cfg, fs


def episode_stream_crc(fs, spec, n_episodes: int) -> str:
    """The stream CRC the runner must report, recomputed from the sampler:
    CRC-32 over each episode's support/query arrays, folded as u32 LE."""
    crc = 0
    for index in range(n_episodes):
        ep = episodes.sample_episode(fs, spec, index, split="test")
        episode_crc = 0
        for arr in (ep.support_vectors, ep.support_labels, ep.query_vectors, ep.query_truth):
            episode_crc = zlib.crc32(np.ascontiguousarray(arr), episode_crc)
        crc = zlib.crc32(episode_crc.to_bytes(4, "little"), crc)
    return f"{crc:08x}"


def call_run(cfg, fs) -> tuple[float, bytes | None, str | None]:
    """Time one runner.run call; return its seconds, report bytes and error."""
    report = Path(cfg.output_dir) / "run_report.json"
    report.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        runner.run(cfg, fs=fs)
    except Exception as exc:  # the benchmark counts every failure and goes on
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, None, f"runner.run raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, report.read_bytes(), None


def reference_problem(report: bytes, reference: dict) -> str | None:
    """Compare a reference-seed report with the recorded CRC and means."""
    doc = json.loads(report)
    if doc["episode_stream_crc32"] != reference["episode_stream_crc32"]:
        return (f"reference stream crc {doc['episode_stream_crc32']} != "
                f"{reference['episode_stream_crc32']}")
    for method, means in reference["means"].items():
        metrics = doc["reports"][method]["metrics"]
        for name, want in means.items():
            got = None if metrics[name] is None else metrics[name]["mean"]
            if (got is None) != (want is None) or (
                got is not None and abs(got - want) > MEAN_TOLERANCE
            ):
                return f"reference {method}.{name} mean {got!r} != {want!r}"
    return None


class MeasuredCheck:
    """Every call on the measured seed must report the recomputed stream CRC
    and the same run_report.json bytes as the first call."""

    def __init__(self, expected_crc: str) -> None:
        self.expected_crc = expected_crc
        self.first: bytes | None = None

    def __call__(self, report: bytes) -> str | None:
        crc = json.loads(report)["episode_stream_crc32"]
        if crc != self.expected_crc:
            return f"stream crc {crc} != recomputed {self.expected_crc}"
        if self.first is None:
            self.first = report
        elif report != self.first:
            return "run_report.json differs between calls of one invocation"
        return None


def timed_calls(config_path: Path, budget_s: float, check, tally: Tally,
                evaluations: int, setup_times: list[float]) -> list[float]:
    """Call runner.run until the budget is spent (at least MIN_CALLS times),
    setting up afresh, as ``fsosr run`` does, before every SETUP_EVERY-th
    call, so set-up samples spread over the whole run. Returns the
    episodes/s of each good call."""
    rates: list[float] = []
    deadline = time.perf_counter() + budget_s
    calls = 0
    while True:
        if calls % SETUP_EVERY == 0:
            fs = None  # one store in memory at a time
            cfg, fs = timed_setup(config_path, setup_times)
        elapsed, report, problem = call_run(cfg, fs)
        if problem is None:
            problem = check(report)
        tally.record(evaluations, problem)
        if problem is None:
            rates.append(cfg.n_episodes / elapsed)
        calls += 1
        if calls >= MIN_CALLS and time.perf_counter() + elapsed > deadline:
            return rates


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _throughput(rates) -> float:
    """Episodes per second over all good calls of the run: total episodes /
    total call time, which is the harmonic mean of the per-call rates
    because every call evaluates the same number of episodes."""
    return statistics.harmonic_mean(rates) if rates else 0.0


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the details, whose ``result`` is the result line."""
    wl = workloads.WORKLOADS[name]
    out = root / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    out.mkdir(parents=True, exist_ok=True)
    store = ensure_store(root, wl)

    config_paths = {}
    for kind, run_seed in (("measured", seed), ("reference", workloads.REFERENCE_SEED)):
        path = out / f"{kind}.json"
        path.write_text(json.dumps(wl.config_doc(store, run_seed, out / kind), indent=2))
        config_paths[kind] = path

    tally = Tally()
    evaluations = wl.evaluations_per_call
    setup_times: list[float] = []
    cfg, fs = timed_setup(config_paths["measured"], setup_times)

    # The reference call also warms caches before anything is timed.
    reference = json.loads(REFERENCE_FILE.read_text())[name]
    _, report, problem = call_run(runner.load_config(config_paths["reference"]), fs)
    if problem is None:
        problem = reference_problem(report, reference)
    tally.record(evaluations, problem)
    check = MeasuredCheck(episode_stream_crc(fs, cfg.episode, cfg.n_episodes))
    fs = None

    def measure(budget_s: float) -> list[float]:
        return timed_calls(config_paths["measured"], budget_s, check, tally, evaluations, setup_times)

    details: dict = {"workload": name, "machine": machine_facts(seed)}
    if not trace:
        rates = measure(seconds)
        details["episodes_per_s_calls"] = rates
        metrics = {
            "episodes_per_s": _throughput(rates),
            "setup_s": _median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - tally.failed / tally.attempted,
        }
        units = END_TO_END_UNITS
    else:
        # A third of the time untraced, for the overhead; the rest traced, so
        # the per-call tails rest on more samples.
        plain = measure(seconds / 3)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = measure(seconds * 2 / 3)
        tracemalloc.start()
        feature_store.load_feature_store(store)
        peak_traced = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        n_traced_calls = sum(1 for sp in tracer.spans if sp.name == "runner.run")
        metrics = tracing.summarize(tracer.spans, n_traced_calls * cfg.n_episodes)
        metrics["feature_store.load_feature_store.bytes"] = float(
            store.stat().st_size + sidecar_path(store).stat().st_size
        )
        metrics["feature_store.load_feature_store.peak_traced_mb"] = peak_traced / 2**20
        traced_rate = _throughput(traced)
        metrics["trace.overhead_frac"] = _throughput(plain) / traced_rate - 1.0 if traced_rate else 0.0
        details["episodes_per_s_calls"] = {"untraced": plain, "traced": traced}
        tracing.write_spans(tracer.spans, out / "spans.jsonl")
        units = LAYER_UNITS
    details["setup_times_s"] = setup_times

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": unit} for key, unit in units.items()},
    }
    details.update(problems=tally.problems, result=result)
    (out / "result.json").write_text(json.dumps(details, indent=2))
    return details
