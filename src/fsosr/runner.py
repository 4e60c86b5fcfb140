"""Run orchestration: config parsing, the paired episode loop, method
dispatch, the validation sweep, and report emission.

Every method in a run consumes the identical episode stream (same
``(seed, index)`` pairs), so cross-method comparisons are paired. Each
method section (``OstimConfig``, ``BaselineConfig``) holds all of its
settings, centering and ``variant`` included, and ``_KEYS`` declares their
JSON keys once, for parsing and the report snapshot. ``METHODS`` maps each
method name to the ``RunConfig`` field of its section and to its chunk
evaluator ``evaluate(section, view, done)``. The stream is cut into chunks
of ``CHUNK_SIZE`` episodes and the work into units: a chunk with one
``ostim``-section method, or with all of its ``baseline``-section methods,
so ``strong_baseline`` reuses the ``simpleshot`` and ``knn`` reports. A
worker stacks and normalizes a chunk once per centering in use into a
``NormalizedChunk`` ``view``, all an evaluator reads, and shares it among
its units of that chunk; each chunk's one sheet or score array is scored
by one ``score_chunk`` call. Units run in up to one process per CPU of the
affinity mask: this process and children forked from it, each of n
taking every n-th unit. Results are reduced in unit order and depend
neither on the chunk nor on the process count. A failing unit stops every
worker before its next later unit; the earliest failing chunk is then
evaluated again in this process and replayed one episode at a time,
methods in config order, to name the first failing (episode, method) in
stream order.
"""

from __future__ import annotations

import csv
import ctypes
import json
import mmap
import os
import pickle
import signal
import struct
import zlib
from collections.abc import Callable
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import baselines, ostim
from .episodes import Episode, EpisodeSpec, sample_episode
from .errors import ConfigError, DataError, FsosrError, integer, number
from .feature_store import (FeatureSet, atomic_write, base_mean, check_output_path,
                            load_feature_store)
from .metrics import METRIC_NAMES, EpisodeReport, RunReport, aggregate, score_chunk
from .synthgen import SynthSpec
from .transforms import NormalizedChunk, normalize_chunk

# Consecutive episodes evaluated together; reports do not depend on it.
CHUNK_SIZE = 16

# The files ``run`` and ``fsosr sweep`` write into ``output_dir``.
REPORT_FILES = ("run_report.json", "run_report.csv")
SWEEP_FILE = "sweep.json"

# prctl(2)'s option to signal a process when its parent ends (Linux).
_PR_SET_PDEATHSIG = 1

# A method section of the run config.
Section = ostim.OstimConfig | baselines.BaselineConfig


@dataclass(frozen=True)
class RunConfig:
    """A parsed run config; ``ostim_cfg`` and ``baseline_cfg`` are its method sections."""

    store: str
    episode: EpisodeSpec = field(default_factory=EpisodeSpec)
    methods: tuple[str, ...] = ("ostim",)
    n_episodes: int = 600
    output_dir: str | None = None
    ostim_cfg: ostim.OstimConfig = field(default_factory=ostim.OstimConfig)
    baseline_cfg: baselines.BaselineConfig = field(default_factory=baselines.BaselineConfig)

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigError("methods must be a nonempty list")
        for m in self.methods:
            if not isinstance(m, str) or m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected one of {tuple(METHODS)}")
            if self.methods.count(m) > 1:
                raise ConfigError(f"method {m!r} is listed more than once in methods")
        object.__setattr__(self, "n_episodes", integer(self.n_episodes, "n_episodes"))
        if self.n_episodes < 1:
            raise ConfigError(f"n_episodes must be >= 1, got {self.n_episodes}")
        support = self.episode.n_way * self.episode.n_shot
        if {"knn", "strong_baseline"} & set(self.methods) and self.baseline_cfg.knn_k > support:
            raise ConfigError(f"baseline.knn_k must be at most the support size {support} "
                              f"(n_way * n_shot), got {self.baseline_cfg.knn_k}")


class Method(NamedTuple):
    section: str  # the RunConfig field holding its section ("ostim_cfg" or "baseline_cfg")
    evaluate: Callable[[Section, NormalizedChunk, dict], list[EpisodeReport]]


def _scored(sheet, view: NormalizedChunk) -> list[EpisodeReport]:
    return score_chunk(view.query_truth, sheet.outlier_score, sheet.closed_pred)


def _refined(variant: ostim.Variant | None):
    """Refine the chunk with ``variant``, or with the section's own when it is None."""

    def evaluate(ocfg, view, done):
        ps = ostim.init_prototypes(view, variant or ocfg.variant)
        return _scored(ostim.predict(ostim.refine(ps, view, ocfg), view, ocfg), view)

    return evaluate


def _simpleshot(bcfg, view, done):
    return _scored(baselines.simpleshot_chunk(view, bcfg.temperature), view)


def _knn(bcfg, view, done):
    return score_chunk(view.query_truth, baselines.knn_chunk(view, bcfg.knn_k))


def _strong_baseline(bcfg, view, done):
    """``knn``'s reports with ``simpleshot``'s accuracy, at the same centering."""
    simpleshot, knn = (
        done[m] if m in done else METHODS[m].evaluate(bcfg, view, done)
        for m in ("simpleshot", "knn")
    )
    return [replace(k, acc=s.acc) for s, k in zip(simpleshot, knn)]


METHODS: dict[str, Method] = {
    "ostim": Method("ostim_cfg", _refined(None)),
    "tim_closed": Method("ostim_cfg", _refined(ostim.Variant.CLOSED)),
    "explicit_dummy": Method("ostim_cfg", _refined(ostim.Variant.EXPLICIT_DUMMY)),
    "simpleshot": Method("baseline_cfg", _simpleshot),
    "knn": Method("baseline_cfg", _knn),
    "strong_baseline": Method("baseline_cfg", _strong_baseline),
}


def _numbers(value, key: str) -> tuple:
    """A JSON list of finite numbers as a tuple, else ConfigError."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(number(v, f"{key}[{i}]") for i, v in enumerate(value))


# How ``_build`` reads a field's JSON value, by the field's annotation.
_PARSERS = {
    "int": integer,
    "float": number,
    "tuple[float, float, float]": _numbers,
    "float | tuple[float, ...]":
        lambda v, key: _numbers(v, key) if isinstance(v, list) else number(v, key),
}


# Each section's JSON keys and the dataclass fields they set.
_KEYS = {
    "episodes": {f.name: f.name for f in fields(EpisodeSpec)},
    "synth": {f.name: f.name for f in fields(SynthSpec)},
    "ostim": {"alpha": "alpha", "n_steps": "n_steps", "lr": "learning_rate",
              "temperature": "temperature", "variant": "variant", "centering": "centering"},
    "baseline": {"knn_k": "knn_k", "temperature": "temperature", "centering": "centering"},
}


def _build(cls, section, context: str):
    """``cls`` from the JSON object of section ``context``, its ``_KEYS`` read by ``_PARSERS``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{context} config must be a JSON object, got {section!r}")
    fields_map = _KEYS[context]
    unknown = set(section) - set(fields_map)
    if unknown:
        raise ConfigError(f"unknown {context} config keys: {sorted(unknown)}")
    kinds = {f.name: f.type for f in fields(cls)}
    kwargs = {
        attr: _PARSERS.get(kinds[attr], lambda v, _: v)(section[key], f"{context}.{key}")
        for key, attr in fields_map.items()
        if key in section
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {context} config: {exc}") from exc


def episode_spec_from_dict(section) -> EpisodeSpec:
    """Parse and validate an ``episodes`` section (an EpisodeSpec document)."""
    return _build(EpisodeSpec, section, "episodes")


def synth_spec_from_dict(section) -> SynthSpec:
    """Parse and validate a ``synth`` spec (a SynthSpec document)."""
    return _build(SynthSpec, section, "synth")


def config_from_dict(doc: dict) -> RunConfig:
    """Parse and validate the JSON run-config document."""
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    known = {
        "store", "episodes", "methods", "n_episodes", "workers", "output_dir",
        "ostim", "baseline",
    }
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "store" not in doc:
        raise ConfigError("config is missing the 'store' path")

    episode = episode_spec_from_dict(doc.get("episodes", {}))
    ostim_cfg = _build(ostim.OstimConfig, doc.get("ostim", {}), "ostim")
    baseline_cfg = _build(baselines.BaselineConfig, doc.get("baseline", {}), "baseline")

    methods = doc.get("methods", ["ostim"])
    if not isinstance(methods, list):
        raise ConfigError("methods must be a list of method names")
    if not isinstance(doc["store"], str):
        raise ConfigError(f"store must be a path string, got {doc['store']!r}")
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a path string, got {output_dir!r}")
    # ``workers`` selects nothing; older configs set it, so it is checked and dropped.
    workers = integer(doc.get("workers", 1), "workers")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return RunConfig(
        store=doc["store"],
        episode=episode,
        methods=tuple(methods),
        n_episodes=doc.get("n_episodes", 600),
        output_dir=output_dir,
        ostim_cfg=ostim_cfg,
        baseline_cfg=baseline_cfg,
    )


def read_json(path: str | Path, what: str = "config") -> dict:
    """The JSON object in the file at ``path``; ConfigError if it cannot be
    read, is not JSON or is not an object. ``what`` names it in messages."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return doc


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(read_json(path))


def _config_snapshot(cfg: RunConfig) -> dict:
    def section(obj, context: str) -> dict:
        return {key: getattr(obj, attr) for key, attr in _KEYS[context].items()}

    return {
        "store": cfg.store,
        "episodes": section(cfg.episode, "episodes"),
        "methods": list(cfg.methods),
        "n_episodes": cfg.n_episodes,
        "ostim": section(cfg.ostim_cfg, "ostim"),
        "baseline": section(cfg.baseline_cfg, "baseline"),
    }


def episode_checksum(episode: Episode) -> int:
    """CRC-32 over the episode payload; used to verify paired streams."""
    crc = 0
    for arr in (
        episode.support_vectors, episode.support_labels,
        episode.query_vectors, episode.query_truth,
    ):
        crc = zlib.crc32(np.ascontiguousarray(arr), crc)
    return crc & 0xFFFFFFFF


def evaluate_method(
    method: str, episodes: list[Episode], cfg: RunConfig, base_mu: np.ndarray | None,
    done: dict[str, list[EpisodeReport]], views: dict[str, NormalizedChunk],
) -> list[EpisodeReport]:
    """Score one method on a chunk of same-shape episodes, in order.

    ``done`` holds the chunk's reports so far and ``views`` the chunk at each
    centering so far, to which a missing one is added. A failure raises the
    error of some failing episode; ``_evaluate_chunk`` names it and the method.
    """
    section = getattr(cfg, METHODS[method].section)
    centering = section.centering
    if centering not in views:
        views[centering] = normalize_chunk(episodes, centering, base_mu)
    return METHODS[method].evaluate(section, views[centering], done)


def _evaluate_chunk(
    episodes: list[Episode], start: int, cfg: RunConfig, base_mu: np.ndarray | None
) -> dict[str, list[EpisodeReport]]:
    """Every method on one chunk, or the first failing (episode, method) in
    stream order raised as ``episode i, method m: ...``.

    A failure is located by replaying the chunk one episode at a time,
    methods in config order, each normalizing the episode itself, so a
    vector at a centering point names the first method centered there.
    In a chunk only such a vector, centroid or prototype names its episode;
    the replay's chunks of one name none, and it prefixes episode and
    method. Batched results equal one-episode results, so the replay fails
    where the chunk did; if it does not, the chunk's own error is raised.
    """
    done: dict[str, list[EpisodeReport]] = {}
    views: dict[str, NormalizedChunk] = {}
    try:
        for method in (m for m in METHODS if m in cfg.methods):
            done[method] = evaluate_method(method, episodes, cfg, base_mu, done, views)
        return done
    except (FsosrError, ValueError):
        for offset, episode in enumerate(episodes):
            for method in cfg.methods:
                try:
                    evaluate_method(method, [episode], cfg, base_mu, {}, {})
                except (FsosrError, ValueError) as exc:
                    message = f"episode {start + offset}, method {method}: {exc}"
                    if isinstance(exc, FsosrError):
                        raise type(exc)(message) from exc
                    raise DataError(message) from exc
        raise


class _Unit(NamedTuple):
    """A chunk, named by its first episode, with one group of its methods."""

    start: int
    methods: tuple[str, ...]  # in ``METHODS`` order
    first: bool  # the chunk's first unit, whose worker checksums its episodes


def _units(cfg: RunConfig) -> list[_Unit]:
    """Every chunk with each ``ostim``-section method alone and with its
    ``baseline``-section methods together, chunk by chunk."""
    groups: dict[str, list[str]] = {}
    for method in (m for m in METHODS if m in cfg.methods):
        key = "baseline" if METHODS[method].section == "baseline_cfg" else method
        groups.setdefault(key, []).append(method)
    return [
        _Unit(start, tuple(group), g == 0)
        for start in range(0, cfg.n_episodes, CHUNK_SIZE)
        for g, group in enumerate(groups.values())
    ]


def _sample_chunk(fs: FeatureSet, cfg: RunConfig, start: int, split: str) -> list[Episode]:
    indices = range(start, min(start + CHUNK_SIZE, cfg.n_episodes))
    return [sample_episode(fs, cfg.episode, i, split=split) for i in indices]


def _evaluate_units(units, fs: FeatureSet, cfg: RunConfig, split: str,
                    base_mu: np.ndarray | None, failed: mmap.mmap,
                    worker: int) -> tuple[list, tuple[int, str] | None]:
    """Evaluate the ``(index, unit)`` pairs ``units`` in order, up to the
    first that fails or the first after a unit that failed in any worker.

    ``failed`` holds one int64 per worker, shared across the fork: the
    index of its failing unit, else the unit count. Slot ``worker`` is this
    worker's. Every unit before the earliest failure is still evaluated, so
    the run names the same failure, and none after it is begun.

    Returns ``(index, reports by method, episode CRCs)`` for each unit
    evaluated, and ``(index, error)`` of the failing one or None. A chunk
    is sampled once for consecutive units of it, which share its views.
    """
    results: list = []
    chunk = None
    jobs = len(failed) // 8
    for index, unit in units:
        if index > min(struct.unpack_from(f"{jobs}q", failed)):
            break
        try:
            if unit.start != chunk:
                chunk, done, views = unit.start, {}, {}
                episodes = _sample_chunk(fs, cfg, unit.start, split)
            for method in unit.methods:
                done[method] = evaluate_method(method, episodes, cfg, base_mu, done, views)
        except Exception as exc:  # the caller evaluates the chunk again to raise it
            struct.pack_into("q", failed, 8 * worker, index)
            return results, (index, f"{type(exc).__name__}: {exc}")
        crcs = [episode_checksum(episode) for episode in episodes] if unit.first else []
        results.append((index, {m: done[m] for m in unit.methods}, crcs))
    return results, None


def _job_count(n_units: int) -> int:
    """The CPUs of the affinity mask, capped at ``n_units``; 1 where
    processes cannot be forked or the mask is unknown."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_units)


def _prctl():
    """prctl(2) of the C library, or None where it has none."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except AttributeError:
        return None
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    return prctl


def _in_workers(work: Callable[[int], object], jobs: int) -> list:
    """``[work(j) for j in range(jobs)]``: ``work(0)`` in this process and
    each other call in a forked child, which pickles its result to a pipe
    and leaves by ``os._exit``. Every child is reaped on every exit path;
    one that ends without sending its result is an FsosrError naming how
    it ended."""
    children: list = []  # (pid, read end of its pipe), not yet reaped
    parent = os.getpid()
    # Resolved before forking: a child only makes the call.
    prctl = _prctl() if jobs > 1 else None
    try:
        for j in range(1, jobs):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    # The kernel kills this child when the run's process
                    # ends, so a run killed outright leaves no worker; without
                    # prctl it ends on writing to the closed pipe.
                    if prctl is not None:
                        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                    if os.getppid() != parent:  # it ended before the call
                        os._exit(1)
                    with os.fdopen(write_fd, "wb") as out:
                        pickle.dump(work(j), out, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results = [work(0)]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise FsosrError(f"worker process {pid} {how} before sending its results")
            results.append(pickle.loads(data))
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


def run(cfg: RunConfig, fs: FeatureSet | None = None,
        split: str = "test") -> dict[str, RunReport]:
    """Evaluate every configured method on the shared episode stream.

    Returns one RunReport per method and, when ``output_dir`` is set, writes
    ``run_report.json`` and ``run_report.csv``; an ``output_dir`` that is
    or lies under a file, or where a report is a directory, is refused
    before the store loads. The units run in one process per CPU of the
    affinity mask, never more than there are units; the children are
    forked from this one and share its store, and a failing unit stops
    every worker before its next unit after it. Output is
    byte-identical across repeated runs, chunk sizes and process counts,
    and so is the error of a failing run.
    """
    _check_output_dir(cfg.output_dir, REPORT_FILES)
    if fs is None:
        fs = load_feature_store(cfg.store)
    needs_base_mu = any(getattr(cfg, METHODS[m].section).centering == "base" for m in cfg.methods)
    base_mu = base_mean(fs) if needs_base_mu else None

    units = _units(cfg)
    jobs = _job_count(len(units))
    indexed = list(enumerate(units))
    with mmap.mmap(-1, 8 * jobs) as failed:  # anonymous and shared with the forks
        struct.pack_into(f"{jobs}q", failed, 0, *[len(units)] * jobs)
        outcomes = _in_workers(
            lambda j: _evaluate_units(indexed[j::jobs], fs, cfg, split, base_mu, failed, j), jobs
        )
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        index, error = min(failures)
        start = units[index].start
        _evaluate_chunk(_sample_chunk(fs, cfg, start, split), start, cfg, base_mu)
        raise FsosrError(f"episodes from {start}: a worker process failed with {error}, "
                         "but the chunk evaluated again in this process did not")

    per_method: dict[str, list[EpisodeReport]] = {method: [] for method in cfg.methods}
    stream_crc = 0
    for _, reports, crcs in sorted((r for results, _ in outcomes for r in results),
                                   key=lambda result: result[0]):
        for method, method_reports in reports.items():
            per_method[method] += method_reports
        for checksum in crcs:
            stream_crc = zlib.crc32(checksum.to_bytes(4, "little"), stream_crc)

    snapshot = _config_snapshot(cfg)
    run_reports = {
        method: aggregate(per_method[method], method, snapshot) for method in cfg.methods
    }
    if cfg.output_dir is not None:
        write_reports(run_reports, cfg, Path(cfg.output_dir), stream_crc & 0xFFFFFFFF)
    return run_reports


def _check_output_dir(output_dir: str | None, names: tuple[str, ...]) -> None:
    """ConfigError unless ``output_dir``, when set, can be made a directory
    and each of the files ``names`` in it can be written."""
    if output_dir is not None:
        check_output_path(output_dir, "output_dir", directory=True)
        for name in names:
            check_output_path(Path(output_dir) / name, "output_dir")


def write_reports(
    run_reports: dict[str, RunReport], cfg: RunConfig, out_dir: Path, stream_crc: int
) -> None:
    """Write ``run_report.json`` and ``run_report.csv`` into ``out_dir``.
    Both go to temporary files first and replace the old reports only once
    both are complete, so a write that fails leaves the earlier pair intact."""
    doc = {
        "episode_stream_crc32": f"{stream_crc:08x}",
        "reports": {m: asdict(r) for m, r in run_reports.items()},
    }
    json_name, csv_name = REPORT_FILES
    with atomic_write(out_dir / json_name, "w") as js, atomic_write(
        out_dir / csv_name, "w", newline=""
    ) as fh:
        js.write(json.dumps(doc, indent=2, sort_keys=True))
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "shot"]
            + [c for m in METRIC_NAMES for c in (m, f"{m}_ci95")]
        )
        for method in cfg.methods:
            report = run_reports[method]
            row: list[str] = [method, str(cfg.episode.n_shot)]
            for name in METRIC_NAMES:
                summary = report.metrics[name]
                if summary is None:
                    row += ["", ""]
                else:
                    row += [repr(summary.mean), repr(summary.ci95_half_width)]
            writer.writerow(row)


def sweep_alpha(cfg: RunConfig, grid: list[float]) -> tuple[float, list[dict]]:
    """Evaluate the transductive objective's alpha over validation episodes.

    Returns the AUROC-maximizing value (ties broken toward the smaller
    alpha) and the full table. Every grid value, ``output_dir`` and the
    ``SWEEP_FILE`` in it are checked before the store is loaded. The grid
    points write no run reports; ``output_dir`` is where the caller puts
    the table, as ``SWEEP_FILE``.
    """
    if not grid:
        raise ConfigError("sweep grid must be nonempty")
    try:
        points = [replace(cfg.ostim_cfg, alpha=float(alpha)) for alpha in grid]
    except ValueError as exc:
        raise ConfigError(f"bad sweep grid: {exc}") from exc
    _check_output_dir(cfg.output_dir, (SWEEP_FILE,))
    fs = load_feature_store(cfg.store)
    if not fs.split_class_ids("val").size:
        raise DataError("store has no validation split to sweep over")
    table = []
    for ostim_cfg in points:
        sweep_cfg = replace(cfg, methods=("ostim",), ostim_cfg=ostim_cfg, output_dir=None)
        report = run(sweep_cfg, fs=fs, split="val")["ostim"]
        table.append(
            {"alpha": ostim_cfg.alpha,
             **{name: report.metrics[name].mean for name in METRIC_NAMES}}
        )
    best = min(table, key=lambda row: (-row["auroc"], row["alpha"]))
    return best["alpha"], table
