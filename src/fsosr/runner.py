"""Run orchestration: config parsing, the paired episode loop, method
dispatch, the validation sweep, and report emission.

Every method in a run consumes the identical episode stream (same
``(seed, index)`` pairs), so cross-method comparisons are paired. Each
method section (``OstimConfig``, ``BaselineConfig``) holds all of its
settings, centering and ``variant`` included, and ``_KEYS`` declares their
JSON keys once, for parsing and the report snapshot. ``PARTS`` maps each
part (a classifier's sheet or a detector's scores) to the ``RunConfig``
field of its section and its ``compute(section, view)``; only this table
names the chunk functions of ``baselines`` and ``ostim``, so a method is
composed in one place. ``METHODS`` maps each method to its parts: one,
or a (classifier, detector) pair. The stream is cut into chunks of
``CHUNK_SIZE`` episodes and the work into units: an episode range of a
chunk with one ``ostim``-section method, or with all of its
``baseline``-section methods. ``_plan`` deals the units to up to one
process per CPU of the affinity mask (this process and children forked
from it, see ``workers``) from the config and the store's dimension alone.
The children are forked on the first run for a FeatureSet and serve its
later runs, so each unit carries its chunk's bounds: a worker never reads
``CHUNK_SIZE``, which may change between runs. A worker stacks and
normalizes a chunk once per centering in use into a ``NormalizedChunk``
``view``, serves each of its ranges of that chunk from it, and computes
and scores each part a range needs once, by one ``score_chunk`` call.
Every operation is per episode, so results depend neither on the plan nor
on the chunk size. Results are reduced in the canonical unit order (chunk,
group, range start). A failing unit stops every worker before its next
later unit, and the worker that hit it replays the unit's whole chunk one
episode at a time, methods in config order, to name the first failing
(episode, method) in stream order; nothing is evaluated twice. The run
raises the failure of the earliest unit.
"""

from __future__ import annotations

import csv
import json
import mmap
import struct
import zlib
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import baselines, ostim, workers
from .episodes import Episode, EpisodeSpec, sample_episode
from .errors import ConfigError, DataError, FsosrError, integer, number
from .feature_store import (FeatureSet, atomic_write, base_mean, check_output_path,
                            load_feature_store, read_json)
from .metrics import METRIC_NAMES, EpisodeReport, RunReport, aggregate, score_chunk
from .predictions import PredictionSheet
from .synthgen import SynthSpec
from .transforms import NormalizedChunk, normalize_chunk

# Consecutive episodes evaluated together; reports do not depend on it.
CHUNK_SIZE = 16

# The files ``run`` and ``fsosr sweep`` write into ``output_dir``.
REPORT_FILES = ("run_report.json", "run_report.csv")
SWEEP_FILE = "sweep.json"

# The fixed cost of one refinement step of a chunk, in the units of its
# per-episode cost (K x rows x D): the dispatch of the step's numpy calls,
# paid once per chunk whatever its size. Timed refinement puts it at about
# 68,000 for 5-way 1-shot D=16 chunks (18 ms against 3.3 ms per episode of
# 12,400) and 119,000 for 20-way 5-shot D=64 ones. It decides when cutting
# a chunk's refinement in two pays for the second fixed cost.
_STEP_COST = 100_000

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
        if any("knn" in METHODS[m] for m in self.methods) and self.baseline_cfg.knn_k > support:
            raise ConfigError(f"baseline.knn_k must be at most the support size {support} "
                              f"(n_way * n_shot), got {self.baseline_cfg.knn_k}")


class Part(NamedTuple):
    """A classifier's sheet or a detector's (E, n_query) scores of a chunk's view."""

    section: str  # the RunConfig field holding its section ("ostim_cfg" or "baseline_cfg")
    compute: Callable[[Section, NormalizedChunk], PredictionSheet | np.ndarray]


# The refinements refine with their variant, ``ostim``'s being its section's.
PARTS: dict[str, Part] = {
    **{name: Part("ostim_cfg", lambda ocfg, view, variant=variant: ostim.predict(
           ostim.refine(ostim.init_prototypes(view, variant or ocfg.variant), view, ocfg),
           view, ocfg))
       for name, variant in (("ostim", None), ("tim_closed", ostim.Variant.CLOSED),
                             ("explicit_dummy", ostim.Variant.EXPLICIT_DUMMY))},
    "simpleshot": Part("baseline_cfg",
                       lambda bcfg, view: baselines.simpleshot_chunk(view, bcfg.temperature)),
    "knn": Part("baseline_cfg", lambda bcfg, view: baselines.knn_chunk(view, bcfg.knn_k)),
}

# Each method's parts: one part, or a (classifier, detector) pair reported
# as the detector with the classifier's accuracy.
METHODS: dict[str, tuple[str, ...]] = {
    **{name: (name,) for name in PARTS}, "strong_baseline": ("simpleshot", "knn"),
}


def _numbers(value, key: str) -> tuple:
    """A JSON list of finite numbers as a tuple, else ConfigError."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(number(v, f"{key}[{i}]") for i, v in enumerate(value))


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _names(value, key: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of method names, got {value!r}")
    return tuple(value)


# How ``_build`` reads a field's JSON value, by the field's annotation; a
# section is read by ``_build`` under its JSON key.
_PARSERS = {
    "int": integer,
    "float": number,
    "str": _string,
    "str | None": lambda v, key: v if v is None else _string(v, key),
    "tuple[str, ...]": _names,
    "tuple[float, float, float]": _numbers,
    "float | tuple[float, ...]":
        lambda v, key: _numbers(v, key) if isinstance(v, list) else number(v, key),
    "EpisodeSpec": lambda v, key: _build(EpisodeSpec, v, key),
    "ostim.OstimConfig": lambda v, key: _build(ostim.OstimConfig, v, key),
    "baselines.BaselineConfig": lambda v, key: _build(baselines.BaselineConfig, v, key),
}


# Each document's JSON keys and the dataclass fields they set.
_KEYS = {
    "run": {"store": "store", "episodes": "episode", "methods": "methods",
            "n_episodes": "n_episodes", "output_dir": "output_dir",
            "ostim": "ostim_cfg", "baseline": "baseline_cfg"},
    "episodes": {f.name: f.name for f in fields(EpisodeSpec)},
    "synth": {f.name: f.name for f in fields(SynthSpec)},
    "ostim": {"alpha": "alpha", "n_steps": "n_steps", "lr": "learning_rate",
              "temperature": "temperature", "variant": "variant", "centering": "centering"},
    "baseline": {"knn_k": "knn_k", "temperature": "temperature", "centering": "centering"},
}


def _build(cls, doc, context: str):
    """``cls`` from the JSON document ``context``, its ``_KEYS`` read by
    ``_PARSERS``. Messages name a section's keys ``context.key`` and the
    run document's keys as they are."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{context} config must be a JSON object, got {doc!r}")
    top = context == "run"
    keys = _KEYS[context]
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {'' if top else context + ' '}config keys: {sorted(unknown)}")
    attrs = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, attr in keys.items():
        name = key if top else f"{context}.{key}"
        if key in doc:
            kwargs[attr] = _PARSERS.get(attrs[attr].type, lambda v, _: v)(doc[key], name)
        elif attrs[attr].default is attrs[attr].default_factory is MISSING:
            raise ConfigError(f"config is missing the required key {name!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        if top:
            raise
        raise ConfigError(f"bad {context} config: {exc}") from exc


def episode_spec_from_dict(section) -> EpisodeSpec:
    """Parse and validate an ``episodes`` section (an EpisodeSpec document)."""
    return _build(EpisodeSpec, section, "episodes")


def synth_spec_from_dict(section) -> SynthSpec:
    """Parse and validate a ``synth`` spec (a SynthSpec document)."""
    return _build(SynthSpec, section, "synth")


def config_from_dict(doc: dict) -> RunConfig:
    """Parse and validate the JSON run-config document."""
    if isinstance(doc, dict) and "workers" in doc:
        # ``workers`` selects nothing; older configs set it, so it is checked and dropped.
        workers = integer(doc["workers"], "workers")
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        doc = {key: value for key, value in doc.items() if key != "workers"}
    return _build(RunConfig, doc, "run")


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(read_json(path, "config", ConfigError))


def _config_snapshot(cfg: RunConfig) -> dict:
    """The run document that ``config_from_dict`` reads back as ``cfg``,
    every key set but ``output_dir``."""
    def document(obj, context: str) -> dict:
        doc = {}
        for key, attr in _KEYS[context].items():
            value = getattr(obj, attr)
            doc[key] = (document(value, key) if is_dataclass(value)
                        else list(value) if isinstance(value, tuple) else value)
        return doc

    return {key: value for key, value in document(cfg, "run").items() if key != "output_dir"}


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
    views: dict[str, NormalizedChunk], scored: dict[str, list[EpisodeReport]],
    span: slice = slice(None),
) -> list[EpisodeReport]:
    """Score one method on the episodes ``span`` of a chunk of same-shape
    episodes, in order.

    ``views`` holds the whole chunk at each centering so far and ``scored``
    the unit's scored parts so far; a missing one is added to each. A part
    reads ``span`` of its centering's view. A failure raises the error of
    some failing episode of the chunk; ``_replay`` names it and the method.
    """
    for name in METHODS[method]:
        if name not in scored:
            part = PARTS[name]
            section = getattr(cfg, part.section)
            if section.centering not in views:
                views[section.centering] = normalize_chunk(episodes, section.centering, base_mu)
            view = NormalizedChunk(*(array[span] for array in views[section.centering]))
            out = part.compute(section, view)
            scored[name] = (score_chunk(view.query_truth, out) if isinstance(out, np.ndarray)
                            else score_chunk(view.query_truth, out.outlier_score, out.closed_pred))
    classifier, detector = scored[METHODS[method][0]], scored[METHODS[method][-1]]
    if classifier is detector:
        return detector
    return [replace(d, acc=c.acc) for c, d in zip(classifier, detector)]


def _replay(episodes: list[Episode], start: int, cfg: RunConfig,
            base_mu: np.ndarray | None) -> Exception | None:
    """The first failing (episode, method) of the chunk from episode
    ``start`` in stream order, as ``episode i, method m: ...``, or None.

    The chunk is replayed one episode at a time, methods in config order,
    each normalizing the episode itself, so a vector at a centering point
    names the first method centered there. In a chunk only such a vector,
    centroid or prototype names its episode; the replay's chunks of one
    name none, and it prefixes episode and method. Batched results equal
    one-episode results, so the replay fails where the chunk did.
    """
    for offset, episode in enumerate(episodes):
        for method in cfg.methods:
            try:
                evaluate_method(method, [episode], cfg, base_mu, {}, {})
            except (FsosrError, ValueError) as exc:
                kind = type(exc) if isinstance(exc, FsosrError) else DataError
                named = kind(f"episode {start + offset}, method {method}: {exc}")
                named.__cause__ = exc
                return named
    return None


class _Unit(NamedTuple):
    """Episodes ``[start, stop)`` of the chunk of episodes ``[chunk,
    chunk_stop)``, with group ``group`` of its methods. Units sort in the
    canonical order: chunk, group, range start."""

    chunk: int
    chunk_stop: int
    group: int
    start: int
    stop: int
    methods: tuple[str, ...]  # in ``METHODS`` order


def _cost(cfg: RunConfig, methods: tuple[str, ...], dim: int) -> tuple[int, int]:
    """The estimated fixed cost and cost per episode of a unit of
    ``methods``. A refinement takes ``n_steps`` steps, and one more for its
    initial prototypes and prediction, each ``_STEP_COST`` plus a
    class-by-row table of K x rows x D per episode; the baselines take one
    such table per episode."""
    spec = cfg.episode
    rows = spec.n_way * spec.n_shot + (spec.n_way + spec.n_open_classes) * spec.n_query_per_class
    table = spec.n_way * rows * dim
    if PARTS[METHODS[methods[0]][0]].section == "baseline_cfg":
        return 0, table
    steps = cfg.ostim_cfg.n_steps + 1
    return steps * _STEP_COST, steps * table


def _plan(cfg: RunConfig, dim: int, jobs: int) -> list[list[tuple[int, _Unit]]]:
    """The run's units dealt to up to ``jobs`` workers: each busy worker's
    ``(index, unit)`` pairs in canonical order, ``index`` being the unit's
    rank in that order. Only ``cfg`` and the store's ``dim`` decide it.

    Every chunk holds each ``ostim``-section method alone and its
    ``baseline``-section methods together. These are dealt by ``_cost``,
    longest first and ties in canonical order, each to the least-loaded
    worker (the first such). A refinement is cut instead into two episode
    ranges, dealt to the two least-loaded workers, where that lowers the
    estimated makespan: the largest load, or if more, the total spread
    evenly, the work still to deal included. Costs are linear in the
    episodes, so the cut that evens those two workers' loads, rounded
    either way, is the only one worth trying. Each part pays the fixed
    step cost again, so while other work can fill the workers nothing is
    cut.
    """
    groups: dict[str, list[str]] = {}
    for method in (m for m in METHODS if m in cfg.methods):
        key = "baseline" if PARTS[METHODS[method][0]].section == "baseline_cfg" else method
        groups.setdefault(key, []).append(method)
    costs = {tuple(group): _cost(cfg, tuple(group), dim) for group in groups.values()}
    whole = [
        _Unit(chunk, stop, g, chunk, stop, tuple(group))
        for chunk in range(0, cfg.n_episodes, CHUNK_SIZE)
        for stop in [min(chunk + CHUNK_SIZE, cfg.n_episodes)]
        for g, group in enumerate(groups.values())
    ]

    def cost(unit: _Unit) -> int:
        fixed, per_episode = costs[unit.methods]
        return fixed + per_episode * (unit.stop - unit.start)

    left = sum(map(cost, whole))
    loads, shares = [0] * jobs, [[] for _ in range(jobs)]
    for unit in sorted(whole, key=cost, reverse=True):  # stable: ties stay in canonical order
        left -= cost(unit)
        targets = sorted(range(jobs), key=loads.__getitem__)[:2]  # the least loaded, stably
        options = [(unit,)]
        n = unit.stop - unit.start
        if PARTS[METHODS[unit.methods[0]][0]].section == "ostim_cfg" and jobs > 1 and n > 1:
            per_episode = costs[unit.methods][1]
            even = (loads[targets[1]] - loads[targets[0]] + per_episode * n) // (2 * per_episode)
            options += [(unit._replace(stop=cut), unit._replace(start=cut))
                        for cut in sorted({unit.start + min(max(c, 1), n - 1)
                                           for c in (even, even + 1)})]
        top, total = max(loads), sum(loads) + left

        def makespan(parts: tuple[_Unit, ...]) -> float:
            placed = [loads[w] + cost(part) for w, part in zip(targets, parts)]
            return max(top, *placed, (total + sum(map(cost, parts))) / jobs)

        for w, part in zip(targets, min(options, key=makespan)):
            loads[w] += cost(part)
            shares[w].append(part)
    rank = {unit: i for i, unit in enumerate(sorted(u for share in shares for u in share))}
    return [[(rank[unit], unit) for unit in sorted(share)] for share in shares if share]


def _evaluate_units(fs: FeatureSet, failed: mmap.mmap, worker: int, units, cfg: RunConfig,
                    split: str, base_mu: np.ndarray | None
                    ) -> tuple[list, tuple[int, Exception] | None]:
    """Evaluate the ``(index, unit)`` pairs ``units`` in order, up to the
    first that fails or the first after a unit that failed in any worker.
    This is the ``work`` of the run's ``workers``, so it reads everything
    that can change between runs from its arguments.

    ``failed`` holds one int64 per worker, shared across the fork: the
    index of its failing unit, else the unit count. Slot ``worker`` is this
    worker's. Every unit before the earliest failure is still evaluated, so
    the run names the same failure, and none after it is begun.

    Returns ``(index, reports by method, episode CRCs)`` for each unit
    evaluated, the CRCs of its range for a unit of the chunk's first group
    and none for the others, and ``(index, error)`` of the failing one or
    None. A chunk is sampled and normalized once for consecutive units of
    it. A failure in a sampled chunk is named by ``_replay`` of the whole
    chunk, so each failing unit of a chunk names the chunk's first failing
    episode, whatever its range; the unit's own error stands where the
    replay finds none, and a sampling error as it is.
    """
    results: list = []
    chunk, episodes = None, []
    jobs = len(failed) // 8
    for index, unit in units:
        if index > min(struct.unpack_from(f"{jobs}q", failed)):
            break
        span = slice(unit.start - unit.chunk, unit.stop - unit.chunk)
        scored: dict[str, list[EpisodeReport]] = {}
        try:
            if unit.chunk != chunk:
                chunk, views, episodes = unit.chunk, {}, []  # [] until sampled
                episodes = [sample_episode(fs, cfg.episode, i, split=split)
                            for i in range(unit.chunk, unit.chunk_stop)]
            reports = {method: evaluate_method(method, episodes, cfg, base_mu, views, scored, span)
                       for method in unit.methods}
        except Exception as exc:
            struct.pack_into("q", failed, 8 * worker, index)
            if episodes and isinstance(exc, (FsosrError, ValueError)):
                exc = _replay(episodes, unit.chunk, cfg, base_mu) or exc
            return results, (index, exc)
        crcs = [episode_checksum(episode) for episode in episodes[span]] if unit.group == 0 else []
        results.append((index, reports, crcs))
    return results, None


def run(cfg: RunConfig, fs: FeatureSet | None = None,
        split: str = "test") -> dict[str, RunReport]:
    """Evaluate every configured method on the shared episode stream.

    Returns one RunReport per method and, when ``output_dir`` is set, writes
    ``run_report.json`` and ``run_report.csv``; an ``output_dir`` that is
    or lies under a file, or where a report is a directory, is refused
    before the store loads. The units run as ``_plan`` deals them, in up
    to one process per CPU of the affinity mask: this one and children
    forked from it, which share its store (see ``workers``). The children
    are forked on the first run for a given ``fs`` and process count and
    serve every later run on that ``fs``; they end when ``fs`` is collected
    or another ``fs`` or count comes, when a run raises, and before this
    returns if it loaded the store itself. A child does not see a function
    replaced after it was forked. A failing unit stops every worker before
    its next unit after it, and its own worker names the failure; the
    earliest unit's is raised. Output is byte-identical across repeated
    runs, chunk sizes, process counts and fresh or reused children, and so
    is the error of a failing run.
    """
    _check_output_dir(cfg.output_dir, REPORT_FILES)
    loaded = fs is None
    if loaded:
        fs = load_feature_store(cfg.store)
    with workers.ending(keep=not loaded):
        return _run(cfg, fs, split)


def _run(cfg: RunConfig, fs: FeatureSet, split: str) -> dict[str, RunReport]:
    needs_base_mu = any(getattr(cfg, PARTS[part].section).centering == "base"
                        for m in cfg.methods for part in METHODS[m])
    base_mu = base_mean(fs) if needs_base_mu else None

    shares = _plan(cfg, fs.dim, workers.job_count())
    pool = workers.pool(fs, _evaluate_units, len(shares))
    struct.pack_into(f"{len(shares)}q", pool.shared, 0, *[sum(map(len, shares))] * len(shares))
    outcomes = pool.map([(share, cfg, split, base_mu) for share in shares])
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]

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
    with workers.ending(keep=False):  # every grid point runs in the same workers
        for ostim_cfg in points:
            sweep_cfg = replace(cfg, methods=("ostim",), ostim_cfg=ostim_cfg, output_dir=None)
            report = run(sweep_cfg, fs=fs, split="val")["ostim"]
            table.append(
                {"alpha": ostim_cfg.alpha,
                 **{name: report.metrics[name].mean for name in METRIC_NAMES}}
            )
    best = min(table, key=lambda row: (-row["auroc"], row["alpha"]))
    return best["alpha"], table
