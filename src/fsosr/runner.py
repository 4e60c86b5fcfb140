"""Run orchestration: config parsing, the paired episode loop, method
dispatch, the validation sweep, and report emission.

Every method in a run consumes the identical episode stream (same
``(seed, index)`` pairs), so cross-method comparisons are paired. The loop
walks the stream in chunks of ``CHUNK_SIZE`` consecutive episodes: each
transductive method refines a whole chunk in one batched kernel call, and
the inductive methods go episode by episode. Results are reduced in index
order and the kernel's per-episode results do not depend on the chunk, so
reports do not depend on the chunk size. ``workers`` is accepted and
validated but selects no code path.
"""

from __future__ import annotations

import csv
import json
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import baselines, ostim
from .episodes import Episode, EpisodeSpec, sample_episode
from .errors import ConfigError, DataError, FsosrError, SamplingError, SliceError
from .feature_store import FeatureSet, base_mean, load_feature_store
from .metrics import EpisodeReport, RunReport, aggregate, score_episode, score_sheet
from .transforms import CENTERING_KINDS, CenteringPolicy

TRANSDUCTIVE_METHODS = ("ostim", "tim_closed", "explicit_dummy")
INDUCTIVE_METHODS = ("simpleshot", "knn", "strong_baseline")
METHODS = TRANSDUCTIVE_METHODS + INDUCTIVE_METHODS

# Consecutive episodes evaluated together; reports do not depend on it.
CHUNK_SIZE = 16

_VARIANT_OF_METHOD = {
    "tim_closed": ostim.Variant.CLOSED,
    "explicit_dummy": ostim.Variant.EXPLICIT_DUMMY,
}


@dataclass(frozen=True)
class RunConfig:
    store: str
    episode: EpisodeSpec = field(default_factory=EpisodeSpec)
    methods: tuple[str, ...] = ("ostim",)
    n_episodes: int = 600
    workers: int = 1
    output_dir: str | None = None
    ostim_cfg: ostim.OstimConfig = field(default_factory=ostim.OstimConfig)
    ostim_variant: ostim.Variant = ostim.Variant.IMPLICIT
    ostim_centering: str = "task"
    baseline_cfg: baselines.BaselineConfig = field(default_factory=baselines.BaselineConfig)
    baseline_centering: str = "base"

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigError("methods must be a nonempty list")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected one of {METHODS}")
        if self.n_episodes < 1:
            raise ConfigError(f"n_episodes must be >= 1, got {self.n_episodes}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        for centering in (self.ostim_centering, self.baseline_centering):
            if centering not in CENTERING_KINDS:
                raise ConfigError(
                    f"unknown centering {centering!r}; expected one of {CENTERING_KINDS}"
                )


def _build(cls, section: dict, fields_map: dict[str, str], context: str):
    unknown = set(section) - set(fields_map) - {"centering", "variant"}
    if unknown:
        raise ConfigError(f"unknown {context} config keys: {sorted(unknown)}")
    kwargs = {attr: section[key] for key, attr in fields_map.items() if key in section}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {context} config: {exc}") from exc


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

    try:
        episode = _build(
            EpisodeSpec,
            doc.get("episodes", {}),
            {k: k for k in ("n_way", "n_shot", "n_query_per_class", "n_open_classes", "seed")},
            "episodes",
        )
    except SamplingError as exc:
        raise ConfigError(f"bad episodes config: {exc}") from exc
    ostim_section = doc.get("ostim", {})
    ostim_cfg = _build(
        ostim.OstimConfig,
        ostim_section,
        {"alpha": "alpha", "n_steps": "n_steps", "lr": "learning_rate",
         "temperature": "temperature"},
        "ostim",
    )
    try:
        ostim_variant = ostim.Variant(ostim_section.get("variant", "implicit"))
    except ValueError as exc:
        raise ConfigError(f"bad ostim.variant: {exc}") from exc
    baseline_section = doc.get("baseline", {})
    baseline_cfg = _build(
        baselines.BaselineConfig,
        baseline_section,
        {"knn_k": "knn_k", "temperature": "temperature"},
        "baseline",
    )

    methods = doc.get("methods", ["ostim"])
    if not isinstance(methods, list):
        raise ConfigError("methods must be a list of method names")
    try:
        return RunConfig(
            store=str(doc["store"]),
            episode=episode,
            methods=tuple(methods),
            n_episodes=int(doc.get("n_episodes", 600)),
            workers=int(doc.get("workers", 1)),
            output_dir=doc.get("output_dir"),
            ostim_cfg=ostim_cfg,
            ostim_variant=ostim_variant,
            ostim_centering=ostim_section.get("centering", "task"),
            baseline_cfg=baseline_cfg,
            baseline_centering=baseline_section.get("centering", "base"),
        )
    except SamplingError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def _config_snapshot(cfg: RunConfig) -> dict:
    return {
        "store": cfg.store,
        "episodes": {
            "n_way": cfg.episode.n_way,
            "n_shot": cfg.episode.n_shot,
            "n_query_per_class": cfg.episode.n_query_per_class,
            "n_open_classes": cfg.episode.n_open_classes,
            "seed": cfg.episode.seed,
        },
        "methods": list(cfg.methods),
        "n_episodes": cfg.n_episodes,
        "ostim": {
            "alpha": cfg.ostim_cfg.alpha,
            "n_steps": cfg.ostim_cfg.n_steps,
            "lr": cfg.ostim_cfg.learning_rate,
            "temperature": cfg.ostim_cfg.temperature,
            "variant": cfg.ostim_variant.value,
            "centering": cfg.ostim_centering,
        },
        "baseline": {
            "knn_k": cfg.baseline_cfg.knn_k,
            "temperature": cfg.baseline_cfg.temperature,
            "centering": cfg.baseline_centering,
        },
    }


def _policy(kind: str, base_mu: np.ndarray | None) -> CenteringPolicy:
    if kind == "base":
        if base_mu is None:
            raise DataError("base centering requested but the store has no base split")
        return CenteringPolicy("base", base_mu)
    return CenteringPolicy(kind)


def episode_checksum(episode: Episode) -> int:
    """CRC-32 over the episode payload; used to verify paired streams."""
    crc = 0
    for arr in (
        episode.support_vectors, episode.support_labels,
        episode.query_vectors, episode.query_truth,
    ):
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc & 0xFFFFFFFF


def _each(fn, *columns: list) -> list:
    """``fn`` over the zipped ``columns`` in order; the first failure
    becomes a SliceError at its position."""
    out = []
    for position, args in enumerate(zip(*columns)):
        try:
            out.append(fn(*args))
        except (FsosrError, ValueError) as exc:
            raise SliceError(position, exc) from exc
    return out


def _score_inductive(
    method: str, episode: Episode, cfg: RunConfig, base_mu: np.ndarray | None
) -> EpisodeReport:
    policy = _policy(cfg.baseline_centering, base_mu)
    if method == "simpleshot":
        sheet = baselines.simpleshot_classify(
            episode, policy, cfg.baseline_cfg.temperature
        )
        return score_sheet(sheet, episode.query_truth)
    if method == "knn":
        scores = baselines.knn_outlier_score(episode, policy, cfg.baseline_cfg.knn_k)
        return score_episode(episode.query_truth, scores)
    # strong baseline: nearest-centroid classification, k-NN outlier scores
    sheet = baselines.simpleshot_classify(episode, policy, cfg.baseline_cfg.temperature)
    scores = baselines.knn_outlier_score(episode, policy, cfg.baseline_cfg.knn_k)
    return score_episode(episode.query_truth, scores, sheet.closed_pred)


def evaluate_method(
    method: str, episodes: list[Episode], cfg: RunConfig, base_mu: np.ndarray | None
) -> list[EpisodeReport]:
    """Score one method on a chunk of same-shape episodes.

    A failure raises SliceError naming the chunk position of a failing
    episode; see ``ostim.refine_batch`` for what that says about the
    episodes before it.
    """
    if method not in TRANSDUCTIVE_METHODS:
        return _each(lambda ep: _score_inductive(method, ep, cfg, base_mu), episodes)

    variant = _VARIANT_OF_METHOD.get(method, cfg.ostim_variant)
    states = _each(
        lambda ep: ostim.init_prototypes(ep, _policy(cfg.ostim_centering, base_mu), variant),
        episodes,
    )
    states = ostim.refine_batch(states, episodes, cfg.ostim_cfg)
    return _each(
        lambda state, ep: score_sheet(ostim.predict(state, ep, cfg.ostim_cfg), ep.query_truth),
        states,
        episodes,
    )


def _evaluate_chunk(
    episodes: list[Episode], start: int, cfg: RunConfig, base_mu: np.ndarray | None
) -> dict[str, list[EpisodeReport]]:
    """Every method on one chunk, or the first failing (episode, method) in
    stream order raised as ``episode i, method m: ...``.

    After a failure at position p, later methods (and a rerun of the failed
    one) only see the episodes before p: a failure there is earlier in
    stream order, and one at p or beyond is not.
    """
    reports: dict[str, list[EpisodeReport]] = {}
    failure = None
    limit = len(episodes)
    for method in cfg.methods:
        while limit:
            try:
                reports[method] = evaluate_method(method, episodes[:limit], cfg, base_mu)
                break
            except SliceError as exc:
                failure = (start + exc.index, method, exc.error)
                limit = exc.index
    if failure is not None:
        index, method, exc = failure
        message = f"episode {index}, method {method}: {exc}"
        if isinstance(exc, FsosrError):
            raise type(exc)(message) from exc
        raise DataError(message) from exc
    return reports


def _needs_base_mu(cfg: RunConfig) -> bool:
    uses_inductive = any(m in INDUCTIVE_METHODS for m in cfg.methods)
    uses_transductive = any(m in TRANSDUCTIVE_METHODS for m in cfg.methods)
    return (uses_inductive and cfg.baseline_centering == "base") or (
        uses_transductive and cfg.ostim_centering == "base"
    )


def run(cfg: RunConfig, fs: FeatureSet | None = None, split: str = "test") -> dict[str, RunReport]:
    """Evaluate every configured method on the shared episode stream.

    Returns one RunReport per method and, when ``output_dir`` is set, writes
    ``run_report.json`` and ``run_report.csv``. Output is byte-identical
    across repeated runs, worker counts and chunk sizes.
    """
    if fs is None:
        fs = load_feature_store(cfg.store)
    base_mu = base_mean(fs) if _needs_base_mu(cfg) else None

    per_method: dict[str, list[EpisodeReport]] = {method: [] for method in cfg.methods}
    stream_crc = 0
    for start in range(0, cfg.n_episodes, CHUNK_SIZE):
        indices = range(start, min(start + CHUNK_SIZE, cfg.n_episodes))
        episodes = [sample_episode(fs, cfg.episode, i, split=split) for i in indices]
        for method, reports in _evaluate_chunk(episodes, start, cfg, base_mu).items():
            per_method[method] += reports
        for episode in episodes:
            checksum = episode_checksum(episode)
            stream_crc = zlib.crc32(checksum.to_bytes(4, "little"), stream_crc)

    snapshot = _config_snapshot(cfg)
    run_reports = {
        method: aggregate(per_method[method], method, snapshot) for method in cfg.methods
    }
    if cfg.output_dir is not None:
        write_reports(run_reports, cfg, Path(cfg.output_dir), stream_crc & 0xFFFFFFFF)
    return run_reports


def write_reports(
    run_reports: dict[str, RunReport], cfg: RunConfig, out_dir: Path, stream_crc: int
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "episode_stream_crc32": f"{stream_crc:08x}",
        "reports": {m: r.to_json_dict() for m, r in run_reports.items()},
    }
    (out_dir / "run_report.json").write_text(json.dumps(doc, indent=2, sort_keys=True))

    with open(out_dir / "run_report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "shot"]
            + [c for m in ("acc", "auroc", "aupr", "prec_at_90") for c in (m, f"{m}_ci95")]
        )
        for method in cfg.methods:
            report = run_reports[method]
            row: list[str] = [method, str(cfg.episode.n_shot)]
            for name in ("acc", "auroc", "aupr", "prec_at_90"):
                summary = report.metrics[name]
                if summary is None:
                    row += ["", ""]
                else:
                    row += [repr(summary.mean), repr(summary.ci95_half_width)]
            writer.writerow(row)


def sweep_alpha(cfg: RunConfig, grid: list[float]) -> tuple[float, list[dict]]:
    """Evaluate the transductive objective's alpha over validation episodes.

    Returns the AUROC-maximizing value (ties broken toward the smaller
    alpha) and the full table.
    """
    if not grid:
        raise ConfigError("sweep grid must be nonempty")
    fs = load_feature_store(cfg.store)
    if not fs.classes_in_split("val"):
        raise DataError("store has no validation split to sweep over")
    table = []
    for alpha in grid:
        sweep_cfg = replace(
            cfg,
            methods=("ostim",),
            ostim_cfg=replace(cfg.ostim_cfg, alpha=float(alpha)),
        )
        report = run(sweep_cfg, fs=fs, split="val")["ostim"]
        table.append(
            {
                "alpha": float(alpha),
                "auroc": report.metrics["auroc"].mean,
                "acc": report.metrics["acc"].mean,
                "aupr": report.metrics["aupr"].mean,
                "prec_at_90": report.metrics["prec_at_90"].mean,
            }
        )
    best = min(table, key=lambda row: (-row["auroc"], row["alpha"]))
    return best["alpha"], table
