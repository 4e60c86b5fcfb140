"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
divergence. Every file a command writes is checked before its work starts:
``--out`` and ``--dump`` before any command runs, a store's sidecar with
its ``--out``, and the files written into ``--dump`` or ``output_dir`` by
the command itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import runner, synthgen
from .diagnostics import split_diagnostics
from .episodes import Episode, sample_episode
from .errors import ConfigError, FsosrError
from .feature_store import (atomic_write, check_output_path, ingest_csv, load_feature_store,
                            read_json, save_feature_store, sidecar_path)
from .metrics import METRIC_NAMES


def _cmd_ingest(args: argparse.Namespace) -> int:
    fs = ingest_csv(args.csv, args.splits, args.out)
    print(f"wrote {fs.n} vectors, dim {fs.dim}, {fs.n_classes} classes -> {args.out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = runner.synth_spec_from_dict(read_json(args.spec, "synth spec", ConfigError))
    fs = synthgen.generate(spec)
    save_feature_store(fs, args.out)
    print(f"wrote {fs.n} vectors, dim {fs.dim}, {fs.n_classes} classes -> {args.out}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    doc = read_json(args.spec, "episode spec", ConfigError) if args.spec else {}
    spec = runner.episode_spec_from_dict(doc)
    if args.n < 0:
        raise ConfigError(f"--n must be >= 0, got {args.n}")
    out_dir = Path(args.dump)
    paths = [out_dir / f"episode_{index:05d}.json" for index in range(args.n)]
    for path in paths:
        check_output_path(path, "--dump")
    fs = load_feature_store(args.store)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, path in enumerate(paths):
        episode = sample_episode(fs, spec, index, split=args.split)
        doc = {f.name: getattr(episode, f.name).tolist() for f in fields(Episode)}
        doc["episode_index"] = index
        with atomic_write(path, "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True))
    print(f"wrote {args.n} episodes -> {out_dir}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    fs = load_feature_store(args.store)
    report = split_diagnostics(fs, args.split)
    doc = {
        "split": args.split,
        "mif": report.mif,
        "mif_percent": 100.0 * report.mif,
        "rho": report.rho,
        "per_class_if": {
            fs.class_names[cid]: value for cid, value in sorted(report.per_class_if.items())
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with atomic_write(Path(args.out), "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = runner.load_config(args.config)
    reports = runner.run(cfg)
    for method in cfg.methods:
        metrics = reports[method].metrics
        parts = []
        for name in METRIC_NAMES:
            summary = metrics[name]
            parts.append(
                f"{name}=-" if summary is None else f"{name}={summary.mean:.4f}"
            )
        print(f"{method}: " + " ".join(parts))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.param != "ostim.alpha":
        raise ConfigError(f"only ostim.alpha can be swept, got {args.param!r}")
    try:
        grid = [float(x) for x in args.grid.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {args.grid!r}: {exc}") from exc
    cfg = runner.load_config(args.config)
    best, table = runner.sweep_alpha(cfg, grid)
    for row in table:
        print(
            f"alpha={row['alpha']:g} auroc={row['auroc']:.4f} acc={row['acc']:.4f} "
            f"aupr={row['aupr']:.4f} prec_at_90={row['prec_at_90']:.4f}"
        )
    print(f"best alpha: {best:g}")
    if cfg.output_dir is not None:
        with atomic_write(Path(cfg.output_dir) / runner.SWEEP_FILE, "w") as fh:
            fh.write(json.dumps({"param": args.param, "best": best, "table": table},
                                indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsosr",
        description="Few-shot open-set recognition on pre-extracted feature embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a label,f0,...,fD-1 CSV into a binary store")
    p.add_argument("--csv", required=True)
    p.add_argument("--splits", required=True, help="JSON file with base/val/test class lists")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest, writes_store=True)

    p = sub.add_parser("synth", help="generate a synthetic Gaussian-cluster store")
    p.add_argument("--spec", required=True, help="JSON SynthSpec document")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth, writes_store=True)

    p = sub.add_parser("sample", help="dump sampled episodes as JSON for inspection")
    p.add_argument("--store", required=True)
    p.add_argument("--spec", default=None, help="JSON EpisodeSpec document")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--split", default="test", choices=["base", "val", "test"])
    p.add_argument("--dump", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("diagnose", help="dataset-level difficulty report for one split")
    p.add_argument("--store", required=True)
    p.add_argument("--split", default="test", choices=["base", "val", "test"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("run", help="evaluate configured methods over an episode stream")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="hyperparameter sweep on the validation split")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, directory in (("out", False), ("dump", True)):
            if getattr(args, flag, None) is not None:
                check_output_path(getattr(args, flag), f"--{flag}", directory)
        if getattr(args, "writes_store", False):
            check_output_path(sidecar_path(args.out), "--out sidecar")
        return args.func(args)
    except FsosrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
