#!/usr/bin/env python3
"""Record the reference CRC and metric means of every workload.

    python3 bench/record_reference.py

Runs each workload once on ``workloads.REFERENCE_SEED`` and rewrites
bench/reference.json. Do this only when a change is meant to alter the
episode stream or the scores; the benchmark checks every run against it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    workloads.pin_blas_threads()
    sys.path.insert(0, str(root / "src"))
    import harness
    from fsosr import runner

    references = {}
    for name, wl in workloads.WORKLOADS.items():
        store = harness.ensure_store(root, wl)
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            doc = wl.config_doc(store, workloads.REFERENCE_SEED, Path(tmp))
            runner.run(runner.config_from_dict(doc))
            report = json.loads((Path(tmp) / "run_report.json").read_text())
        references[name] = {
            "n_episodes": wl.chunk,
            "episode_stream_crc32": report["episode_stream_crc32"],
            "means": {
                method: {k: None if v is None else v["mean"] for k, v in r["metrics"].items()}
                for method, r in report["reports"].items()
            },
        }
        print(f"{name}: crc {references[name]['episode_stream_crc32']}")
    (Path(__file__).resolve().parent / "reference.json").write_text(
        json.dumps(references, indent=2, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
