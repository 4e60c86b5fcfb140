#!/usr/bin/env python3
"""Benchmark of `fsosr run`, one workload per invocation.

    python3 bench/run.py --workload quickstart --seed 1 --seconds 40 --trace 0

Run from any directory of a source checkout. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The line before it holds the machine facts. Details, the span dump and the
reports land in ``.bench_out/``; generated stores are cached in
``.bench_cache/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="episode stream seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "fsosr" / "__init__.py").is_file():
        print(f"error: no fsosr sources under {root / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads these when numpy loads, so they are set before any import of it.
    workloads.pin_blas_threads()
    sys.path.insert(0, str(root / "src"))
    import harness

    details = harness.run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"machine": details["machine"]}))
    print(json.dumps(details["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
