"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

Workloads: ``bulk``, ``scalar``, ``edge``, ``verify`` (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics from
a separate traced run and writes the spans to ``perfbench/out/``.  One
line per metric (value, unit, sample count) comes first; the last line
of standard output is a single JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count additions (``verify``: vectors).  An
addition fails when its request was refused, timed out, errored or was
never answered, or when the reply holds a wrong sum or carry-out.
``correct`` is true only when nothing failed and every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program's sources (src/repro) are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in named}

    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    if set(result.metrics) != set(units):
        raise SystemExit(f"perfbench: metric set differs from BENCHMARK.json:"
                         f" {sorted(set(result.metrics) ^ set(units))}")
    for name, unit in units.items():
        n = result.samples.get(name)
        print(f"{args.workload:7s} {name:28s} {result.metrics[name]:16.6f} "
              f"{unit:6s}{f' n={n}' if n is not None else ''}")
    print(f"{args.workload:7s} {'failed_share':28s} "
          f"{result.failed / max(result.attempted, 1):16.6f} share  "
          f"n={result.attempted}")
    for check, ok in sorted(result.checks.items()):
        print(f"{args.workload:7s} check {check}: {'ok' if ok else 'FAILED'}")
    for note in result.notes:
        print(f"{args.workload:7s} {note}")
    correct = result.failed == 0 and all(result.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
