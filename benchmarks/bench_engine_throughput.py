"""Engine throughput — back-compat shim over the ``engine`` bench suite.

The measurement itself moved to :mod:`repro.bench.suites.engine`
(declarative registry + calibrated runner + shared result schema).
This pytest entry point survives so ``pytest benchmarks/`` keeps
regenerating ``results/BENCH_engine.json`` and enforcing the
repository's acceptance bar: the compiled engine bit-identical to the
interpreter (checked at suite setup) and, at full volume, the engine
>= 5x the interpreter at width 64.

``REPRO_BENCH_ENGINE_VECTORS`` / ``REPRO_BENCH_ENGINE_WIDTHS``
override the sweep, as before.
"""

import os

from repro.bench import (RunnerConfig, build_payload, load_builtin_suites,
                         registry, run_benchmark, validate_payload,
                         write_suite_result)

FULL_SPEEDUP_BAR = 5.0
FULL_VECTORS = 1 << 18


def test_engine_throughput_vs_legacy(show):
    load_builtin_suites()
    config = RunnerConfig()
    results = [run_benchmark(b, config)
               for b in registry.build("engine", "small")]
    payload = build_payload("engine", "small", results, config)
    validate_payload(payload)
    path = write_suite_result(payload)

    by_name = {r.name: r for r in results}
    lines = ["engine throughput (unified harness)",
             f"{'benchmark':<20} {'Mops/s':>10}"]
    for r in results:
        lines.append(f"{r.name:<20} {r.ops_per_second / 1e6:>10.2f}")
    lines.append(f"[json: {path}]")
    show("\n".join(lines))

    assert all(not r.band_violations for r in results)
    # The 5x acceptance bar needs full vector volume; enforce it only
    # when the caller asked for it (nightly / explicit override).
    base = int(os.environ.get("REPRO_BENCH_ENGINE_VECTORS", 0))
    if base >= FULL_VECTORS and "bigint_w64" in by_name:
        speedup = (by_name["bigint_w64"].ops_per_second
                   / by_name["legacy_w64"].ops_per_second)
        assert speedup >= FULL_SPEEDUP_BAR, (
            f"engine only {speedup:.1f}x the interpreter")
