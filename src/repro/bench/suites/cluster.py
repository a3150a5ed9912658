"""Cluster suite: multi-process pool scaling versus the in-process
service.

The same uniform workload through the single-process service baseline
and through 1- and 2-worker pools (the ``full`` preset adds 4):
``cluster_w{n}`` drives an *n*-worker pool over the pickle-over-pipe
wire.  A benchmarked pool run must be *healthy*: restarts, degraded,
failed, rejected and timed-out requests are summed into a
``failures_total`` metric banded against zero, so a cluster that only
stays fast by dropping work cannot pass the gate.

Every pool bench derives ``us_per_message`` — wall microseconds per
router<->worker round trip — which is where serialization cost lives
once the adders themselves are vectorised.

Real worker processes only scale on real cores; the scaling *ratio*
is therefore left to the comparator (which sees the host manifest)
rather than hard-asserted here — the back-compat
``benchmarks/bench_cluster_throughput.py`` shim keeps the
CPU-conditional 2x acceptance bar.
"""

from __future__ import annotations

import math
import os
from typing import List, Optional

from ..spec import Benchmark, MetricBand, registry

__all__ = ["cluster_suite"]

_PRESET_OPS = {"small": 1 << 14, "full": 1 << 18}
_PRESET_POOLS = {"small": (1, 2), "full": (1, 2, 4)}

#: Ops per request in the pool benches — big batches, amortised wire.
_POOL_CHUNK = 2048

_HEALTH_KEYS = ("worker_restarts", "worker_failures",
                "degraded_requests", "failed_requests")

_HEALTH_BAND = MetricBand("failures_total", "expected_failures_total",
                          rel_tol=0.0)


def _us_per_message(report) -> float:
    messages = max(1, math.ceil(report.ops / _POOL_CHUNK))
    return report.wall_seconds * 1e6 / messages


def _derive(_state, report):
    failures = (report.rejected + report.timeouts
                + sum(report.params.get(k, 0) for k in _HEALTH_KEYS))
    out = {
        "adds_per_second": round(report.adds_per_second, 1),
        "mean_latency_cycles": report.mean_latency_cycles,
        "stall_rate": report.stall_rate,
        "us_per_message": round(_us_per_message(report), 3),
        "failures_total": failures,
        "expected_failures_total": 0,
    }
    for key in _HEALTH_KEYS:
        out[key] = report.params.get(key, 0)
    for key in ("transport_tx_bytes", "transport_rx_bytes"):
        if key in report.params:
            out[key] = report.params[key]
    return out


def _pool_bench(name: str, target: str, ops: int,
                workers: Optional[int]) -> Benchmark:
    def run(_state, target=target, ops=ops, workers=workers):
        from ...service import run_loadgen

        kwargs = dict(ops=ops, width=64, chunk=_POOL_CHUNK,
                      concurrency=4, max_batch_ops=1 << 14)
        if workers is not None:
            kwargs.update(target=target, workers=workers)
        return run_loadgen("uniform", **kwargs)

    # 5 samples: the minimum at which the exact Mann-Whitney p-value
    # can clear alpha = 0.05, so cluster regressions are detectable.
    return Benchmark(
        name=name, suite="cluster", payload=run, ops_per_call=ops,
        tags=("serving", "scaling"), calibrate=False, samples=5,
        derive=_derive, bands=(_HEALTH_BAND,),
        params={"target": target, "ops": ops,
                "workers": workers or 0, "width": 64})


@registry.suite("cluster")
def cluster_suite(preset: str) -> List[Benchmark]:
    ops = int(os.environ.get("REPRO_BENCH_CLUSTER_OPS",
                             _PRESET_OPS[preset]))
    pools = tuple(
        int(w) for w in os.environ.get(
            "REPRO_BENCH_CLUSTER_WORKERS",
            ",".join(str(p) for p in _PRESET_POOLS[preset])).split(","))
    benches: List[Benchmark] = [
        _pool_bench("service_baseline", "service", ops, None)]
    benches.extend(
        _pool_bench(f"cluster_w{workers}", "cluster", ops, workers)
        for workers in pools)
    return benches
