"""Which entry points the traced run wraps, and the per-layer metrics.

Each ``install_*`` function patches the public entry points of one group
of layers with :class:`~spans.SpanLog` wrappers.  Each ``*_metrics``
function turns the spans of a traced phase, plus counter deltas read
from the program's own metrics registry, into the per-layer metrics
named in ``BENCHMARK.json``.  A layer a workload never executes has no
spans and no counter movement, so its metrics read 0 there.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from spans import SpanLog, Span, covered, durations, union

#: The verifier's default implementations when the benchmark was
#: defined; one ``verify.impl.<name>_s`` metric each (``:`` becomes ``_``).
#: One the program no longer runs reads 0.
VERIFY_IMPLS = ("engine:bigint", "engine:numpy", "engine:sharded",
                "functional", "interpreter", "kernel", "machine",
                "recovery", "service:bigint", "service:numpy")


def impl_metric(name: str) -> str:
    return "verify.impl." + name.replace(":", "_") + "_s"


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- installation ------------------------------------------------------
def install_service(log: SpanLog) -> None:
    """Service, executor and metrics layers (in-process serving, verify)."""
    from repro.service import VlsaService
    from repro.service.executor import BatchArrays, VlsaBatchExecutor
    from repro.service.metrics import Histogram

    log.wrap(VlsaService, "submit", "service.submit", request_of=True)
    log.wrap(VlsaService, "submit_batch", "service.submit", request_of=True)
    log.wrap(VlsaBatchExecutor, "execute", "executor.execute",
             ops_of=lambda self, pairs: len(pairs))
    log.wrap(VlsaBatchExecutor, "coerce_pairs_array", "executor.coerce",
             ops_of=lambda self, pairs: len(pairs))
    log.wrap(VlsaBatchExecutor, "execute_arrays", "executor.kernel",
             ops_of=lambda self, arr: arr.shape[0])
    log.wrap(BatchArrays, "to_outcome", "executor.unpack",
             ops_of=lambda self: self.size)
    log.wrap(Histogram, "record", "metrics.record")


def edge_request_id(server, line: bytes) -> int:
    # The benchmark writes every request line as b'{"id": <n>, ...'.
    return int(line[7:line.index(b",")])


def install_edge(log: SpanLog) -> None:
    """TCP edge, cluster router, transport and metrics (server process)."""
    from repro.cluster.router import ClusterRouter
    from repro.cluster.transport import RouterChannel
    from repro.service.metrics import Histogram
    from repro.service.server import VlsaServer

    log.wrap(VlsaServer, "_handle_line", "server.handle",
             request_of=edge_request_id)
    log.wrap(ClusterRouter, "submit_batch", "router.submit")
    log.wrap(RouterChannel, "send", "transport.send")
    log.wrap(Histogram, "record", "metrics.record")


def install_verify(log: SpanLog, verifier) -> None:
    """The verifier's reference oracle and each implementation's ``run``."""
    log.wrap(verifier, "_reference", "verify.reference")
    for impl in verifier.impls:
        log.wrap(impl, "run", "verify.impl." + impl.name)
    install_service(log)  # the service:* implementations run the executor


# -- derivation --------------------------------------------------------
def executor_metrics(log: SpanLog) -> Dict[str, float]:
    spans = log.finished()
    out = {"executor.calls": len(durations(spans, "executor.execute")),
           "executor.busy_s": sum(durations(spans, "executor.execute")) / 1e9}
    for short, name in (("coerce", "executor.coerce"),
                        ("kernel", "executor.kernel"),
                        ("unpack", "executor.unpack")):
        out[f"executor.{short}_ns_per_op"] = _ratio(
            sum(durations(spans, name)), log.ops.get(name, 0))
    return out


def metrics_metrics(log: SpanLog, wall_s: float) -> Dict[str, float]:
    rec = durations(log.finished(), "metrics.record")
    return {"metrics.record_calls": len(rec),
            "metrics.record_us_per_call": _ratio(sum(rec), len(rec)) / 1e3,
            "metrics.record_share": _ratio(sum(rec) / 1e9, wall_s)}


def service_metrics(log: SpanLog, delta: Dict[str, float]) -> Dict[str, float]:
    spans = log.finished()
    submits = [(s[1], s[2]) for s in spans if s[0] == "service.submit"]
    executes = union((s[1], s[2]) for s in spans
                     if s[0] == "executor.execute")
    busy = union(submits)
    span_ns = sum(hi - lo for lo, hi in busy)
    return {
        "service.requests": len(submits),
        "service.batches": delta.get("batches_total", 0),
        "service.ops_per_batch": _ratio(delta.get("ops_total", 0),
                                        delta.get("batches_total", 0)),
        "service.submit_ms_p50": _pct([hi - lo for lo, hi in submits],
                                      50) / 1e6,
        "service.self_s": (span_ns - covered(busy, executes)) / 1e9,
        "service.rejected": delta.get("rejected_total", 0),
        "service.timeouts": delta.get("timeouts_total", 0),
    }


def edge_metrics(spans: List[Span], delta: Dict[str, float],
                 rtt_ns: Dict[int, int], errors: int,
                 ready_s: float) -> Dict[str, float]:
    router = {s[4]: s[2] - s[1] for s in spans if s[0] == "router.submit"}
    own = [rtt_ns[r] - router[r] for r in router if r in rtt_ns]
    sends = durations(spans, "transport.send")
    ops = delta.get("worker_ops_total", 0)
    msgs = delta.get("transport_tx_msgs_total", 0)
    return {
        "server.requests": len(durations(spans, "server.handle")),
        "server.errors": errors,
        "server.self_ms_p50": _pct(own, 50) / 1e6,
        "router.submit_ms_p50": _pct(list(router.values()), 50) / 1e6,
        "router.submit_ms_p99": _pct(list(router.values()), 99) / 1e6,
        "router.rejected": delta.get("rejected_total", 0),
        "router.redirected": delta.get("redirected_requests_total", 0),
        "router.degraded": delta.get("degraded_requests_total", 0),
        "transport.msgs": msgs,
        "transport.ops_per_msg": _ratio(ops, msgs),
        "transport.tx_bytes_per_op": _ratio(
            delta.get("transport_tx_bytes_total", 0), ops),
        "transport.rx_bytes_per_op": _ratio(
            delta.get("transport_rx_bytes_total", 0), ops),
        "transport.send_us_per_msg": _ratio(sum(sends), len(sends)) / 1e3,
        "transport.ring_full_stalls": delta.get(
            "transport_ring_full_stalls_total", 0),
        "transport.pipe_fallbacks": delta.get(
            "transport_pipe_fallback_total", 0),
        "worker.batches": delta.get("worker_batches_total", 0),
        "worker.ops_per_batch": _ratio(
            ops, delta.get("worker_batches_total", 0)),
        "supervisor.restarts": delta.get("worker_restarts_total", 0),
        "supervisor.ready_s": ready_s,
    }


def verify_metrics(log: SpanLog, vectors: int,
                   mismatches: int) -> Dict[str, float]:
    spans = log.finished()
    out = {"verify.vectors": vectors, "verify.mismatches": mismatches,
           "verify.reference_s": sum(durations(spans,
                                               "verify.reference")) / 1e9}
    for name in VERIFY_IMPLS:
        out[impl_metric(name)] = sum(durations(
            spans, "verify.impl." + name)) / 1e9
    return out


def counter_values(metrics_json: Dict[str, dict]) -> Dict[str, float]:
    """Counter name -> value from a registry's ``to_json`` snapshot."""
    return {k: v["value"] for k, v in metrics_json.items()
            if isinstance(v, dict) and v.get("type") == "counter"}


class Tracing:
    """Turns one set of wrappers on and off around traced slices.

    Spans of every slice land in one :class:`SpanLog`; the program's
    counters are read when a slice starts and ends, and :attr:`delta`
    sums their movement over the slices.  *uninstall* undoes *install*;
    both take the log (for ``edge`` they switch the wrappers inside the
    server process instead).
    """

    def __init__(self, install: Callable[[SpanLog], None],
                 counters: Callable[[], Dict[str, float]],
                 uninstall: Callable[[SpanLog], None] = SpanLog.uninstall):
        self.log = SpanLog()
        self.delta: Dict[str, float] = {}
        self.active = False
        self._install = install
        self._uninstall = uninstall
        self._counters = counters
        self._before: Dict[str, float] = {}

    def on(self) -> None:
        self._before = self._counters()
        self._install(self.log)
        self.active = True

    def off(self) -> None:
        self.active = False
        self._uninstall(self.log)
        for k, v in self._counters().items():
            self.delta[k] = self.delta.get(k, 0) + v - self._before.get(k, 0)


def layer_metrics(log: SpanLog, wall_s: float,
                  service_delta: Optional[Dict[str, float]] = None,
                  edge: Optional[Dict[str, float]] = None,
                  verify: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """The full per-layer set; layers a workload skips read 0."""
    out: Dict[str, float] = {}
    out.update(executor_metrics(log))
    out.update(metrics_metrics(log, wall_s))
    out.update(service_metrics(log, service_delta or {}))
    out.update(edge or edge_metrics([], {}, {}, 0, 0.0))
    out.update(verify or verify_metrics(log, 0, 0))
    return out
