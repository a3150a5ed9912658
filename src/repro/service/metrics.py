"""Metrics registry for the serving layer: counters, gauges, histograms.

The service layer needs the observability primitives every production
serving stack grows: monotonically increasing **counters** (operations,
stalls, rejections), point-in-time **gauges** with high-water marks
(queue depth, in-flight batch size) and **histograms** with quantile
estimates (request latency, batch size).  Everything is plain Python —
no external client library — and exports in two formats:

* :meth:`MetricsRegistry.to_json` — a nested dict for manifests and
  ``results/`` artifacts;
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format, so a scraper pointed at the TCP front-end's ``metrics``
  command sees standard ``# TYPE``/``# HELP`` output.

Histograms keep exact count/sum/min/max plus an exact count per value
bucket, from which p50/p95/p99 are read by nearest rank.  A bucket is a
value cut down to its top 12 significant bits, so integers below 4096
(cycle latencies, most batch sizes) are counted exactly and any other
value within 2^-11 relative.  There is no sampling and no RNG: the same
sample stream always reports the same quantiles, and recording is one
dict update whatever the ``count`` of ``record(value, count=N)``.

Every instrument additionally supports **merging**, the primitive the
multi-process cluster is built on: a worker ships
:meth:`MetricsRegistry.state` (a picklable dict, including histogram
bucket counts) over its pipe, and the router folds any number of such
snapshots into one cluster-wide registry with
:meth:`MetricsRegistry.merge_snapshot`.  Counters add; gauges add their
current values and keep the max of the per-source peaks; histograms add
their bucket counts, so a merged histogram is exactly the one a single
process would have recorded from all the samples, in any merge order.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Significant bits kept in a histogram bucket key: integers below
#: ``2**BUCKET_BITS`` are exact, any other value is within
#: ``2**(1 - BUCKET_BITS)`` relative of its bucket's lower bound.
BUCKET_BITS = 12
_BUCKET_SCALE = float(1 << BUCKET_BITS)


def _fmt(value: float) -> str:
    """Prometheus-friendly number formatting (ints stay ints)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing counter.

    Args:
        name: Metric name (``snake_case``, no unit suffix enforcement).
        help: One-line description for the Prometheus exposition.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_json(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}

    def sample_lines(self) -> List[str]:
        return [f"{self.name} {_fmt(self.value)}"]

    def state(self) -> Dict[str, Any]:
        """Full picklable state for :meth:`merge_state` on another side."""
        return {"value": self.value}

    def merge(self, other: "Counter") -> None:
        """Fold *other* into this counter (disjoint sources add)."""
        self.merge_state(other.state())

    def merge_state(self, state: Dict[str, Any]) -> None:
        value = state["value"]
        if value < 0:
            raise ValueError("counters only go up")
        self.value += value


class Gauge:
    """A point-in-time value that also tracks its high-water mark."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0
        self.peak: float = 0

    def set(self, value: float) -> None:
        """Set the gauge (the peak is updated automatically)."""
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def to_json(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value, "peak": self.peak}

    def sample_lines(self) -> List[str]:
        return [f"{self.name} {_fmt(self.value)}",
                f"{self.name}_peak {_fmt(self.peak)}"]

    def state(self) -> Dict[str, Any]:
        return {"value": self.value, "peak": self.peak}

    def merge(self, other: "Gauge") -> None:
        """Fold *other* in: values add (disjoint sources), peaks max.

        A cluster-wide simultaneous peak cannot be reconstructed from
        per-source snapshots, so the merged peak is the largest
        per-source high-water mark (a lower bound on the true combined
        peak, still useful for "did any worker ever see N").
        """
        self.merge_state(other.state())

    def merge_state(self, state: Dict[str, Any]) -> None:
        self.value += state["value"]
        self.peak = max(self.peak, state["peak"], self.value)


class Histogram:
    """Exact streaming histogram: one count per value bucket.

    Keeps exact ``count``/``sum``/``min``/``max`` and a dict from bucket
    key to count.  The key is the value cut down to its top
    :data:`BUCKET_BITS` significant bits (the bucket's lower bound), so
    integers below ``2**BUCKET_BITS`` — cycle latencies, most batch
    sizes — are stored exactly and any other value within ``2**-11``
    relative.  Memory grows with the number of distinct buckets, not
    with the number of samples.

    :meth:`record` accepts a ``count`` so integer-valued distributions
    (e.g. latency in cycles, which is almost always exactly 1) can be
    recorded in bulk without a million calls.
    """

    kind = "histogram"

    #: Default quantiles reported by :meth:`to_json`/:meth:`sample_lines`.
    QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._counts: Dict[float, int] = {}

    def record(self, value: float, count: int = 1) -> None:
        """Record *value* occurring *count* times (O(1) in *count*)."""
        if count <= 0:
            raise ValueError("count must be positive")
        value = float(value)
        self.count += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        mantissa, exponent = math.frexp(value)
        key = math.ldexp(math.floor(mantissa * _BUCKET_SCALE),
                         exponent - BUCKET_BITS)
        self._counts[key] = self._counts.get(key, 0) + count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank *q*-quantile, as the lower bound of its bucket."""
        if not (0.0 <= q <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = min(self.count - 1, int(q * self.count))
        for key in sorted(self._counts):
            rank -= self._counts[key]
            if rank < 0:
                break
        return key

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        for q in self.QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out

    def sample_lines(self) -> List[str]:
        lines = [f"{self.name}_count {_fmt(self.count)}",
                 f"{self.name}_sum {_fmt(self.sum)}"]
        for q in self.QUANTILES:
            lines.append(
                f'{self.name}{{quantile="{q}"}} {_fmt(self.quantile(q))}')
        return lines

    def state(self) -> Dict[str, Any]:
        """Picklable state, bucket counts included, for cross-process merge."""
        return {"count": self.count, "sum": self.sum, "min": self.min,
                "max": self.max, "counts": dict(self._counts)}

    def merge(self, other: "Histogram") -> None:
        """Fold *other*'s samples into this histogram (exact)."""
        self.merge_state(other.state())

    def merge_state(self, state: Dict[str, Any]) -> None:
        if state["count"] == 0:
            return
        self.count += state["count"]
        self.sum += state["sum"]
        for bound, pick in (("min", min), ("max", max)):
            theirs = state[bound]
            ours = getattr(self, bound)
            setattr(self, bound, theirs if ours is None else pick(ours, theirs))
        counts = self._counts
        for key, n in state["counts"].items():
            counts[key] = counts.get(key, 0) + n


class MetricsRegistry:
    """A named collection of metrics with idempotent registration.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when one with that name is already registered (mismatched kinds
    raise), so independent components can share the registry without
    coordination.  Thread-safe registration; instrument updates are
    single-threaded by design (the service owns one event loop).
    """

    def __init__(self, namespace: str = "vlsa"):
        self.namespace = namespace
        self._metrics: "Dict[str, Any]" = {}
        self._lock = threading.Lock()

    def _get_or_make(self, cls, name: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter *name*."""
        return self._get_or_make(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_make(Gauge, name, help=help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        """Get or create the histogram *name*."""
        return self._get_or_make(Histogram, name, help=help)

    def get(self, name: str):
        """The registered metric, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- cross-process merge --------------------------------------------
    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def state(self) -> Dict[str, Any]:
        """Full picklable snapshot of every instrument (for the wire).

        Unlike :meth:`to_json` this includes histogram bucket counts, so
        a registry on the other side of a pipe can merge it losslessly
        with :meth:`merge_snapshot`.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return {m.name: {"kind": m.kind, "help": m.help,
                         "state": m.state()} for m in metrics}

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold one :meth:`state` snapshot into this registry.

        Instruments missing here are created (same kind and help);
        existing ones must match kinds or a :class:`TypeError` is
        raised.  Merging N disjoint worker snapshots yields cluster
        totals: counters add, gauges add values, histograms add bucket
        counts (exact in every field, float rounding of ``sum`` aside).
        """
        for name in sorted(snapshot):
            entry = snapshot[name]
            cls = self._KINDS[entry["kind"]]
            if cls is Histogram:
                metric = self.histogram(name, help=entry["help"])
            elif cls is Gauge:
                metric = self.gauge(name, help=entry["help"])
            else:
                metric = self.counter(name, help=entry["help"])
            metric.merge_state(entry["state"])

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every instrument of *other* into this registry."""
        self.merge_snapshot(other.state())

    # -- export ---------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """``{metric_name: snapshot}`` for manifests and results files."""
        return {name: self._metrics[name].to_json()
                for name in sorted(self._metrics)}

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every registered metric."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            full = f"{self.namespace}_{name}"
            if metric.help:
                lines.append(f"# HELP {full} {metric.help}")
            kind = "summary" if metric.kind == "histogram" else metric.kind
            lines.append(f"# TYPE {full} {kind}")
            for sample in metric.sample_lines():
                lines.append(f"{self.namespace}_{sample}")
        return "\n".join(lines) + "\n"
