"""Metrics registry: counters, gauges, histograms, exports."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.metrics import BUCKET_BITS


def test_counter_monotonic():
    c = Counter("ops_total")
    c.inc()
    c.inc(41)
    assert c.value == 42
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_peak():
    g = Gauge("depth")
    g.set(3)
    g.set(7)
    g.set(2)
    assert g.value == 2
    assert g.peak == 7
    g.inc(10)
    assert g.value == 12
    assert g.peak == 12
    g.dec(5)
    assert g.value == 7
    assert g.peak == 12  # dec never lowers the peak


def test_histogram_exact_aggregates():
    h = Histogram("lat")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.record(v)
    assert h.count == 4
    assert h.sum == pytest.approx(10.0)
    assert h.mean == pytest.approx(2.5)
    assert h.min == 1.0
    assert h.max == 4.0


def test_histogram_bulk_record_and_quantiles():
    h = Histogram("cycles")
    h.record(1, count=9900)
    h.record(2, count=100)
    assert h.count == 10000
    assert h.mean == pytest.approx(1.01)
    assert h.quantile(0.5) == 1.0
    assert h.quantile(0.99) in (1.0, 2.0)
    assert h.quantile(1.0) == 2.0


def _bucket(value):
    """*value* cut down to its top BUCKET_BITS significant bits."""
    mantissa, exponent = math.frexp(value)
    return math.ldexp(math.floor(mantissa * 2 ** BUCKET_BITS),
                      exponent - BUCKET_BITS)


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


QS = (0.0, 0.05, 0.5, 0.95, 0.99, 1.0)


@given(st.lists(st.floats(min_value=0.0, allow_nan=False,
                          allow_infinity=False), min_size=1),
       st.sampled_from(QS))
def test_histogram_quantile_is_bucket_of_raw_nearest_rank(values, q):
    h = Histogram("x")
    for v in values:
        h.record(v)
    raw = _nearest_rank(values, q)
    got = h.quantile(q)
    assert got == _bucket(raw)
    assert got <= raw <= got * (1 + 2.0 ** (1 - BUCKET_BITS))
    exported = h.to_json()
    assert [exported[f"p{int(p * 100)}"] for p in h.QUANTILES] == [
        h.quantile(p) for p in h.QUANTILES]


@given(st.lists(st.integers(min_value=0,
                            max_value=2 ** BUCKET_BITS - 1), min_size=1),
       st.sampled_from(QS))
def test_histogram_quantile_exact_for_small_integers(values, q):
    h = Histogram("x")
    for v in values:
        h.record(v)
    assert h.quantile(q) == _nearest_rank(values, q)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e12,
                                    allow_nan=False),
                          st.integers(min_value=1, max_value=1000),
                          st.integers(min_value=0, max_value=4)),
                min_size=1))
def test_histogram_merge_of_any_split_is_exact(samples):
    whole = Histogram("x")
    parts = [Histogram("x") for _ in range(5)]
    for value, count, part in samples:
        whole.record(value, count=count)
        parts[part].record(value, count=count)
    merged = Histogram("x")
    for part in parts:
        merged.merge_state(pickle.loads(pickle.dumps(part.state())))
    assert merged._counts == whole._counts
    assert (merged.count, merged.min, merged.max) == (
        whole.count, whole.min, whole.max)
    assert merged.sum == pytest.approx(whole.sum)
    for q in QS:
        assert merged.quantile(q) == whole.quantile(q)


def test_histogram_merge_does_not_alias_source_counts():
    src = Histogram("x")
    src.record(3.0)
    state = src.state()
    dst = Histogram("x")
    dst.merge_state(state)
    dst.record(3.0)
    assert state["counts"] == {3.0: 1}
    assert src._counts == {3.0: 1}


def test_histogram_bulk_record_is_constant_time_in_count():
    """Bulk recording is one dict update: ten million samples per call
    would hang a per-sample loop."""
    h = Histogram("lat")
    h.record(1.0, count=10_000_000)
    h.record(2.0, count=10_000_000)
    assert h.count == 20_000_000
    assert h.sum == pytest.approx(30_000_000.0)
    assert h.mean == pytest.approx(1.5)
    assert h.quantile(0.05) == 1.0
    assert h.quantile(0.95) == 2.0


def test_histogram_validation():
    h = Histogram("x")
    with pytest.raises(ValueError):
        h.record(1.0, count=0)
    with pytest.raises(ValueError):
        h.quantile(1.5)
    assert h.quantile(0.5) == 0.0  # empty


def test_registry_idempotent_and_kind_checked():
    reg = MetricsRegistry()
    c1 = reg.counter("ops_total")
    c2 = reg.counter("ops_total")
    assert c1 is c2
    with pytest.raises(TypeError):
        reg.gauge("ops_total")
    assert reg.get("missing") is None
    assert reg.names() == ["ops_total"]


def test_json_export_shapes():
    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    reg.gauge("b").set(1.5)
    reg.histogram("c").record(2.0)
    out = reg.to_json()
    assert out["a"] == {"type": "counter", "value": 3}
    assert out["b"] == {"type": "gauge", "value": 1.5, "peak": 1.5}
    assert out["c"]["count"] == 1
    assert set(out["c"]) >= {"p50", "p95", "p99", "mean", "sum"}


def test_prometheus_export_format():
    reg = MetricsRegistry(namespace="vlsa")
    reg.counter("ops_total", help="ops served").inc(5)
    reg.gauge("queue_depth").set(2)
    reg.histogram("latency_seconds").record(0.25)
    text = reg.to_prometheus()
    assert "# HELP vlsa_ops_total ops served" in text
    assert "# TYPE vlsa_ops_total counter" in text
    assert "vlsa_ops_total 5" in text
    assert "vlsa_queue_depth 2" in text
    assert "vlsa_queue_depth_peak 2" in text
    assert "# TYPE vlsa_latency_seconds summary" in text
    assert 'vlsa_latency_seconds{quantile="0.5"} 0.25' in text
    assert "vlsa_latency_seconds_count 1" in text


# ----------------------------------------------------------------------
# Cross-process merging (the cluster's aggregation primitive)
# ----------------------------------------------------------------------
def test_counter_merge_adds_values():
    a = Counter("ops_total")
    b = Counter("ops_total")
    a.inc(10)
    b.inc(32)
    a.merge(b)
    assert a.value == 42
    with pytest.raises(ValueError):
        a.merge_state({"value": -1})


def test_gauge_merge_adds_values_and_takes_peak():
    a = Gauge("depth")
    b = Gauge("depth")
    a.set(3)        # a: value 3, peak 3
    b.set(9)
    b.set(2)        # b: value 2, peak 9
    a.merge(b)
    assert a.value == 5
    assert a.peak == 9


def test_histogram_merge_exact_aggregates():
    a = Histogram("lat")
    b = Histogram("lat")
    for v in (1.0, 2.0):
        a.record(v)
    for v in (10.0, 20.0, 30.0):
        b.record(v)
    a.merge(b)
    assert a.count == 5
    assert a.sum == pytest.approx(63.0)
    assert a.min == 1.0
    assert a.max == 30.0


def test_registry_merge_snapshot_roundtrip():
    src = MetricsRegistry()
    src.counter("ops_total", "ops").inc(7)
    src.gauge("depth", "queue").set(3)
    src.histogram("lat", "latency").record(2.0, count=4)
    dst = MetricsRegistry()
    dst.counter("ops_total", "ops").inc(5)
    dst.merge_snapshot(src.state())
    assert dst.counter("ops_total").value == 12
    assert dst.gauge("depth").value == 3
    assert dst.histogram("lat").count == 4
    # Merging is additive and repeatable.
    dst.merge_snapshot(src.state())
    assert dst.counter("ops_total").value == 19


def test_registry_merge_rejects_kind_mismatch():
    src = MetricsRegistry()
    src.counter("x", "a counter").inc()
    dst = MetricsRegistry()
    dst.gauge("x", "a gauge").set(1)
    with pytest.raises(TypeError):
        dst.merge_snapshot(src.state())


def test_registry_merge_registries_directly():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("ops_total").inc(1)
    b.counter("ops_total").inc(2)
    b.counter("only_b_total").inc(9)
    a.merge(b)
    assert a.counter("ops_total").value == 3
    assert a.counter("only_b_total").value == 9


def test_registry_merge_snapshot_empty_is_noop():
    reg = MetricsRegistry()
    reg.counter("ops_total").inc(4)
    reg.merge_snapshot({})
    assert reg.counter("ops_total").value == 4
    assert reg.names() == ["ops_total"]


def test_registry_merge_snapshot_partial_subset():
    src = MetricsRegistry()
    src.counter("ops_total").inc(3)
    src.gauge("depth").set(7)
    dst = MetricsRegistry()
    dst.counter("ops_total").inc(1)
    snap = src.state()
    del snap["depth"]  # a worker that never registered the gauge
    dst.merge_snapshot(snap)
    assert dst.counter("ops_total").value == 4
    assert dst.get("depth") is None


def test_registry_merge_snapshot_unknown_kind_rejected():
    reg = MetricsRegistry()
    with pytest.raises(KeyError):
        reg.merge_snapshot({"weird": {"kind": "summary", "help": "",
                                      "state": {"value": 1}}})


def test_registry_merge_snapshot_malformed_entry_rejected():
    reg = MetricsRegistry()
    with pytest.raises(KeyError):
        reg.merge_snapshot({"ops_total": {"help": "no kind field"}})


def test_registry_merge_snapshot_negative_counter_rejected():
    reg = MetricsRegistry()
    reg.counter("ops_total").inc(2)
    with pytest.raises(ValueError):
        reg.merge_snapshot({"ops_total": {"kind": "counter", "help": "",
                                          "state": {"value": -5}}})
    # The failed merge must not have corrupted the counter.
    assert reg.counter("ops_total").value == 2
