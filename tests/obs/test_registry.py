"""Unit coverage of the metrics registry: instruments, names, snapshots."""

import json

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_NS,
    MetricsRegistry,
    NULL_REGISTRY,
    merge_snapshots,
    validate_snapshot,
)
from repro.obs.registry import _NULL_COUNTER, _NULL_GAUGE, _NULL_HISTOGRAM


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


# ---------------------------------------------------------------- instruments


def test_counter_accumulates_and_is_cached(registry):
    counter = registry.counter("daemon.requests_total", op="ping")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert registry.counter("daemon.requests_total", op="ping") is counter


def test_label_sets_get_distinct_instruments(registry):
    ping = registry.counter("daemon.requests_total", op="ping")
    store = registry.counter("daemon.requests_total", op="store_piece")
    ping.inc()
    assert store.value == 0


def test_label_order_does_not_matter(registry):
    first = registry.counter("client.requests_total", peer="a", op="ping")
    second = registry.counter("client.requests_total", op="ping", peer="a")
    assert first is second


def test_gauge_moves_both_ways(registry):
    gauge = registry.gauge("daemon.connections_open")
    gauge.inc()
    gauge.inc()
    gauge.dec()
    assert gauge.value == 1
    gauge.set(7)
    assert gauge.value == 7


def test_histogram_conserves_bucket_counts(registry):
    histogram = registry.histogram("daemon.handler_ns")
    for value in (500, 1000, 1001, 10**7, 10**11):
        histogram.observe(value)
    assert sum(histogram.counts) == 5
    assert histogram.min == 500
    assert histogram.max == 10**11
    # The last observation exceeds every bound: overflow bucket.
    assert histogram.counts[-1] == 1


def test_snapshot_conserves_buckets_while_another_thread_observes(registry):
    """A daemon's dispatch thread may observe while the loop snapshots.

    The ``counts`` stand-in finishes its copy with one more observation,
    as that thread would: the snapshot must still add up.
    """
    histogram = registry.histogram("daemon.handler_ns", op="ping")
    histogram.observe(1_000)

    class ObservedDuringCopy(list):
        def __iter__(self):
            yield from list.__iter__(self)
            histogram.observe(2_000)

    histogram.counts = ObservedDuringCopy(histogram.counts)
    (entry,) = validate_snapshot(registry.snapshot())["histograms"]
    assert entry["count"] == sum(entry["counts"]) == 1


def test_histogram_percentiles_interpolate_and_clamp(registry):
    histogram = registry.histogram("coordinator.op_ns", (100, 1000, 10_000))
    for value in (50, 60, 70, 8_000):
        histogram.observe(value)
    p50 = histogram.quantile(0.50)
    # Interpolated inside the first bucket, clamped to observed extrema.
    assert 50 <= p50 <= 100
    assert histogram.quantile(0.99) <= 8_000


def test_histogram_overflow_percentile_degrades_to_max(registry):
    histogram = registry.histogram("coordinator.op_ns", (10,))
    histogram.observe(12345)
    assert histogram.quantile(0.5) == 12345.0


def test_empty_histogram_has_no_percentiles(registry):
    histogram = registry.histogram("daemon.handler_ns")
    assert histogram.quantile(0.5) is None


def test_histogram_rejects_conflicting_buckets(registry):
    registry.histogram("coordinator.op_ns", (1, 2, 3))
    with pytest.raises(ValueError, match="different buckets"):
        registry.histogram("coordinator.op_ns", (1, 2))


def test_histogram_rejects_unsorted_buckets(registry):
    with pytest.raises(ValueError, match="ascend"):
        registry.histogram("coordinator.op_ns", (5, 1))


def test_default_buckets_span_microsecond_to_ten_seconds():
    assert DEFAULT_LATENCY_BUCKETS_NS[0] == 1_000
    assert DEFAULT_LATENCY_BUCKETS_NS[-1] == 10**10
    assert list(DEFAULT_LATENCY_BUCKETS_NS) == sorted(DEFAULT_LATENCY_BUCKETS_NS)


# ---------------------------------------------------------------- naming


@pytest.mark.parametrize(
    "name",
    ["BadName", "daemon", "daemon.", "daemon.CamelCase", "unknown.requests_total"],
)
def test_bad_metric_names_are_rejected(registry, name):
    with pytest.raises(ValueError):
        registry.counter(name)


def test_span_paths_may_nest_deep(registry):
    registry.histogram("span.insert.place.store_rpc").observe(1)


# ---------------------------------------------------------------- kill switch


def test_disabled_registry_hands_out_shared_noops():
    disabled = MetricsRegistry(enabled=False)
    assert disabled.counter("daemon.requests_total") is _NULL_COUNTER
    assert disabled.gauge("daemon.connections_open") is _NULL_GAUGE
    assert disabled.histogram("daemon.handler_ns") is _NULL_HISTOGRAM
    # No-ops accept updates and never validate names (zero overhead).
    disabled.counter("not even a valid name").inc()


def test_disabled_snapshot_is_valid_and_empty():
    snapshot = MetricsRegistry(enabled=False).snapshot()
    validate_snapshot(snapshot)
    assert snapshot["enabled"] is False
    assert snapshot["counters"] == []
    assert snapshot["histograms"] == []


def test_env_kill_switch(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "off")
    assert MetricsRegistry().enabled is False
    monkeypatch.setenv("REPRO_OBS", "on")
    assert MetricsRegistry().enabled is True
    monkeypatch.delenv("REPRO_OBS")
    assert MetricsRegistry().enabled is True


def test_null_registry_is_disabled():
    assert NULL_REGISTRY.enabled is False


# ---------------------------------------------------------------- snapshots


def test_snapshot_roundtrips_through_json(registry):
    registry.counter("daemon.requests_total", op="ping").inc(2)
    registry.gauge("daemon.connections_open").set(1)
    registry.histogram("daemon.handler_ns", op="ping").observe(5_000)
    payload = json.loads(registry.snapshot_json())
    validate_snapshot(payload)
    assert payload == registry.snapshot()


def test_snapshot_sections_are_sorted(registry):
    registry.counter("pool.connections_opened_total", peer="b").inc()
    registry.counter("client.requests_total", peer="a").inc()
    names = [entry["name"] for entry in registry.snapshot()["counters"]]
    assert names == sorted(names)


def test_validate_rejects_wrong_format():
    with pytest.raises(ValueError, match="format"):
        validate_snapshot({"format": "repro-obs-snapshot-v0"})


def test_validate_rejects_broken_conservation(registry):
    registry.histogram("daemon.handler_ns").observe(1)
    snapshot = registry.snapshot()
    snapshot["histograms"][0]["counts"][0] += 1
    with pytest.raises(ValueError, match="sum to"):
        validate_snapshot(snapshot)


def test_merge_adds_counters_and_buckets(registry):
    registry.counter("daemon.requests_total", op="ping").inc(3)
    registry.histogram("daemon.handler_ns").observe(2_000)
    snapshot = registry.snapshot()
    merged = merge_snapshots(snapshot, snapshot)
    validate_snapshot(merged)
    assert merged["counters"][0]["value"] == 6
    assert merged["histograms"][0]["count"] == 2
    assert merged["histograms"][0]["min"] == 2_000


def test_merge_rejects_mismatched_buckets():
    left = MetricsRegistry(enabled=True)
    right = MetricsRegistry(enabled=True)
    left.histogram("daemon.handler_ns", (1, 2)).observe(1)
    right.histogram("daemon.handler_ns", (1, 3)).observe(1)
    with pytest.raises(ValueError, match="bucket"):
        merge_snapshots(left.snapshot(), right.snapshot())


def test_merge_of_nothing_is_an_empty_snapshot():
    merged = merge_snapshots()
    validate_snapshot(merged)
    assert merged["enabled"] is False
