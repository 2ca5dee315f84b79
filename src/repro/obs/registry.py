"""Dependency-free metrics registry for the live net stack.

A :class:`MetricsRegistry` holds three instrument kinds:

- **counters** -- monotonically increasing integers (requests served,
  bytes moved, failures seen);
- **gauges** -- point-in-time values that can move both ways (open
  connections, repair lag);
- **histograms** -- fixed-bucket distributions with conserved bucket
  counts, built for nanosecond latencies (``perf_counter_ns``).

Instruments are plain attribute updates, without a lock, and each has
one writer at a time.  That is usually the event loop, but a daemon's
``daemon.requests_total``, ``daemon.handler_ns``, ``daemon.queue_ns``
and ``store.*`` instruments are updated by whichever shared dispatch
thread runs that daemon's request -- one at a time, as the daemon
serializes its dispatch -- while the loop may be taking a snapshot.  The snapshot reads each histogram's buckets once
and derives the count and the percentiles from that copy, so it
conserves buckets even then (see :class:`Histogram`).  The registry
serializes to a versioned JSON snapshot (``repro-obs-snapshot-v1``)
whose merge is associative -- counters and bucket counts add,
mins/maxes combine, percentiles are recomputed from the merged buckets
-- so per-daemon snapshots can be rolled up in any grouping order.

The ``REPRO_OBS=off`` kill switch is read once, when a registry is
constructed.  A disabled registry hands out shared no-op instruments
and a no-op span, so instrumented code pays one dict-free method call
per update and records nothing; its snapshot is valid but empty.

Metric names follow ``domain.noun_verb``: a known domain
(:data:`METRIC_DOMAINS`), then one or more dot-separated snake_case
segments.  Names are validated at instrument creation; reprolint RL402
enforces the same table statically (``repro.devtools.tables``).
"""

from __future__ import annotations

import json
import os
import re
import time
from bisect import bisect_left

__all__ = [
    "SNAPSHOT_FORMAT",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "METRIC_DOMAINS",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "now_ns",
    "obs_enabled",
    "merge_snapshots",
    "validate_snapshot",
]

SNAPSHOT_FORMAT = "repro-obs-snapshot-v1"

#: Geometric 1-2.5-5 nanosecond buckets from 1 microsecond to 10 seconds.
#: Everything slower than 10 s lands in the overflow bucket; percentile
#: estimates there degrade to the observed maximum.
DEFAULT_LATENCY_BUCKETS_NS: tuple[int, ...] = tuple(
    int(mantissa * 10**exponent)
    for exponent in range(3, 10)
    for mantissa in (1, 2.5, 5)
) + (10**10,)

#: The first segment every metric name must carry -- one per
#: instrumented subsystem.  Mirrored by reprolint's RL402 table.
METRIC_DOMAINS = frozenset(
    {"daemon", "client", "pool", "coordinator", "store", "span", "scenario", "bench"}
)

#: ``domain.noun_verb``: a bare lowercase domain, then dot-separated
#: snake_case segments (span paths nest, so more than two are allowed).
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9]*(\.[a-z][a-z0-9_]*)+$")

_QUANTILES = ((50, 0.50), (95, 0.95), (99, 0.99))


def obs_enabled() -> bool:
    """The ``REPRO_OBS`` kill switch (anything but off/0/false/no = on)."""
    raw = os.environ.get("REPRO_OBS", "on").strip().lower()
    return raw not in ("off", "0", "false", "no")


def now_ns() -> int:
    """The observability clock: monotonic, nanosecond resolution.

    Every span and latency measurement in the codebase goes through
    this (reprolint RL401 flags ``time.time()``/``time.monotonic()``
    duration arithmetic in production code).
    """
    return time.perf_counter_ns()


def _check_name(name: str) -> None:
    if not METRIC_NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must be domain.noun_verb "
            "(lowercase dot-separated snake_case segments)"
        )
    domain = name.split(".", 1)[0]
    if domain not in METRIC_DOMAINS:
        raise ValueError(
            f"metric name {name!r} uses unknown domain {domain!r}; "
            f"known domains: {', '.join(sorted(METRIC_DOMAINS))}"
        )


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; moves both ways."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount


class Histogram:
    """Fixed upper-bound buckets plus exact sum/min/max.

    ``counts[i]`` holds observations ``<= bounds[i]``; the final slot is
    the overflow bucket, so ``len(counts) == len(bounds) + 1``.  The
    number of observations is ``sum(counts)``: a snapshot sums the same
    copy of ``counts`` it reports, so its ``count`` conserves buckets
    even while another thread observes.  ``sum``, ``min`` and ``max`` are
    read after that copy and can lead it by that thread's observation.
    """

    __slots__ = ("bounds", "counts", "sum", "min", "max")

    def __init__(self, bounds: tuple[int, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0
        self.min: int | None = None
        self.max: int | None = None

    def observe(self, value) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> float | None:
        return histogram_quantile(
            self.bounds, self.counts, sum(self.counts), self.min, self.max, q
        )


def histogram_quantile(bounds, counts, count, minimum, maximum, q) -> float | None:
    """Estimate quantile ``q`` by linear interpolation within a bucket.

    Deterministic in the bucket state alone, so merged snapshots report
    the same percentiles no matter how they were grouped.  Returns
    ``None`` for an empty histogram; the overflow bucket degrades to the
    observed maximum.
    """
    if not count:
        return None
    target = q * count
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= target:
            if index >= len(bounds):
                return float(maximum)
            upper = float(bounds[index])
            lower = float(bounds[index - 1]) if index else 0.0
            estimate = lower + (upper - lower) * ((target - cumulative) / bucket_count)
            return min(max(estimate, float(minimum)), float(maximum))
        cumulative += bucket_count
    return float(maximum)  # pragma: no cover - counts/count drift


# ----------------------------------------------------------------------
# no-op instruments (kill switch)
# ----------------------------------------------------------------------


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0

    def set(self, value) -> None:
        pass

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    bounds: tuple[int, ...] = ()
    sum = 0
    min = None
    max = None

    def observe(self, value) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------


def _key(name: str, labels: dict) -> tuple[str, tuple[tuple[str, str], ...]]:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """All instruments of one process/component, keyed by (name, labels).

    ``enabled=None`` reads the ``REPRO_OBS`` environment switch at
    construction; instruments handed out by a disabled registry are
    shared no-ops.
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool | None = None) -> None:
        self.enabled = obs_enabled() if enabled is None else bool(enabled)
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    def counter(self, name: str, **labels) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            _check_name(name)
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            _check_name(name)
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self, name: str, buckets: tuple[int, ...] | None = None, **labels
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            _check_name(name)
            bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS_NS
            if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
                raise ValueError(f"histogram buckets must strictly ascend: {bounds}")
            instrument = self._histograms[key] = Histogram(bounds)
        elif buckets is not None and tuple(buckets) != instrument.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return instrument

    def span(self, name: str):
        """Start (but don't enter) a root :class:`~repro.obs.spans.Span`."""
        # Local import: spans.py uses this module's clock, and the
        # convenience accessor must not make the dependency circular.
        from repro.obs.spans import NULL_SPAN, Span

        if not self.enabled:
            return NULL_SPAN
        return Span(self, name)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The registry as a ``repro-obs-snapshot-v1`` JSON-able dict."""
        counters = [
            {"name": name, "labels": dict(labels), "value": counter.value}
            for (name, labels), counter in sorted(self._counters.items())
        ]
        gauges = [
            {"name": name, "labels": dict(labels), "value": gauge.value}
            for (name, labels), gauge in sorted(self._gauges.items())
        ]
        histograms = [
            _histogram_entry(name, dict(labels), histogram)
            for (name, labels), histogram in sorted(self._histograms.items())
        ]
        return {
            "format": SNAPSHOT_FORMAT,
            "enabled": self.enabled,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def snapshot_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def _histogram_entry(name: str, labels: dict, histogram) -> dict:
    # One copy of the buckets feeds the count and every percentile.
    counts = list(histogram.counts)
    entry = {
        "name": name,
        "labels": labels,
        "buckets": list(histogram.bounds),
        "counts": counts,
        "count": sum(counts),
        "sum": histogram.sum,
        "min": histogram.min,
        "max": histogram.max,
    }
    for label, q in _QUANTILES:
        entry[f"p{label}"] = histogram_quantile(
            histogram.bounds, counts, entry["count"], entry["min"], entry["max"], q
        )
    return entry


#: The shared always-off registry: instrumented components that were not
#: handed a registry attach to this one and record nothing.
NULL_REGISTRY = MetricsRegistry(enabled=False)


# ----------------------------------------------------------------------
# snapshot merge / validation
# ----------------------------------------------------------------------


def validate_snapshot(payload) -> dict:
    """Check ``payload`` against the v1 snapshot schema; returns it.

    Raises ``ValueError`` on any structural violation, including the
    bucket-count conservation law ``sum(counts) == count``.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"snapshot must be a dict, got {type(payload).__name__}")
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"unsupported snapshot format {payload.get('format')!r}, "
            f"expected {SNAPSHOT_FORMAT!r}"
        )
    for section in ("counters", "gauges", "histograms"):
        entries = payload.get(section)
        if not isinstance(entries, list):
            raise ValueError(f"snapshot section {section!r} must be a list")
        for entry in entries:
            if not isinstance(entry.get("name"), str):
                raise ValueError(f"{section} entry without a name: {entry!r}")
            if not isinstance(entry.get("labels"), dict):
                raise ValueError(f"{section} entry without labels: {entry!r}")
            if section != "histograms":
                if "value" not in entry:
                    raise ValueError(f"{section} entry without a value: {entry!r}")
                continue
            buckets, counts = entry.get("buckets"), entry.get("counts")
            if not isinstance(buckets, list) or not isinstance(counts, list):
                raise ValueError(f"histogram entry without buckets: {entry!r}")
            if len(counts) != len(buckets) + 1:
                raise ValueError(
                    f"histogram {entry['name']!r}: {len(counts)} counts for "
                    f"{len(buckets)} buckets (want buckets + 1)"
                )
            if sum(counts) != entry.get("count"):
                raise ValueError(
                    f"histogram {entry['name']!r}: bucket counts sum to "
                    f"{sum(counts)}, count says {entry.get('count')}"
                )
    return payload


def merge_snapshots(*snapshots: dict) -> dict:
    """Combine snapshots: counters/gauges/buckets add, extrema combine.

    Associative and commutative (percentiles are recomputed from the
    merged bucket state), so per-peer snapshots roll up in any order.
    Histograms merged under the same (name, labels) must share bucket
    bounds.
    """
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    enabled = False
    for snapshot in snapshots:
        validate_snapshot(snapshot)
        enabled = enabled or bool(snapshot.get("enabled"))
        for entry in snapshot["counters"]:
            key = _key(entry["name"], entry["labels"])
            counters[key] = counters.get(key, 0) + entry["value"]
        for entry in snapshot["gauges"]:
            key = _key(entry["name"], entry["labels"])
            gauges[key] = gauges.get(key, 0) + entry["value"]
        for entry in snapshot["histograms"]:
            key = _key(entry["name"], entry["labels"])
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = {
                    "buckets": list(entry["buckets"]),
                    "counts": list(entry["counts"]),
                    "count": entry["count"],
                    "sum": entry["sum"],
                    "min": entry["min"],
                    "max": entry["max"],
                }
                continue
            if merged["buckets"] != entry["buckets"]:
                raise ValueError(
                    f"cannot merge histogram {entry['name']!r}: bucket "
                    "bounds differ between snapshots"
                )
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], entry["counts"])
            ]
            merged["count"] += entry["count"]
            merged["sum"] += entry["sum"]
            merged["min"] = _combine(min, merged["min"], entry["min"])
            merged["max"] = _combine(max, merged["max"], entry["max"])
    histogram_entries = []
    for (name, labels), state in sorted(histograms.items()):
        entry = {"name": name, "labels": dict(labels), **state}
        for label, q in _QUANTILES:
            entry[f"p{label}"] = histogram_quantile(
                state["buckets"],
                state["counts"],
                state["count"],
                state["min"],
                state["max"],
                q,
            )
        histogram_entries.append(entry)
    return {
        "format": SNAPSHOT_FORMAT,
        "enabled": enabled,
        "counters": [
            {"name": name, "labels": dict(labels), "value": value}
            for (name, labels), value in sorted(counters.items())
        ],
        "gauges": [
            {"name": name, "labels": dict(labels), "value": value}
            for (name, labels), value in sorted(gauges.items())
        ],
        "histograms": histogram_entries,
    }


def _combine(func, left, right):
    if left is None:
        return right
    if right is None:
        return left
    return func(left, right)
