"""repro.obs: metrics + span tracing for the live net stack.

See ``docs/OBSERVABILITY.md``.  The registry and span API are
dependency-free and lock-free; snapshots are versioned JSON
(``repro-obs-snapshot-v1``) and merge associatively.  ``REPRO_OBS=off``
turns the whole layer into shared no-ops.
"""

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_NS,
    METRIC_DOMAINS,
    NULL_REGISTRY,
    SNAPSHOT_FORMAT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    now_ns,
    obs_enabled,
    validate_snapshot,
)
from repro.obs.spans import NULL_SPAN, Span

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_NS",
    "METRIC_DOMAINS",
    "NULL_REGISTRY",
    "SNAPSHOT_FORMAT",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "merge_snapshots",
    "now_ns",
    "obs_enabled",
    "validate_snapshot",
]
