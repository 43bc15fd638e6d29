"""repro.metrics — the fabric-wide observability plane.

A typed, zero-cost-when-disabled metrics registry (counters, gauges,
fixed-bucket histograms, simulated-time stage timers) scoped per node /
per subgroup / fabric-wide, with JSON and Prometheus-text exporters and
the per-stage pipeline profile of §4.1.1. Reachable as
``cluster.metrics``; see docs/METRICS.md for the metric catalog.
"""

from .export import to_json, to_prometheus
from .registry import (
    DEFAULT_BATCH_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScopedRegistry,
    StageTimer,
    null_registry,
    registry_enabled_from_env,
)
from .stages import (
    NESTED_STAGES,
    PARTITION_STAGES,
    STAGE_DELIVERY_PREDICATE,
    STAGE_DELIVERY_UPCALL,
    STAGE_NULL_SEND_ANNOUNCE,
    STAGE_OTHER_PREDICATE,
    STAGE_RECEIVE_PREDICATE,
    STAGE_SEND_PREDICATE,
    STAGE_SEND_SLOT_ACQUIRE,
    STAGE_SST_POST,
    STAGE_TIME,
    check_partition,
    stage_profile,
)

__all__ = [
    "MetricsRegistry", "ScopedRegistry", "Counter", "Gauge", "Histogram",
    "StageTimer", "null_registry", "registry_enabled_from_env",
    "DEFAULT_BATCH_BUCKETS", "DEFAULT_LATENCY_BUCKETS",
    "to_json", "to_prometheus",
    "STAGE_TIME", "STAGE_SEND_SLOT_ACQUIRE", "STAGE_SST_POST",
    "STAGE_RECEIVE_PREDICATE", "STAGE_NULL_SEND_ANNOUNCE",
    "STAGE_DELIVERY_UPCALL", "STAGE_SEND_PREDICATE",
    "STAGE_DELIVERY_PREDICATE", "STAGE_OTHER_PREDICATE",
    "PARTITION_STAGES", "NESTED_STAGES",
    "stage_profile", "check_partition",
]
