"""Pipeline-stage names and the per-stage time profile (§4.1.1).

The paper's evaluation decomposes where protocol time goes; we
instrument the five stages it names plus the remaining predicate work,
all under one metric::

    spindle_stage_time_seconds{stage=..., node=..., [subgroup=...], [lock_phase=...]}

Two families:

* **Predicate-thread partition** — every simulated second the polling
  thread is busy lands in exactly one of ``send_predicate``,
  ``receive_predicate``, ``delivery_predicate``, ``other_predicate``
  (membership, durability) or ``sst_post`` (split by ``lock_phase``
  into ``prelock``/``postlock``, §3.4). Their total equals the
  thread's busy time, which is what ``spindle-repro metrics --profile``
  checks and prints.

* **Nested / app-side stages** — ``send_slot_acquire`` (application
  sender blocked on a ring slot, §4.1.1) runs on application threads;
  ``delivery_upcall`` (§3.1/§3.5) is a sub-span *inside* the delivery
  or receive predicate's time. Neither is added to the partition total.

``null_send_announce`` (§3.3) is event-counted rather than timed — the
announcement is a single counter write whose push cost is accounted
under ``sst_post`` like any other control push:
``spindle_nulls_announced_total`` / ``spindle_null_announce_pushes_total``.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .registry import MetricsRegistry

__all__ = [
    "STAGE_TIME", "STAGE_SEND_SLOT_ACQUIRE", "STAGE_SST_POST",
    "STAGE_RECEIVE_PREDICATE", "STAGE_NULL_SEND_ANNOUNCE",
    "STAGE_DELIVERY_UPCALL", "STAGE_SEND_PREDICATE",
    "STAGE_DELIVERY_PREDICATE", "STAGE_OTHER_PREDICATE",
    "PARTITION_STAGES", "NESTED_STAGES",
    "TXN_STAGE_TIME", "TXN_STAGE_EXECUTE", "TXN_STAGE_VALIDATE_OR_LOCK",
    "TXN_STAGE_PREPARE", "TXN_STAGE_SETTLE", "TXN_STAGES",
    "stage_profile",
]

#: The shared stage-timer metric name.
STAGE_TIME = "spindle_stage_time_seconds"

# -- transaction-plane stages (docs/TRANSACTIONS.md) ------------------------
#: Per-stage timer of the txn coordinator:
#: ``spindle_txn_stage_seconds{stage=...}``.
TXN_STAGE_TIME = "spindle_txn_stage_seconds"
TXN_STAGE_EXECUTE = "execute"                   # reads + write buffering
TXN_STAGE_VALIDATE_OR_LOCK = "validate_or_lock"  # OCC fences / 2PL acquires
TXN_STAGE_PREPARE = "prepare"                   # per-shard ordered prepares
TXN_STAGE_SETTLE = "settle"                     # commit/abort settle round
TXN_STAGES = (TXN_STAGE_EXECUTE, TXN_STAGE_VALIDATE_OR_LOCK,
              TXN_STAGE_PREPARE, TXN_STAGE_SETTLE)

# -- the five stages the paper names ----------------------------------------
STAGE_SEND_SLOT_ACQUIRE = "send_slot_acquire"    # §4.1.1 sender wait
STAGE_SST_POST = "sst_post"                      # §3.2/§3.4 (lock_phase label)
STAGE_RECEIVE_PREDICATE = "receive_predicate"    # §2.4 receive fire
STAGE_NULL_SEND_ANNOUNCE = "null_send_announce"  # §3.3 (event counters)
STAGE_DELIVERY_UPCALL = "delivery_upcall"        # §3.1/§3.5

# -- the rest of the predicate-thread partition -----------------------------
STAGE_SEND_PREDICATE = "send_predicate"
STAGE_DELIVERY_PREDICATE = "delivery_predicate"
STAGE_OTHER_PREDICATE = "other_predicate"

#: Stages whose timers partition predicate-thread busy time exactly.
PARTITION_STAGES = (
    STAGE_SEND_PREDICATE,
    STAGE_RECEIVE_PREDICATE,
    STAGE_DELIVERY_PREDICATE,
    STAGE_OTHER_PREDICATE,
    STAGE_SST_POST,
)

#: Sub-spans / app-side spans, reported but not part of the partition.
NESTED_STAGES = (STAGE_SEND_SLOT_ACQUIRE, STAGE_DELIVERY_UPCALL)


def stage_profile(registry: MetricsRegistry) -> Dict[str, Any]:
    """Aggregate the per-stage time breakdown across all labels.

    Returns ``{"stages": {stage: {"seconds": s, "spans": n}},
    "post_phases": {phase: seconds}, "partition_total": s,
    "predicate_busy": s, "nulls_announced": n, "null_announce_pushes": n}``.
    """
    registry.collect()
    stages: Dict[str, Dict[str, float]] = {}
    post_phases: Dict[str, float] = {}
    for metric in registry.metrics(STAGE_TIME):
        labels = dict(metric.labels)
        stage = labels.get("stage", "unknown")
        entry = stages.setdefault(stage, {"seconds": 0.0, "spans": 0})
        entry["seconds"] += metric.total
        entry["spans"] += metric.count
        if stage == STAGE_SST_POST:
            phase = labels.get("lock_phase", "unknown")
            post_phases[phase] = post_phases.get(phase, 0.0) + metric.total
    partition_total = sum(
        stages.get(s, {}).get("seconds", 0.0) for s in PARTITION_STAGES
    )
    busy = sum(m.value for m in registry.metrics("spindle_predicate_busy_seconds"))
    return {
        "stages": stages,
        "post_phases": post_phases,
        "partition_total": partition_total,
        "predicate_busy": busy,
        "nulls_announced": registry.value("spindle_nulls_announced_total"),
        "null_announce_pushes": registry.value(
            "spindle_null_announce_pushes_total"),
    }


def check_partition(profile: Dict[str, Any], tolerance: float = 0.05
                    ) -> Tuple[bool, float]:
    """Is the stage total within ``tolerance`` of predicate busy time?"""
    busy = profile["predicate_busy"]
    if busy == 0:
        return True, 0.0
    deviation = abs(profile["partition_total"] - busy) / busy
    return deviation <= tolerance, deviation
