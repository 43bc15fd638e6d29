"""Deterministic fault-injection plane for the multicast pipeline.

The fault plane turns the simulator's determinism into a chaos-testing
asset: every injected fault — link-latency jitter, degradation windows,
symmetric and asymmetric partitions with scheduled heal, predicate-
thread stalls, crash + delayed-restart schedules — is driven through a
declarative, JSON-serializable :class:`FaultSchedule`, so any run
(including a failing CI seed) replays byte-identically.

Two layers:

* :class:`FaultSchedule` / the ``*Event`` dataclasses — the declarative
  description, round-trippable through JSON (docs/FAULTS.md).
* :class:`FaultPlane` — arms a schedule against a live
  :class:`~repro.workloads.cluster.Cluster`: hooks every NIC's egress
  (:attr:`~repro.rdma.nic.RdmaNode.fault_hook`), suspends/resumes
  :class:`~repro.sim.process.Process` threads, and crash-stops nodes.
  Reached via ``cluster.faults``.

The named chaos-scenario catalog run by ``spindle-repro chaos`` builds
whole clusters, so it lives a layer up, in
:mod:`repro.workloads.scenarios`.
"""

from .plane import FaultPlane
from .schedule import (
    CrashEvent,
    FaultSchedule,
    JitterEvent,
    PartitionEvent,
    SeverEvent,
    StallEvent,
    StorageFaultEvent,
)

__all__ = [
    "FaultPlane",
    "FaultSchedule",
    "PartitionEvent",
    "SeverEvent",
    "JitterEvent",
    "StallEvent",
    "CrashEvent",
    "StorageFaultEvent",
]
