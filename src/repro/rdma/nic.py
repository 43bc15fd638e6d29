"""Simulated RDMA NICs and reliable-connection queue pairs.

Modeling decisions (see DESIGN.md §2):

* Each node owns one NIC with a full-duplex link; *egress* is the
  contended resource: writes serialize FIFO through it at link bandwidth.
  Ingress contention is not modeled separately (in the paper's workloads
  each node's ingress and egress are symmetric and the observed limits
  are protocol/CPU-side).
* A write posted on a queue pair becomes visible in the remote region
  after ``occupancy(size)`` (egress serialization) plus
  ``wire_latency(size)``. Per-QP arrival order matches post order —
  RDMA reliable connections guarantee this, and it is what gives the SST
  its memory-fence property (§2.2 of the paper).
* ``post_write`` itself consumes *no* simulated time: the ~1 µs of CPU
  the paper attributes to posting is charged by the calling thread (see
  :class:`~repro.rdma.latency.LatencyModel.post_overhead`), because it
  is caller CPU, and whether it happens inside or outside a lock is
  precisely what the §3.4 optimization changes.
* Local send completions fire when the NIC has finished reading the
  source buffer (end of egress occupancy).

Fault injection (docs/FAULTS.md): a node may carry a ``fault_hook``
consulted on every posted write. The hook can *drop* the write (hard
link cut, injected loss), *hold* it (an RC retransmit surviving a
transient partition: redelivered at heal time, per-QP order preserved)
or *delay* it (latency jitter / degradation windows). Every dropped
write is tagged with a reason code in ``writes_dropped_by_reason`` so
tests can assert exactly why bytes went missing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from ..sim.engine import Simulator
from .latency import LatencyModel
from .memory import Region, WriteSnapshot

__all__ = [
    "RdmaNode",
    "QueuePair",
    "FaultDecision",
    "DROP_SRC_DOWN",
    "DROP_DST_DOWN_AT_POST",
    "DROP_DST_DOWN_IN_FLIGHT",
    "DROP_REGION_DEREGISTERED",
    "DROP_PARTITION",
    "DROP_INJECTED_LOSS",
]

#: Minimum spacing enforced between same-QP arrivals to preserve ordering.
_ORDERING_EPS = 1e-12

# --------------------------------------------------------------------------
# Drop reason codes (every lost write is tagged with exactly one of these)
# --------------------------------------------------------------------------

#: Posted while the source node itself was crashed.
DROP_SRC_DOWN = "src-down"
#: Destination already dead when the write was posted (drop decided at
#: post time; the bytes still occupy the source's egress link).
DROP_DST_DOWN_AT_POST = "dst-down-at-post"
#: Destination died while the write was in flight.
DROP_DST_DOWN_IN_FLIGHT = "dst-down-in-flight"
#: Arrived after the target region was deregistered (view change razed
#: the epoch's memory layout while the write was in flight).
DROP_REGION_DEREGISTERED = "region-deregistered"
#: Crossed an active hard network cut (repro.faults partition/sever with
#: ``mode="drop"``).
DROP_PARTITION = "partition"
#: Random injected loss from a repro.faults jitter/degradation window.
DROP_INJECTED_LOSS = "injected-loss"


class FaultDecision(NamedTuple):
    """What a fault hook decided about one posted write.

    At most one of ``drop_reason`` / ``hold`` should be set; a pure
    latency fault sets only ``extra_latency``.
    """

    #: Drop the write, tagged with this reason code (None = don't drop).
    drop_reason: Optional[str] = None
    #: Extra one-way latency (seconds) added to this write's arrival.
    extra_latency: float = 0.0
    #: Buffer the write for later redelivery (RC retransmit across a
    #: transient cut). Called as ``hold(qp, remote_snapshot, remote_key)``;
    #: the holder is responsible for eventual delivery via
    #: :meth:`QueuePair.deliver_held`.
    hold: Optional[Callable[["QueuePair", WriteSnapshot, int], None]] = None


class RdmaNode:
    """A machine on the RDMA fabric: NIC + registered memory regions."""

    #: Happens-before tracker hook (repro.analysis.lint.hb): called as
    #: ``hb_hook(region, snap)`` after a remote write is applied — the
    #: tracker parks the writer's clock on the region so that polling
    #: reads of it (the SST's one-sided synchronization mechanism) can
    #: pick up the cross-node causality edge.
    hb_hook = None

    def __init__(self, node_id: int, sim: Simulator, latency: LatencyModel):
        self.node_id = node_id
        self.sim = sim
        self.latency = latency
        self.alive = True
        self.regions: Dict[int, Region] = {}
        self._next_key = 1
        #: Time at which the egress link frees up.
        self.egress_free_at = 0.0
        #: Hooks fired when a remote write lands (used to ring doorbells).
        self.on_remote_write: List[Callable[[Region, WriteSnapshot], None]] = []
        #: Hooks fired when this node *posts* a write, as
        #: ``hook(queue_pair, snapshot)`` — used by the runtime sanitizer
        #: to check §3.4 lock discipline at the lowest level.
        self.on_post: List[Callable[["QueuePair", WriteSnapshot], None]] = []
        #: Egress fault hook, ``hook(queue_pair, size) -> FaultDecision
        #: or None`` — installed by :class:`repro.faults.FaultPlane` to
        #: inject partitions, loss and latency (docs/FAULTS.md).
        self.fault_hook: Optional[
            Callable[["QueuePair", int], Optional[FaultDecision]]
        ] = None
        # -- counters ---------------------------------------------------------
        self.writes_posted = 0
        self.bytes_posted = 0
        self.writes_received = 0
        self.bytes_received = 0
        self.writes_dropped = 0
        #: Per-reason breakdown of ``writes_dropped`` (reason code ->
        #: count); the values always sum to ``writes_dropped``.
        self.writes_dropped_by_reason: Dict[str, int] = {}

    def register(self, region: Region) -> int:
        """Register a memory region with the NIC; returns its key (rkey)."""
        key = self._next_key
        self._next_key += 1
        region.key = key
        self.regions[key] = region
        return key

    def deregister(self, key: int) -> None:
        """Remove a region (e.g. at the end of a membership view)."""
        region = self.regions.pop(key)
        region.key = -1

    def count_drop(self, reason: str) -> None:
        """Account one lost write under ``reason`` (see module docs)."""
        self.writes_dropped += 1
        self.writes_dropped_by_reason[reason] = (
            self.writes_dropped_by_reason.get(reason, 0) + 1
        )

    def _receive(self, snap: WriteSnapshot, region_key: int) -> None:
        """Apply an arriving remote write and notify listeners."""
        region = self.regions.get(region_key)
        if region is None:
            # Region was deregistered (view change) while the write was
            # in flight; the write is lost, as on real hardware.
            self.count_drop(DROP_REGION_DEREGISTERED)
            return
        region.apply_write(snap)
        if RdmaNode.hb_hook is not None:
            RdmaNode.hb_hook(region, snap)
        self.writes_received += 1
        self.bytes_received += snap.size_bytes
        for hook in self.on_remote_write:
            hook(region, snap)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<RdmaNode {self.node_id} {state}>"


class QueuePair:
    """A reliable-connection queue pair from ``src`` to ``dst``.

    Writes posted on the same QP are applied at the destination in post
    order (the RDMA memory-fence guarantee Derecho's SST relies on).
    """

    def __init__(self, src: RdmaNode, dst: RdmaNode):
        self.src = src
        self.dst = dst
        self._last_arrival = 0.0
        self.writes = 0
        self.bytes = 0

    def post_write(
        self,
        local_region: Region,
        local_offset: int,
        remote_key: int,
        remote_offset: int,
        length: int,
        on_complete: Optional[Callable[[], None]] = None,
        *,
        snapshot: Optional[WriteSnapshot] = None,
    ) -> None:
        """Post a one-sided write of ``length`` units to the remote region.

        The source span is snapshotted *now* (DMA from pinned memory);
        later local mutations do not affect the in-flight write. A caller
        posting one unchanged span on several queue pairs may pass the
        span's current ``snapshot`` (``local_region.snapshot(local_offset,
        length)``, taken since the region's last mutation) instead of
        having each post copy it again. If either endpoint is down the
        write is dropped and counted under its reason code, matching the
        behaviour the membership protocol must tolerate. An installed
        fault hook may additionally drop, hold, or delay the write
        (docs/FAULTS.md).
        """
        src, dst = self.src, self.dst
        if not src.alive:
            src.count_drop(DROP_SRC_DOWN)
            return
        if snapshot is None:
            snap = local_region.snapshot(local_offset, length)
        elif snapshot.offset != local_offset or len(snapshot.data) != length:
            raise ValueError(
                f"snapshot covers [{snapshot.offset}, "
                f"{snapshot.offset + len(snapshot.data)}), not the posted "
                f"span [{local_offset}, {local_offset + length})"
            )
        else:
            snap = snapshot
        size = snap.size_bytes
        sim = src.sim
        model = src.latency

        # Egress serialization is charged regardless of the write's fate
        # past the NIC: the bytes leave the node either way, and where
        # they die afterwards is the network's business.
        start = max(sim.now, src.egress_free_at)
        finish = start + model.occupancy(size)
        src.egress_free_at = finish

        src.writes_posted += 1
        src.bytes_posted += size
        self.writes += 1
        self.bytes += size
        for hook in src.on_post:
            hook(self, snap)

        decision = src.fault_hook(self, size) if src.fault_hook else None
        # Snapshots are immutable, so the local one doubles as the
        # remote payload whenever the offsets agree.
        remote_snap = (snap if remote_offset == local_offset
                       else WriteSnapshot(remote_offset, snap.data, size))
        if decision is not None and decision.drop_reason is not None:
            src.count_drop(decision.drop_reason)
        elif decision is not None and decision.hold is not None:
            # Transient cut with RC retransmit semantics: the fault
            # plane buffers the write and redelivers it at heal time.
            decision.hold(self, remote_snap, remote_key)
        elif dst.alive:
            extra = decision.extra_latency if decision is not None else 0.0
            arrival = max(finish + model.wire_latency(size) + extra,
                          self._last_arrival + _ORDERING_EPS)
            self._last_arrival = arrival
            # Arrivals and completions are never cancelled: no Timer.
            sim.post_at(arrival, self._arrive, remote_snap, remote_key)
        else:
            src.count_drop(DROP_DST_DOWN_AT_POST)
        if on_complete is not None:
            sim.post_at(finish, on_complete)

    def deliver_held(self, snap: WriteSnapshot, remote_key: int) -> None:
        """Redeliver a write that was held across a transient cut.

        Arrival is scheduled one wire latency from *now* (the retransmit
        leaves as soon as the QP's retry timer fires after the heal);
        per-QP post order is preserved through the usual arrival chain.
        """
        sim = self.src.sim
        arrival = max(sim.now + self.src.latency.wire_latency(snap.size_bytes),
                      self._last_arrival + _ORDERING_EPS)
        self._last_arrival = arrival
        sim.post_at(arrival, self._arrive, snap, remote_key)

    def _arrive(self, snap: WriteSnapshot, remote_key: int) -> None:
        if self.dst.alive:
            self.dst._receive(snap, remote_key)
        else:
            self.src.count_drop(DROP_DST_DOWN_IN_FLIGHT)

    def __repr__(self) -> str:
        return f"<QP {self.src.node_id}->{self.dst.node_id}>"
