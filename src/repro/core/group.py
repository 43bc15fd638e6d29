"""GroupNode: one node's complete Derecho endpoint.

Bundles the node's SST replica, its single predicate thread, and one
:class:`~repro.core.multicast.SubgroupMulticast` per subgroup the node
belongs to. The SST layout is derived from the view and is identical on
every node (column offsets must agree for one-sided writes to land in
the right cells).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from ..metrics.registry import MetricsRegistry, null_registry
from ..predicates.framework import PredicateThread
from ..rdma.fabric import RdmaFabric
from ..rdma.memory import Region, WriteSnapshot
from ..rdma.nic import RdmaNode
from ..sim.engine import Simulator
from ..smc.multicast import SubgroupColumns
from ..sst.fields import SSTLayout
from ..sst.table import SST
from .config import SpindleConfig, TimingModel
from .membership import View
from .multicast import Delivery, SubgroupMulticast
from .stats import SubgroupStats

__all__ = ["GroupNode", "build_layout"]


def build_layout(view: View, with_membership: bool = False):
    """Build the view's SST layout.

    Returns ``(layout, subgroup_blocks, membership_cols_or_None)``.
    Every node declares columns for *all* subgroups (rows are identical
    across the top-level group; §2.2), even ones it does not belong to.
    """
    from .view_change import MembershipColumns

    layout = SSTLayout()
    blocks: Dict[int, SubgroupColumns] = {}
    for sg in view.subgroups:
        blocks[sg.subgroup_id] = SubgroupColumns.declare(
            layout, sg.subgroup_id, sg.window, sg.message_size,
            num_senders=len(sg.senders),
            per_sender_acks=(sg.delivery_mode == "unordered"),
            persistent=sg.persistent,
        )
    membership_cols = (
        MembershipColumns.declare(layout, len(view.members))
        if with_membership else None
    )
    return layout, blocks, membership_cols


class GroupNode:
    """One node's protocol stack for a view."""

    def __init__(
        self,
        sim: Simulator,
        fabric: RdmaFabric,
        rdma_node: RdmaNode,
        view: View,
        config: SpindleConfig,
        timing: Optional[TimingModel] = None,
        membership_params: Optional[tuple] = None,
        metrics: Optional[MetricsRegistry] = None,
        storage=None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.rdma_node = rdma_node
        self.node_id = rdma_node.node_id
        self.view = view
        self.config = config
        self.timing = timing if timing is not None else TimingModel()
        #: Fabric-wide metrics registry (docs/METRICS.md); this node's
        #: instruments all carry ``node`` and ``view`` labels (the view
        #: label keeps per-epoch state fresh across view changes, like
        #: the per-view SST memory layout, §2.3). Null when disabled.
        self.metrics = metrics if metrics is not None else null_registry()
        self._view_scope = self.metrics.scoped(node=self.node_id,
                                               view=view.view_id)
        node_scope = self._view_scope

        layout, blocks, membership_cols = build_layout(
            view, with_membership=membership_params is not None
        )
        self.sst = SST(layout, fabric, rdma_node, view.members,
                       metrics=node_scope)
        self.thread = PredicateThread(
            sim, config.early_lock_release, self.timing.lock_op,
            name=f"predicates@{self.node_id}", metrics=node_scope,
        )
        self.multicasts: Dict[int, SubgroupMulticast] = {}
        self.persistence: Dict[int, "PersistenceEngine"] = {}
        self._delivery_callbacks: Dict[int, List[Callable[[Delivery], None]]] = {}
        #: (lo, hi, mc): each subgroup's control column span, in layout
        #: order (build_layout walks view.subgroups in this same order).
        self._control_spans: List[Tuple[int, int, SubgroupMulticast]] = []

        for sg in view.subgroups:
            if self.node_id not in sg.members:
                continue
            cols = blocks[sg.subgroup_id]
            mc = SubgroupMulticast(
                sim=sim,
                sst=self.sst,
                cols=cols,
                subgroup_id=sg.subgroup_id,
                members=sg.members,
                senders=sg.senders,
                config=config,
                timing=self.timing,
                thread=self.thread,
                deliver_cb=self._make_dispatcher(sg.subgroup_id),
                stats=SubgroupStats(registry=self._view_scope,
                                    node=self.node_id,
                                    subgroup=sg.subgroup_id),
                delivery_mode=sg.delivery_mode,
            )
            self.multicasts[sg.subgroup_id] = mc
            self._delivery_callbacks[sg.subgroup_id] = []
            if sg.persistent:
                from .persistence import PersistenceEngine

                # The node's per-subgroup device (cluster stable
                # storage, so the log survives epoch restarts); a
                # standalone GroupNode gets a private device.
                device = (storage.device(self.node_id,
                                         f"sg{sg.subgroup_id}")
                          if storage is not None else None)
                engine = PersistenceEngine(mc, cols.persisted,
                                           device=device)
                self.persistence[sg.subgroup_id] = engine
                self._delivery_callbacks[sg.subgroup_id].append(
                    engine.enqueue
                )
            # Every watermarked column sits in a control span; arriving
            # acks there feed the watermarks and may free ring slots.
            lo, hi = cols.control_span
            self._control_spans.append((lo, hi, mc))

        self.membership = None
        if membership_params is not None:
            from .view_change import MembershipService

            if isinstance(membership_params, dict):
                kwargs = dict(membership_params)
            else:  # legacy (heartbeat_period, suspicion_timeout) tuple
                heartbeat_period, suspicion_timeout = membership_params
                kwargs = dict(heartbeat_period=heartbeat_period,
                              suspicion_timeout=suspicion_timeout)
            self.membership = MembershipService(self, membership_cols, **kwargs)

        self._control_ends = [hi for _lo, hi, _mc in self._control_spans]
        self._row_owners = self.sst.row_owners
        rdma_node.on_remote_write.append(self._on_remote_write)

    # --------------------------------------------------------------- wiring

    def _make_dispatcher(self, subgroup_id: int):
        def dispatch(delivery: Delivery) -> None:
            for cb in self._delivery_callbacks[subgroup_id]:
                cb(delivery)

        return dispatch

    def _on_remote_write(self, region: Region, snap: WriteSnapshot) -> None:
        """Remote write landed: wake the polling thread. A write into one
        of this node's SST rows that covers a subgroup's control span
        feeds the SST's watermarks; if it advanced the subgroup's slot
        watermark, ring slots were freed, so wake blocked senders too."""
        self.thread.doorbell.ring()
        owner = self._row_owners.get(region)
        if owner is None:
            return  # a mailbox, RDMC, transfer or other foreign region
        lo = snap.offset
        # The first control span ending past lo; spans are disjoint and
        # a subgroup's slots separate them, so a write covers at most one.
        i = bisect_right(self._control_ends, lo)
        if i == len(self._control_ends):
            return
        span_lo, _hi, mc = self._control_spans[i]
        if span_lo >= lo + len(snap.data):
            return  # slots only
        gate = mc.slot_watermark
        before = gate.value if gate is not None else None
        self.sst.note_remote_write(owner, lo, snap.data)
        if gate is not None and gate.value > before:
            mc.slot_doorbell.ring()

    # ------------------------------------------------------------ public API

    def subgroup(self, subgroup_id: int) -> SubgroupMulticast:
        """The multicast endpoint for a subgroup this node belongs to."""
        return self.multicasts[subgroup_id]

    def on_delivery(self, subgroup_id: int,
                    callback: Callable[[Delivery], None]) -> None:
        """Register an application delivery upcall for a subgroup."""
        self._delivery_callbacks[subgroup_id].append(callback)

    def on_durable(self, subgroup_id: int,
                   callback: Callable[[int], None]) -> None:
        """Register a durability-watermark callback (persistent
        subgroups only): fires with the highest sequence number durable
        on *every* member."""
        self.persistence[subgroup_id].on_durable.append(callback)

    def start(self) -> None:
        """Register all predicates and start the polling thread."""
        for mc in self.multicasts.values():
            mc.register_predicates()
        self.thread.start()
        for engine in self.persistence.values():
            engine.start()
        if self.membership is not None:
            self.membership.start()

    def stop(self) -> None:
        self.thread.stop()
        for engine in self.persistence.values():
            engine.stop()
        if self.membership is not None:
            self.membership.stop()

    def kill(self) -> None:
        """Crash-stop this node's protocol threads (failure injection)."""
        if self.thread._process is not None:
            self.thread._process.kill()
        for engine in self.persistence.values():
            engine.stop()
        if self.membership is not None:
            self.membership.stop()

    def protocol_processes(self, scope: str = "node") -> list:
        """Live protocol threads, for fault-plane stalls: the predicate
        thread, plus (scope="node") the failure detector's sender. The
        backend-generic accessor the fault plane uses instead of
        reaching into ``thread._process`` (docs/FAULTS.md)."""
        procs = []
        if self.thread._process is not None and self.thread._process.alive:
            procs.append(self.thread._process)
        if scope == "node" and self.membership is not None:
            detector = getattr(self.membership, "_detector_proc", None)
            if detector is not None and detector.alive:
                procs.append(detector)
        return procs

    def teardown(self) -> None:
        """Deregister this view's memory (epoch end). In-flight writes
        to the old regions are dropped, as on real hardware."""
        self.kill()
        for key in list(self.rdma_node.regions):
            self.rdma_node.deregister(key)
        self.rdma_node.on_remote_write.remove(self._on_remote_write)

    # -------------------------------------------------------------- metrics

    def stats(self, subgroup_id: int) -> SubgroupStats:
        return self.multicasts[subgroup_id].stats

    def __repr__(self) -> str:
        return f"<GroupNode {self.node_id} view={self.view.view_id}>"
