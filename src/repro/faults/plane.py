"""The FaultPlane: arms declarative fault schedules against a cluster.

One plane per cluster (``cluster.faults``). Imperative helpers record
the corresponding event into :attr:`FaultPlane.schedule` *and* arm it,
so whatever you injected by hand can be serialized afterwards and
replayed exactly::

    cluster.faults.partition([[0, 1, 2], [3, 4]], at=ms(1), heal_at=ms(2))
    cluster.faults.stall(2, duration=us(300), at=ms(1))
    print(cluster.faults.schedule.to_json())   # replayable description

or declaratively::

    schedule = FaultSchedule.from_json(open("chaos.json").read())
    cluster.faults.apply(schedule)

Injection points (docs/FAULTS.md):

* network cuts and latency: :attr:`repro.rdma.nic.RdmaNode.fault_hook`,
  consulted on every posted write;
* thread stalls: :meth:`repro.sim.process.Process.suspend` / ``resume``
  on the node's predicate thread (and detector, ``scope="node"``);
* crashes/restarts: ``Cluster.fail_node`` plus NIC revival.

Determinism: all randomness (jitter samples, loss coin flips) comes
from ``random.Random(schedule.seed)``, consumed in write-post order —
which the simulator makes deterministic — so a (cluster seed, schedule)
pair fully determines the run.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..metrics.registry import null_registry
from ..rdma.nic import (
    DROP_INJECTED_LOSS,
    DROP_PARTITION,
    FaultDecision,
    QueuePair,
    RdmaNode,
    WriteSnapshot,
)
from .schedule import (
    CrashEvent,
    FaultSchedule,
    JitterEvent,
    PartitionEvent,
    SeverEvent,
    StallEvent,
    StorageFaultEvent,
)

__all__ = ["FaultPlane"]


class _Cut:
    """One armed directional cut (possibly one half of a partition)."""

    __slots__ = ("src", "dst", "mode", "held", "active")

    def __init__(self, src: Set[int], dst: Set[int], mode: str):
        self.src = src
        self.dst = dst
        self.mode = mode
        #: Writes buffered for RC-retransmit redelivery at heal time.
        self.held: List[Tuple[QueuePair, WriteSnapshot, int]] = []
        self.active = True

    def matches(self, src_id: int, dst_id: int) -> bool:
        return src_id in self.src and dst_id in self.dst

    def hold(self, qp: QueuePair, snap: WriteSnapshot, remote_key: int) -> None:
        self.held.append((qp, snap, remote_key))


class _JitterWindow:
    __slots__ = ("until", "extra", "jitter", "loss", "links")

    def __init__(self, until: float, extra: float, jitter: float,
                 loss: float, links: Optional[Set[Tuple[int, int]]]):
        self.until = until
        self.extra = extra
        self.jitter = jitter
        self.loss = loss
        self.links = links

    def matches(self, src_id: int, dst_id: int, now: float) -> bool:
        if now >= self.until:
            return False
        return self.links is None or (src_id, dst_id) in self.links


class FaultPlane:
    """Composable, seeded fault injection for one cluster."""

    def __init__(self, cluster, seed: Optional[int] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.fabric = cluster.fabric
        if seed is None:
            seed = getattr(cluster, "seed", 0)
        self.schedule = FaultSchedule(seed=seed)
        self.rng = random.Random(seed)
        self._cuts: List[_Cut] = []
        self._jitters: List[_JitterWindow] = []
        # -- observability ----------------------------------------------------
        self.writes_held = 0
        self.writes_redelivered = 0
        self.stalls_started = 0
        self.stalls_finished = 0
        self.crashes = 0
        self.restarts = 0
        self.heals = 0
        self.storage_faults = 0
        # -- metrics plane (docs/METRICS.md) ----------------------------------
        # Armed events are counted as they are scheduled; the injection
        # counters above are mirrored into the registry by a pull
        # collector at snapshot time, keeping the egress hot path free
        # of metric calls.
        metrics = getattr(cluster, "metrics", None)
        if metrics is None or not getattr(metrics, "enabled", False):
            metrics = null_registry()
        self.metrics = metrics
        if metrics.enabled:
            metrics.add_collector(self._mirror_counters)
        #: Fired as ``callback(node_id)`` when a crashed node's NIC is
        #: revived. Protocol re-admission happens at the next epoch
        #: boundary; subscribe a
        #: :class:`~repro.recovery.coordinator.RecoveryCoordinator`
        #: (``cluster.recovery``) to drive replay → state transfer →
        #: rejoin automatically (docs/RECOVERY.md), or install a joined
        #: view by hand.
        self.on_restart: List[Callable[[int], None]] = []
        #: Fired as ``callback(node_id)`` immediately after a crash
        #: lands (NIC dead, threads killed, storage write caches
        #: dropped). The txn plane subscribes to amputate driver
        #: processes whose coordinator host died (docs/TRANSACTIONS.md).
        self.on_crash: List[Callable[[int], None]] = []
        #: Fired as ``callback()`` after each partition/sever heals.
        self.on_heal: List[Callable[[], None]] = []
        for node in self.fabric.nodes.values():
            self.adopt(node)

    # ------------------------------------------------------------------ wiring

    def adopt(self, node: RdmaNode) -> None:
        """Install the egress fault hook on a node (idempotent); called
        for every existing node at construction and by ``Cluster.add_node``
        for late joiners."""
        node.fault_hook = self._decide

    def reseed(self, seed: int) -> None:
        """Reset the plane's RNG and schedule seed (before arming events)."""
        self.schedule.seed = seed
        self.rng = random.Random(seed)

    # ------------------------------------------------------------- scheduling

    def apply(self, schedule: FaultSchedule, reseed: bool = True) -> None:
        """Arm every event of a declarative schedule (exact replay).

        With ``reseed`` (default) the plane's RNG is reset to the
        schedule's seed first, so replays are independent of any faults
        injected earlier by hand.
        """
        if reseed:
            self.reseed(schedule.seed)
        for event in schedule.events:
            self.schedule.add(event)
            self._arm(event)

    def partition(self, groups: Sequence[Sequence[int]],
                  at: Optional[float] = None,
                  heal_at: Optional[float] = None,
                  mode: str = "buffer") -> PartitionEvent:
        """Symmetric partition between node groups, healing at ``heal_at``."""
        event = PartitionEvent(at=self._when(at), groups=tuple(
            tuple(g) for g in groups), heal_at=heal_at, mode=mode)
        self.schedule.add(event)
        self._arm(event)
        return event

    def sever(self, src: Sequence[int], dst: Sequence[int],
              at: Optional[float] = None, heal_at: Optional[float] = None,
              mode: str = "buffer") -> SeverEvent:
        """Asymmetric cut: src→dst writes are cut, dst→src still flows."""
        event = SeverEvent(at=self._when(at), src=tuple(src), dst=tuple(dst),
                           heal_at=heal_at, mode=mode)
        self.schedule.add(event)
        self._arm(event)
        return event

    def jitter(self, until: float, extra_latency: float = 0.0,
               jitter: float = 0.0, loss: float = 0.0,
               at: Optional[float] = None,
               links: Optional[Sequence[Tuple[int, int]]] = None
               ) -> JitterEvent:
        """Latency degradation window on some (or all) directed links."""
        event = JitterEvent(
            at=self._when(at), until=until, extra_latency=extra_latency,
            jitter=jitter, loss=loss,
            links=tuple((s, d) for s, d in links) if links is not None else None,
        )
        self.schedule.add(event)
        self._arm(event)
        return event

    def stall(self, node: int, duration: float, at: Optional[float] = None,
              scope: str = "predicate") -> StallEvent:
        """Freeze a node's protocol thread(s) for ``duration`` seconds."""
        event = StallEvent(at=self._when(at), node=node, duration=duration,
                           scope=scope)
        self.schedule.add(event)
        self._arm(event)
        return event

    def crash(self, node: int, at: Optional[float] = None,
              restart_at: Optional[float] = None) -> CrashEvent:
        """Crash-stop a node; optionally revive its NIC at ``restart_at``."""
        event = CrashEvent(at=self._when(at), node=node, restart_at=restart_at)
        self.schedule.add(event)
        self._arm(event)
        return event

    def storage_fault(self, node: int, mode: str,
                      at: Optional[float] = None,
                      device: Optional[str] = None,
                      until: Optional[float] = None,
                      count: int = 1,
                      record_index: int = 0) -> StorageFaultEvent:
        """Arm a stable-storage failure mode on a node's device(s):
        ``"torn-append"`` (next ``count`` crashes tear the un-fsynced
        tail), ``"fsync-stall"`` (fsyncs held until ``until``), or
        ``"corrupt-device"`` (flip a byte in durable record
        ``record_index``) — docs/DURABILITY.md."""
        event = StorageFaultEvent(
            at=self._when(at), node=node, mode=mode, device=device,
            until=until, count=count, record_index=record_index)
        self.schedule.add(event)
        self._arm(event)
        return event

    # --------------------------------------------------------------- internals

    def _when(self, at: Optional[float]) -> float:
        return self.sim.now if at is None else at

    def _at(self, time: float, fn, *args) -> None:
        """Run ``fn`` at ``time`` (immediately if that is now/past —
        schedules built before ``cluster.run`` often start at 0)."""
        if time <= self.sim.now:
            fn(*args)
        else:
            self.sim.call_at(time, fn, *args)

    def _arm(self, event) -> None:
        kind = event.kind
        self.metrics.counter(
            "spindle_fault_events_armed_total",
            "Fault-schedule events armed against the cluster",
            kind=kind,
        ).inc()
        if kind in ("partition", "sever"):
            if kind == "partition":
                cuts = []
                for i, a in enumerate(event.groups):
                    for j, b in enumerate(event.groups):
                        if i != j:
                            cuts.append(_Cut(set(a), set(b), event.mode))
            else:
                cuts = [_Cut(set(event.src), set(event.dst), event.mode)]
            self._at(event.at, self._activate_cuts, cuts)
            if event.heal_at is not None:
                # Armed up front: heal must fire even if the cut itself
                # activated "immediately" at a past timestamp.
                self._at(event.heal_at, self._heal_cuts, cuts)
        elif kind == "jitter":
            window = _JitterWindow(
                event.until, event.extra_latency, event.jitter, event.loss,
                set(event.links) if event.links is not None else None,
            )
            self._at(event.at, self._jitters.append, window)
            self._at(event.until, self._expire_jitter, window)
        elif kind == "stall":
            self._at(event.at, self._do_stall, event.node, event.duration,
                     event.scope)
        elif kind == "crash":
            self._at(event.at, self._do_crash, event.node)
            if event.restart_at is not None:
                self._at(event.restart_at, self._do_restart, event.node)
        elif kind == "storage-fault":
            self._at(event.at, self._do_storage_fault, event)
        else:  # pragma: no cover - schedule validation prevents this
            raise ValueError(f"unknown fault event kind {kind!r}")

    # -- cuts ---------------------------------------------------------------

    def _activate_cuts(self, cuts: List[_Cut]) -> None:
        self._cuts.extend(cuts)

    def _heal_cuts(self, cuts: List[_Cut]) -> None:
        for cut in cuts:
            if not cut.active:
                continue
            cut.active = False
            if cut in self._cuts:
                self._cuts.remove(cut)
            # RC retransmit: redeliver everything held, per-QP FIFO
            # order preserved by QueuePair.deliver_held's arrival chain.
            for qp, snap, remote_key in cut.held:
                qp.deliver_held(snap, remote_key)
                self.writes_redelivered += 1
            cut.held.clear()
        self.heals += 1
        for callback in self.on_heal:
            callback()

    # -- the egress decision hook -------------------------------------------

    def _decide(self, qp: QueuePair, size: int) -> Optional[FaultDecision]:
        src, dst = qp.src.node_id, qp.dst.node_id
        for cut in self._cuts:
            if cut.matches(src, dst):
                if cut.mode == "drop":
                    return FaultDecision(drop_reason=DROP_PARTITION)
                self.writes_held += 1
                return FaultDecision(hold=cut.hold)
        now = self.sim.now
        extra = 0.0
        for window in self._jitters:
            if not window.matches(src, dst, now):
                continue
            if window.loss and self.rng.random() < window.loss:
                return FaultDecision(drop_reason=DROP_INJECTED_LOSS)
            extra += window.extra
            if window.jitter:
                extra += self.rng.random() * window.jitter
        if extra > 0.0:
            return FaultDecision(extra_latency=extra)
        return None

    def _expire_jitter(self, window: _JitterWindow) -> None:
        if window in self._jitters:
            self._jitters.remove(window)

    # -- stalls -------------------------------------------------------------

    def _do_stall(self, node: int, duration: float, scope: str) -> None:
        """Suspend the node's protocol thread(s); resume after ``duration``.

        Processes are resolved *at fire time* so stalls keep working
        across epoch restarts (``install_view`` builds new GroupNodes).
        """
        group = self.cluster.groups.get(node)
        if group is None:
            return
        procs = group.protocol_processes(scope)
        if not procs:
            return
        for proc in procs:
            proc.suspend()
        self.stalls_started += 1
        self.sim.call_after(duration, self._end_stall, procs)

    def _end_stall(self, procs) -> None:
        for proc in procs:
            proc.resume()
        self.stalls_finished += 1

    # -- crash / restart ----------------------------------------------------

    def _do_crash(self, node: int) -> None:
        if self.fabric.nodes[node].alive:
            self.cluster.fail_node(node)
            self.crashes += 1
            for callback in self.on_crash:
                callback(node)

    def _do_storage_fault(self, event: StorageFaultEvent) -> None:
        """Arm a storage failure mode on the node's device(s). Devices
        for persistent subgroups / durable acceptors exist from
        ``cluster.build()``; a *named* device is get-or-created so
        arming order never matters."""
        storage = getattr(self.cluster, "storage", None)
        if storage is None:
            return
        if event.device is not None:
            devices = [storage.device(event.node, event.device)]
        else:
            devices = storage.devices_of(event.node)
        for dev in devices:
            if event.mode == "torn-append":
                dev.torn_crashes_armed += event.count
            elif event.mode == "fsync-stall":
                dev.fsync_stalled_until = max(dev.fsync_stalled_until,
                                              event.until)
            else:  # corrupt-device
                dev.corrupt(event.record_index)
        self.storage_faults += 1

    def _do_restart(self, node: int) -> None:
        rdma_node = self.fabric.nodes[node]
        if rdma_node.alive:
            return
        restart = getattr(self.cluster, "restart_node", None)
        if restart is not None:
            restart(node)  # NIC revival + live/dead bookkeeping
        else:
            rdma_node.alive = True
            rdma_node.egress_free_at = max(rdma_node.egress_free_at,
                                           self.sim.now)
        self.restarts += 1
        for callback in self.on_restart:
            callback(node)

    # ------------------------------------------------------------- reporting

    def counters(self) -> Dict[str, int]:
        """Injection counters for reports and the chaos CLI."""
        return {
            "writes_held": self.writes_held,
            "writes_redelivered": self.writes_redelivered,
            "stalls_started": self.stalls_started,
            "stalls_finished": self.stalls_finished,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "heals": self.heals,
            "storage_faults": self.storage_faults,
        }

    def _mirror_counters(self) -> None:
        """Pull collector: mirror the injection counters into the
        registry as ``spindle_fault_injections_total{action=...}``."""
        for action, value in self.counters().items():
            self.metrics.counter(
                "spindle_fault_injections_total",
                "Fault injections performed by the FaultPlane",
                action=action,
            ).set_to(value)
