"""Cluster builder: the user-facing entry point of the library.

Assembles a simulated fabric, one :class:`~repro.core.group.GroupNode`
per node, wires the SST replicas together, and offers helpers to spawn
workload processes and collect the paper's metrics.

    from repro import Cluster, SpindleConfig
    from repro.workloads import continuous_sender

    cluster = Cluster(num_nodes=4, config=SpindleConfig.optimized())
    sg = cluster.add_subgroup(message_size=10240, window=100)
    cluster.build()
    for node in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(node, sg.subgroup_id), count=100, size=10240))
    cluster.run()
    print(cluster.aggregate_throughput(sg.subgroup_id))
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.config import SpindleConfig, TimingModel
from ..core.endpoint import OrderingEndpoint
from ..core.group import GroupNode
from ..core.membership import SubgroupSpec, View
from ..core.persistence import StorageModel
from ..core.trim import TrimLedger
from ..metrics.registry import MetricsRegistry, registry_enabled_from_env
from ..metrics.stages import stage_profile
from ..ordering.base import resolve_backend
from ..rdma.fabric import RdmaFabric
from ..rdma.latency import LatencyModel
from ..shard import build_shard_plane
from ..sim.engine import Simulator
from ..storage.device import ClusterStorage, decode_log_entry, encode_log_entry
from ..txn import TxnPlane

__all__ = ["Cluster"]


class Cluster:
    """A simulated Derecho deployment.

    Defaults mirror the paper's testbed: any number of nodes up to the
    16-machine, 12.5 GB/s cluster used in §4. ``backend`` selects the
    ordering protocol — ``"spindle"`` (the paper's SST multicast, the
    default) or ``"paxos"`` (the Multi-Paxos baseline it is compared
    against); see docs/ORDERING.md.
    """

    def __init__(
        self,
        num_nodes: int,
        config: Optional[SpindleConfig] = None,
        timing: Optional[TimingModel] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        backend=None,
        engine: Optional[str] = None,
    ):
        if num_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.seed = seed
        self.backend = resolve_backend(backend)
        #: ``engine`` selects the event-scheduler implementation
        #: ("optimized" / "reference", see docs/ENGINE.md); None defers
        #: to SPINDLE_ENGINE or the optimized default.
        self.sim = Simulator(seed=seed, engine=engine)
        #: The fabric-wide metrics registry (docs/METRICS.md). Pass your
        #: own, or set SPINDLE_METRICS=0 to make every instrument a
        #: shared no-op (zero-cost-when-disabled).
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            clock=lambda: self.sim.now,
            enabled=registry_enabled_from_env(),
        )
        self.fabric = RdmaFabric(self.sim, latency=latency)
        self.config = config if config is not None else SpindleConfig.optimized()
        self.timing = timing if timing is not None else TimingModel()
        self.node_ids: List[int] = [
            self.fabric.add_node().node_id for _ in range(num_nodes)
        ]
        self._specs: List[SubgroupSpec] = []
        self.groups: Dict[int, GroupNode] = {}
        self.view: Optional[View] = None
        self._built = False
        self._membership_params: Optional[dict] = None
        self._faults = None
        self._recovery = None
        #: Declared by :meth:`add_shards`; consumed by :meth:`router`.
        self._shard_plan: Optional[dict] = None
        self._router = None
        self._txn_plane = None
        self._fabric_collectors_registered = False
        #: Crash-stopped nodes (they stay in ``node_ids`` — provisioned
        #: machines — but are excluded from :meth:`live_nodes`).
        self.dead_nodes: Set[int] = set()
        #: Timing model of the simulated SSDs (replay cost on restart).
        self.storage_model = StorageModel()
        #: The cluster's stable storage: one append-only
        #: :class:`~repro.storage.StorageDevice` per (node, purpose),
        #: surviving crashes and view changes — durable logs and Paxos
        #: acceptor state live here (docs/DURABILITY.md).
        self.storage = ClusterStorage(self.sim, self.storage_model)
        #: Per-epoch audit log of ragged-edge trim decisions, fed by the
        #: membership protocol and the recovery coordinator and checked
        #: by :class:`repro.recovery.verify.VsyncVerifier`.
        self.trim_ledger = TrimLedger()
        #: Fired with the new :class:`View` at the end of every install
        #: (including the initial :meth:`build`).
        self.on_view_installed: List[Callable[[View], None]] = []
        #: Fired with ``(old_view, old_groups)`` at the *start* of every
        #: epoch restart, before the old groups are torn down — the last
        #: chance to snapshot per-epoch protocol state.
        self.on_epoch_end: List[Callable[[View, Dict[int, GroupNode]], None]] = []

    # ---------------------------------------------------------------- setup

    def add_subgroup(
        self,
        members: Optional[Sequence[int]] = None,
        senders: Optional[Sequence[int]] = None,
        window: int = 100,
        message_size: int = 10240,
        delivery_mode: str = "atomic",
        persistent: bool = False,
    ) -> SubgroupSpec:
        """Declare a subgroup (before :meth:`build`). Members default to
        all nodes; senders default to all members."""
        if self._built:
            raise RuntimeError("cluster already built")
        spec = SubgroupSpec.of(
            subgroup_id=len(self._specs),
            members=members if members is not None else self.node_ids,
            senders=senders,
            window=window,
            message_size=message_size,
            delivery_mode=delivery_mode,
            persistent=persistent,
        )
        self._specs.append(spec)
        return spec

    def add_shards(
        self,
        num_shards: int,
        replication: int = 2,
        num_subgroups: Optional[int] = None,
        window: int = 16,
        message_size: int = 512,
        persistent: bool = False,
    ) -> List[SubgroupSpec]:
        """Declare the sharded service plane's subgroups (before
        :meth:`build`): ``num_subgroups`` (default: one per shard,
        capped by what ``num_nodes``/``replication`` can host
        disjointly) atomic subgroups of ``replication`` members each,
        round-robin over the provisioned nodes, plus the shard plan the
        router derives its consistent-hash map from (docs/SHARDING.md).

        Returns the created specs; access the plane after build via
        :meth:`router`.
        """
        if self._built:
            raise RuntimeError("cluster already built")
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if replication < 1:
            raise ValueError("replication must be positive")
        if replication > len(self.node_ids):
            raise ValueError(
                f"replication {replication} exceeds {len(self.node_ids)} nodes")
        if num_subgroups is None:
            num_subgroups = min(num_shards,
                                max(1, len(self.node_ids) // replication))
        specs: List[SubgroupSpec] = []
        n = len(self.node_ids)
        for i in range(num_subgroups):
            members = [self.node_ids[(i * replication + j) % n]
                       for j in range(replication)]
            specs.append(self.add_subgroup(
                members=members, window=window, message_size=message_size,
                persistent=persistent))
        self._shard_plan = {
            "num_shards": num_shards,
            "subgroup_ids": [spec.subgroup_id for spec in specs],
        }
        return specs

    def router(self, config=None, transfer_config=None) -> "ShardRouter":
        """The sharded service plane's request router (built lazily on
        first access; requires :meth:`add_shards` + :meth:`build`)::

            cluster.add_shards(num_shards=4, replication=2)
            cluster.build()
            outcome = yield from cluster.router().request(
                "put", b"key", b"value")
        """
        if self._router is None:
            if not self._built:
                raise RuntimeError("build() the cluster before router()")
            self._router = build_shard_plane(
                self, config=config, transfer_config=transfer_config)
        return self._router

    def txn(self, config=None) -> TxnPlane:
        """The cross-shard transaction plane (built lazily over
        :meth:`router` on first access; docs/TRANSACTIONS.md)::

            plane = cluster.txn(TxnConfig(cc="2pl"))
            outcome = yield from plane.run_txn([
                TxnOp("put", b"a", b"1"), TxnOp("put", b"b", b"2")])
        """
        if self._txn_plane is None:
            self._txn_plane = TxnPlane(self.router(), config=config)
        return self._txn_plane

    def enable_membership(self, heartbeat_period: float = 100e-6,
                          suspicion_timeout: float = 500e-6,
                          confirmation_grace: Optional[float] = None,
                          suspicion_backoff: float = 2.0) -> None:
        """Turn on failure detection + view changes (before build).

        Off by default: the performance experiments measure failure-free
        epochs, as the paper does. ``confirmation_grace`` (default: one
        ``suspicion_timeout``) is how long a stale peer stays *locally*
        suspected before the (irreversible) suspicion is published —
        partitions that heal inside the grace window cause no view
        change; ``suspicion_backoff`` multiplies a member's effective
        timeout after each rescinded suspicion (flapping-link damping).
        See docs/FAULTS.md."""
        if self._built:
            raise RuntimeError("cluster already built")
        if not self.backend.view_synchronous:
            raise RuntimeError(
                f"the {self.backend.name!r} backend is not view-synchronous; "
                f"it masks failures internally (leader change) rather than "
                f"through membership view changes — see docs/ORDERING.md")
        self._membership_params = dict(
            heartbeat_period=heartbeat_period,
            suspicion_timeout=suspicion_timeout,
            confirmation_grace=confirmation_grace,
            suspicion_backoff=suspicion_backoff,
        )

    def build(self) -> "Cluster":
        """Create the view, all GroupNodes, wire SSTs, start threads."""
        if self._built:
            raise RuntimeError("cluster already built")
        if not self._specs:
            raise RuntimeError("declare at least one subgroup first")
        self.view = View(0, tuple(self.node_ids), tuple(self._specs))
        self._install(self.view)
        self._built = True
        return self

    def _install(self, view: View) -> None:
        """Instantiate the backend's group objects for a view and start
        them (the backend wires its own replicas — SSTs or mailboxes)."""
        self.groups = self.backend.build_groups(self, view)
        if self.metrics.enabled:
            self._register_fabric_collectors()
        for group in self.groups.values():
            if group.membership is not None:
                group.membership.trim_ledger = self.trim_ledger
            group.start()
        self.view = view
        # Seed the new epoch's persistence engines from the on-SSD logs
        # (durable state survives the epoch restart): each engine shares
        # its node's device, which still holds the prior epoch's fsynced
        # records.
        for node_id, group in self.groups.items():
            for sg_id, engine in group.persistence.items():
                records = engine.device.records()
                if records:
                    engine.adopt_log(
                        [decode_log_entry(b) for b in records],
                        engine.device.billed_total)
        for callback in list(self.on_view_installed):
            callback(view)

    def _register_fabric_collectors(self) -> None:
        """Pull-mirrors of NIC/fabric state into the registry.

        Zero hot-path cost: the NIC keeps counting into its plain dicts
        and these collectors copy the totals into labelled counters only
        when a snapshot or export is taken (docs/METRICS.md). Reads the
        live ``fabric.nodes`` map, so nodes added later are covered, and
        registering once survives view changes."""
        if self._fabric_collectors_registered:
            return
        self._fabric_collectors_registered = True
        fabric = self.fabric
        registry = self.metrics

        def mirror_nics() -> None:
            for nid, node in sorted(fabric.nodes.items()):
                scope = registry.scoped(node=nid)
                scope.counter(
                    "spindle_nic_writes_posted_total",
                    "RDMA writes posted by this NIC").set_to(node.writes_posted)
                scope.counter(
                    "spindle_nic_bytes_posted_total",
                    "bytes posted by this NIC").set_to(node.bytes_posted)
                scope.counter(
                    "spindle_nic_writes_received_total",
                    "RDMA writes landed at this NIC").set_to(node.writes_received)
                for reason, count in sorted(
                        node.writes_dropped_by_reason.items()):
                    scope.counter(
                        "spindle_nic_writes_dropped_total",
                        "writes dropped, by reason (docs/FAULTS.md)",
                        reason=reason).set_to(count)
            registry.counter(
                "spindle_rdma_writes_posted_total",
                "fabric-wide RDMA writes posted").set_to(
                    fabric.total_writes_posted())

        def mirror_views() -> None:
            if self.view is not None:
                registry.gauge("spindle_view_id",
                               "currently installed view").set(
                                   self.view.view_id)
                registry.gauge("spindle_view_members",
                               "member count of the installed view").set(
                                   len(self.view.members))

        registry.add_collector(mirror_nics)
        registry.add_collector(mirror_views)

    def metrics_snapshot(self) -> dict:
        """Deterministic fabric-wide snapshot (runs the collectors)."""
        return self.metrics.snapshot()

    def metrics_json(self, indent: Optional[int] = 2) -> str:
        """Schema-versioned JSON export of the whole registry."""
        return self.metrics.to_json(indent=indent)

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of the whole registry."""
        return self.metrics.to_prometheus()

    def stage_profile(self) -> dict:
        """The §4.1.1 per-stage time breakdown (docs/METRICS.md)."""
        return stage_profile(self.metrics)

    def install_view(self, new_view: View) -> None:
        """Epoch restart after a view change: tear down the old epoch's
        protocol state and build the new view's (fresh SSTs, fresh
        registration — §2.3: memory layout is fixed *per view*).

        Durable logs live on each node's (simulated) SSD
        (:attr:`storage`), so they survive the restart: the new epoch's
        engines adopt their device's fsynced contents
        (:meth:`PersistenceEngine.adopt_log
        <repro.core.persistence.PersistenceEngine.adopt_log>`) — crashed
        members' devices included, so a later restart can replay them.
        """
        old_view, old_groups = self.view, self.groups
        if old_view is not None:
            for callback in list(self.on_epoch_end):
                callback(old_view, old_groups)
        for node_id, group in old_groups.items():
            # No harvesting needed: each engine's fsynced log already
            # lives on its node's device in ``self.storage``, which the
            # epoch restart leaves untouched.
            group.teardown()
        self._install(new_view)

    def fail_node(self, node_id: int) -> None:
        """Crash-stop a node: NIC drops all its traffic, threads die.
        The node stays in ``node_ids`` (the machine is still racked) but
        leaves :meth:`live_nodes` until :meth:`restart_node`."""
        self.fabric.fail_node(node_id)
        self.dead_nodes.add(node_id)
        group = self.groups.get(node_id)
        if group is not None:
            group.kill()
        # Power loss hits the write caches: every device on the node
        # drops (or, with a torn-append fault armed, tears) its
        # un-fsynced tail. Fsynced bytes survive.
        self.storage.crash_node(node_id)

    def restart_node(self, node_id: int) -> None:
        """Power a crashed node's NIC back on (crash-recovery model:
        volatile state is gone, the durable log survives on its SSD).
        Protocol re-admission is the recovery plane's job — see
        :attr:`recovery` and docs/RECOVERY.md. Only a crashed node may
        restart: restarting a live node (never crashed, or restarted
        twice) would wrongly re-run the backend's crash-recovery path
        on live protocol state, so it raises."""
        if node_id not in self.dead_nodes:
            raise RuntimeError(
                f"restart_node({node_id}): node is not crashed "
                f"(never failed, or already restarted)")
        node = self.fabric.nodes[node_id]
        node.alive = True
        node.egress_free_at = max(node.egress_free_at, self.sim.now)
        self.dead_nodes.discard(node_id)
        self.backend.on_node_restart(self, node_id)

    def live_nodes(self) -> List[int]:
        """Provisioned nodes whose NIC is up (never address a corpse)."""
        return [n for n in self.node_ids
                if n not in self.dead_nodes and self.fabric.nodes[n].alive]

    # ------------------------------------------------------- durable storage

    def durable_log(self, node_id: int, subgroup_id: int) -> Tuple[list, int]:
        """One node's on-SSD durable log for a subgroup, as
        ``(entries, bytes)``. Reads the live engine when the node runs
        one this epoch, else the node's device in :attr:`storage`
        (which is how a crashed node's log is replayed after
        restart)."""
        group = self.groups.get(node_id)
        if group is not None and subgroup_id in group.persistence:
            engine = group.persistence[subgroup_id]
            return list(engine.log), engine.log_bytes
        device = self.storage.peek(node_id, f"sg{subgroup_id}")
        if device is None:
            return [], 0
        entries = [decode_log_entry(b) for b in device.records()]
        return entries, device.billed_total

    def adopt_durable_log(self, node_id: int, subgroup_id: int,
                          entries, log_bytes: Optional[int] = None) -> None:
        """Overwrite a node's stored durable log (recovery state
        transfer: replayed prefix + fetched delta). The next view that
        includes the node seeds its persistence engine from this."""
        entries = [tuple(e) for e in entries]
        if log_bytes is None:
            log_bytes = sum(len(p) for _s, _n, p in entries if p is not None)
        pairs = [(encode_log_entry(s, n, p), len(p) if p is not None else 0)
                 for s, n, p in entries]
        base = log_bytes - sum(b for _f, b in pairs)
        self.storage.device(node_id, f"sg{subgroup_id}").rewrite(
            pairs, billed_base=base)

    @property
    def recovery(self) -> "RecoveryCoordinator":
        """The cluster's crash-recovery coordinator (created and
        attached on first use — docs/RECOVERY.md)::

            cluster.recovery.set_checksum(0, lambda n: stores[n].checksum())
            cluster.faults.crash(3, at=ms(1), restart_at=ms(6))
        """
        if self._recovery is None:
            self._require_view_synchrony("the recovery coordinator")
            # Deferred: only recovery runs load the coordinator.
            from ..recovery.coordinator import RecoveryCoordinator

            self._recovery = RecoveryCoordinator(self).attach()
        return self._recovery

    def _require_view_synchrony(self, what: str) -> None:
        if not self.backend.view_synchronous:
            raise RuntimeError(
                f"{what} drives wedge/trim/epoch-restart and needs a "
                f"view-synchronous backend; {self.backend.name!r} recovers "
                f"internally (docs/ORDERING.md)")

    def enable_recovery(self, config=None) -> "RecoveryCoordinator":
        """Create (or reconfigure) the recovery coordinator with an
        explicit :class:`~repro.recovery.coordinator.RecoveryConfig`.
        Must be called before the first :attr:`recovery` access if a
        non-default config is wanted."""
        if self._recovery is not None:
            raise RuntimeError("recovery coordinator already created")
        self._require_view_synchrony("the recovery coordinator")
        # Deferred: only recovery runs load the coordinator.
        from ..recovery.coordinator import RecoveryCoordinator

        self._recovery = RecoveryCoordinator(self, config).attach()
        return self._recovery

    @property
    def faults(self) -> "FaultPlane":
        """The cluster's fault-injection plane (created on first use).

        Partition/jitter/stall/crash injection with a JSON-serializable
        schedule for exact replay — see :mod:`repro.faults` and
        docs/FAULTS.md::

            cluster.faults.partition([[0, 1], [2, 3]],
                                     at=ms(1), heal_at=ms(2))
        """
        if self._faults is None:
            # Deferred: fault-free runs never load the fault plane.
            from ..faults.plane import FaultPlane

            self._faults = FaultPlane(self)
        return self._faults

    def add_node(self) -> int:
        """Provision a fresh machine (e.g. a joiner for the next view).

        The node exists on the fabric but participates in no protocol
        until a view that includes it is installed via
        :meth:`install_view` (joins happen at epoch boundaries, §2.1).
        """
        node = self.fabric.add_node()
        self.node_ids.append(node.node_id)
        if self._faults is not None:
            self._faults.adopt(node)
        return node.node_id

    # -------------------------------------------------------------- running

    def spawn_sender(self, generator, name: str = "sender"):
        """Spawn a workload process (e.g. from repro.workloads.generators)."""
        return self.sim.spawn(generator, name=name)

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation until quiescent (or ``until`` seconds)."""
        return self.sim.run(until=until)

    def run_to_quiescence(self, max_time: float = 5.0) -> float:
        """Run until the system quiesces; raise if events are still
        pending ``max_time`` simulated seconds from now (livelock
        guard). ``max_time`` is relative, so multi-epoch scripts can
        call this once per epoch."""
        deadline = self.sim.now + max_time
        self.sim.run(until=deadline)
        pending = self.sim.peek()
        if pending is not None:
            raise RuntimeError(
                f"not quiescent by {deadline}s (next event at {pending}s)"
            )
        return self.sim.now

    def stop(self) -> None:
        """Stop every node's polling thread (lets the event queue drain)."""
        for group in self.groups.values():
            group.stop()

    # -------------------------------------------------------------- access

    def group(self, node_id: int) -> GroupNode:
        return self.groups[node_id]

    def mc(self, node_id: int, subgroup_id: int) -> OrderingEndpoint:
        """The ordering endpoint of a node in a subgroup."""
        return self.groups[node_id].subgroup(subgroup_id)

    def members_of(self, subgroup_id: int) -> Sequence[int]:
        if self.view is None:
            # Not an assert: those vanish under `python -O`, and this is
            # an API-misuse error we want raised in every mode.
            raise RuntimeError(
                "cluster has no installed view yet; call build() before "
                "querying subgroup membership"
            )
        return self.view.subgroups[subgroup_id].members

    # -------------------------------------------------------------- metrics

    def per_node_throughput(self, subgroup_id: int) -> Dict[int, float]:
        """Delivered bytes/second at each member of a subgroup."""
        return {
            nid: self.groups[nid].stats(subgroup_id).throughput()
            for nid in self.members_of(subgroup_id)
        }

    def aggregate_throughput(self, subgroup_id: int) -> float:
        """Paper's throughput metric: delivered bytes/second averaged
        over the subgroup's members."""
        rates = self.per_node_throughput(subgroup_id)
        return sum(rates.values()) / len(rates)

    def node_throughput_all_subgroups(self, node_id: int) -> float:
        """Total delivered bytes/second at one node across subgroups."""
        return sum(
            mc.stats.throughput()
            for mc in self.groups[node_id].multicasts.values()
        )

    def mean_latency(self, subgroup_id: int) -> float:
        """Mean queue-to-delivery latency over all members (seconds)."""
        totals = [self.groups[nid].stats(subgroup_id)
                  for nid in self.members_of(subgroup_id)]
        count = sum(s.latency_count for s in totals)
        if count == 0:
            return 0.0
        return sum(s.latency_sum for s in totals) / count

    def total_delivered(self, subgroup_id: int) -> int:
        """Total messages delivered across members (for assertions)."""
        return sum(self.groups[nid].stats(subgroup_id).delivered
                   for nid in self.members_of(subgroup_id))

    def assert_all_delivered(self, subgroup_id: int, per_sender: int) -> None:
        """Check every member delivered every sent message."""
        spec = self.view.subgroups[subgroup_id]
        expected = per_sender * len(spec.senders)
        for nid in spec.members:
            got = self.groups[nid].stats(subgroup_id).delivered
            if got != expected:
                raise AssertionError(
                    f"node {nid} delivered {got}/{expected} in sg{subgroup_id}"
                )
