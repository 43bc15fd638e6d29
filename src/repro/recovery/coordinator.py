"""RecoveryCoordinator: restart → replay → catch-up → rejoin.

The fault plane (docs/FAULTS.md) can crash a node and revive its NIC at
``restart_at``, but protocol re-admission is deliberately *not* the
NIC's business: joins happen only at epoch boundaries (paper §2.1).
This module closes that loop. A :class:`RecoveryCoordinator` subscribes
to :attr:`FaultPlane.on_restart <repro.faults.plane.FaultPlane.on_restart>`
and drives each revived node through four audited stages:

1. **wait-view** — wait until the membership protocol has excised the
   crashed node from the installed view (a node cannot rejoin a view it
   is still nominally part of) and no reconfiguration is in flight;
2. **replay** — read the node's durable log back off its (simulated)
   SSD via the persistence plane's carryover store: the replayed prefix
   is state the node does *not* need to fetch, so only the delta moves
   over the wire;
3. **transfer** — pull the delta from a live member with
   :class:`~repro.recovery.transfer.StateTransfer` (chunked, per-chunk
   timeout, bounded exponential backoff with jitter, source failover,
   CRC-validated);
4. **rejoin** — cut an epoch: wedge the survivors' subgroups, wait for
   in-flight traffic to settle, trim to the minimum received index
   (recorded as a ``kind="join"``
   :class:`~repro.core.trim.TrimDecision` in the cluster's ledger),
   drain the survivors' persistence engines, take a final tail sync so
   the adopted log is byte-complete, seed the joiner's durable log, and
   install ``view.with_joined([node])``. The joiner's application state
   is rebuilt through registered appliers and validated against a
   survivor's ``checksum()``.

The coordinator also (optionally) **auto-installs** failure view
changes: the membership protocol computes the successor view but leaves
installation to the embedding (epoch restart rebuilds every GroupNode);
with ``auto_install=True`` the first commit of each successor view
schedules ``cluster.install_view`` on the next simulator tick, so chaos
scenarios no longer hand-roll the epoch restart.

Every stage is timed into the metrics registry
(``spindle_recovery_stage_seconds{stage=...}``) and summarized in a
per-node :class:`NodeRecovery` report for the CLI / tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.membership import View
from ..core.trim import TrimDecision, compute_trim
from ..sim.units import us
from .transfer import (StateTransfer, TransferConfig, TransferOutcome,
                       decode_entries, encode_entries)

__all__ = ["RecoveryConfig", "NodeRecovery", "RecoveryCoordinator"]

Entry = Tuple[int, int, Optional[bytes]]


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the recovery pipeline (docs/RECOVERY.md)."""

    #: Chunked-transfer parameters (timeouts, backoff, failover).
    transfer: TransferConfig = field(default_factory=TransferConfig)
    #: Polling period for wait-view / settle loops.
    poll_interval: float = us(100.0)
    #: Give up waiting for the membership protocol to excise the node.
    view_wait_timeout: float = 0.25
    #: Consecutive identical received_num snapshots that count as
    #: "settled" after wedging (in-flight multicasts drained).
    settle_polls: int = 3
    #: Cap on wedge→settle→install retries when a concurrent failure
    #: view change races the join cut.
    max_cut_retries: int = 3
    #: Subgroups the node rejoins (None = all it was a member of).
    rejoin_subgroups: Optional[Tuple[int, ...]] = None
    #: Whether the rejoiner comes back as a sender.
    as_senders: bool = True
    #: Install committed *failure* view changes automatically.
    auto_install: bool = True


@dataclass
class NodeRecovery:
    """Audit record of one node's trip through the recovery pipeline."""

    node: int
    state: str = "waiting-view"
    started_at: float = 0.0
    finished_at: float = 0.0
    #: stage name -> simulated seconds spent in it.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: subgroup -> entries recovered from the local durable log.
    replayed: Dict[int, int] = field(default_factory=dict)
    #: subgroup -> entries fetched over the wire (delta + tail).
    fetched: Dict[int, int] = field(default_factory=dict)
    #: subgroup -> transfer outcome of the main delta pull.
    transfers: Dict[int, TransferOutcome] = field(default_factory=dict)
    #: subgroup -> application checksum match vs the source (None if no
    #: checksum hook was registered for that subgroup).
    checksum_ok: Dict[int, Optional[bool]] = field(default_factory=dict)
    rejoin_view_id: Optional[int] = None
    cut_retries: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.state == "done"

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "state": self.state,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "stage_seconds": dict(self.stage_seconds),
            "replayed": dict(self.replayed),
            "fetched": dict(self.fetched),
            "transfers": {str(sg): t.to_dict()
                          for sg, t in sorted(self.transfers.items())},
            "checksum_ok": {str(sg): v
                            for sg, v in sorted(self.checksum_ok.items())},
            "rejoin_view_id": self.rejoin_view_id,
            "cut_retries": self.cut_retries,
            "problems": list(self.problems),
        }


class RecoveryCoordinator:
    """Orchestrates crash recovery for one cluster.

    Create via :attr:`Cluster.recovery <repro.workloads.cluster.Cluster
    .recovery>` (which constructs and attaches it), or explicitly::

        coord = RecoveryCoordinator(cluster, RecoveryConfig(...))
        coord.set_applier(0, lambda node, entries: ...)
        coord.set_checksum(0, lambda node: stores[node].checksum())
        coord.attach()
    """

    def __init__(self, cluster, config: Optional[RecoveryConfig] = None):
        self.cluster = cluster
        self.config = config if config is not None else RecoveryConfig()
        self.sim = cluster.sim
        self.reports: Dict[int, NodeRecovery] = {}
        self.on_rejoined: List[Callable[[int, View], None]] = []
        self._appliers: Dict[int, Callable[[int, List[Entry]], None]] = {}
        self._checksums: Dict[int, Callable[[int], int]] = {}
        self._attached = False
        self._transfer_count = 0
        self._installed_views: set = set()
        self._wired_services: set = set()
        self._metrics = cluster.metrics
        self._counters = {
            "recoveries_started": self._metrics.counter(
                "spindle_recovery_started_total",
                "recovery pipelines launched by restart callbacks"),
            "recoveries_done": self._metrics.counter(
                "spindle_recovery_completed_total",
                "nodes fully rejoined after a crash"),
            "recoveries_failed": self._metrics.counter(
                "spindle_recovery_failed_total",
                "recovery pipelines that gave up"),
            "transfer_timeouts": self._metrics.counter(
                "spindle_recovery_transfer_timeouts_total",
                "per-chunk timeouts during state transfer"),
            "transfer_failovers": self._metrics.counter(
                "spindle_recovery_transfer_failovers_total",
                "mid-transfer source failovers"),
            "transfer_bytes": self._metrics.counter(
                "spindle_recovery_transfer_bytes_total",
                "state-transfer bytes pulled by rejoining nodes"),
        }

    # ------------------------------------------------------------ app hooks

    def set_applier(self, subgroup_id: int,
                    fn: Callable[[int, List[Entry]], None]) -> None:
        """Register the app-state rebuild hook for a subgroup: called as
        ``fn(node, entries)`` once the rejoiner's durable log is
        complete (entries cover the *whole* log, oldest first)."""
        self._appliers[subgroup_id] = fn

    def set_checksum(self, subgroup_id: int,
                     fn: Callable[[int], int]) -> None:
        """Register the app checksum hook, ``fn(node) -> int`` (e.g.
        ``KvNode.checksum`` / ``ReplicatedQueue.checksum``), used to
        validate convergence after rejoin."""
        self._checksums[subgroup_id] = fn

    # --------------------------------------------------------------- wiring

    def attach(self) -> "RecoveryCoordinator":
        """Subscribe to restart callbacks and (if configured) wire
        auto-install of committed failure view changes. Idempotent."""
        if self._attached:
            return self
        self._attached = True
        self.cluster.faults.on_restart.append(self._on_restart)
        self.cluster.on_view_installed.append(
            lambda _view: self._wire_membership())
        self._wire_membership()
        return self

    def _wire_membership(self) -> None:
        """Hook every current epoch's membership services (re-run after
        each install: groups are rebuilt per epoch)."""
        if not self.config.auto_install:
            return
        for group in self.cluster.groups.values():
            svc = group.membership
            if svc is not None and id(svc) not in self._wired_services:
                self._wired_services.add(id(svc))
                svc.on_new_view.append(self._on_committed_view)

    def _on_committed_view(self, new_view: View) -> None:
        """First commit of a successor view: schedule the epoch restart.

        Scheduled on the next simulator tick rather than installed
        inline — the commit fires from inside the predicate thread that
        the install is about to tear down."""
        if new_view.view_id in self._installed_views:
            return
        self._installed_views.add(new_view.view_id)
        self.sim.call_after(0.0, self._install_committed, new_view)

    def _install_committed(self, new_view: View) -> None:
        current = self.cluster.view
        if current is not None and current.view_id >= new_view.view_id:
            return
        self.cluster.install_view(new_view)

    def _on_restart(self, node_id: int) -> None:
        report = NodeRecovery(node=node_id, started_at=self.sim.now)
        self.reports[node_id] = report
        self._counters["recoveries_started"].inc()
        self.sim.spawn(self._recover(report), name=f"recover@{node_id}")

    # -------------------------------------------------------------- pipeline

    def _fail(self, report: NodeRecovery, problem: str) -> None:
        report.problems.append(problem)
        report.state = "failed"
        report.finished_at = self.sim.now
        self._counters["recoveries_failed"].inc()

    def _stage(self, report: NodeRecovery, stage: str, started: float) -> None:
        elapsed = self.sim.now - started
        report.stage_seconds[stage] = (
            report.stage_seconds.get(stage, 0.0) + elapsed)
        self._metrics.timer(
            "spindle_recovery_stage_seconds",
            "simulated time per recovery stage",
            stage=stage).add(elapsed)

    def _reconfig_in_flight(self) -> bool:
        for group in self.cluster.groups.values():
            svc = group.membership
            if svc is None:
                continue
            node = self.cluster.fabric.nodes.get(group.node_id)
            if node is not None and node.alive \
                    and svc.wedged and not svc.installed:
                return True
        return False

    def _recover(self, report: NodeRecovery):
        cluster = self.cluster
        cfg = self.config
        node = report.node

        # ---- stage 1: wait until the old view has excised the node ------
        t0 = self.sim.now
        deadline = t0 + cfg.view_wait_timeout
        while (node in cluster.view.members) or self._reconfig_in_flight():
            if self.sim.now >= deadline:
                self._stage(report, "wait-view", t0)
                self._fail(report,
                           f"view still contains node {node} after "
                           f"{cfg.view_wait_timeout}s (membership disabled, "
                           f"or the view change never committed)")
                return
            yield cfg.poll_interval
        self._stage(report, "wait-view", t0)

        # ---- stage 2: replay the durable log off the local SSD ----------
        report.state = "replaying"
        t0 = self.sim.now
        target_sgs = self._target_subgroups(node)
        own: Dict[int, List[Entry]] = {}
        for sg_id in target_sgs:
            entries, log_bytes = cluster.durable_log(node, sg_id)
            own[sg_id] = list(entries)
            report.replayed[sg_id] = len(entries)
            read_cost = cluster.storage_model.read_time(log_bytes)
            if read_cost > 0.0:
                yield read_cost
        self._stage(report, "replay", t0)

        # ---- stage 3: pull the delta from a live member -----------------
        report.state = "transferring"
        t0 = self.sim.now
        fetched: Dict[int, List[Entry]] = {}
        for sg_id in target_sgs:
            pulled = yield from self._pull_delta(report, node, sg_id,
                                                 own[sg_id])
            if pulled is None:
                self._stage(report, "transfer", t0)
                return  # _pull_delta already failed the report
            fetched[sg_id] = pulled[0]
        self._stage(report, "transfer", t0)

        # ---- stage 4: epoch-cut rejoin ----------------------------------
        report.state = "rejoining"
        t0 = self.sim.now
        for attempt in range(cfg.max_cut_retries):
            done = yield from self._cut_and_rejoin(report, node, own, fetched)
            if done:
                break
            report.cut_retries += 1
            if attempt + 1 >= cfg.max_cut_retries:
                self._stage(report, "rejoin", t0)
                self._fail(report,
                           f"join cut aborted {report.cut_retries} times by "
                           f"concurrent view changes")
                return
            yield cfg.poll_interval
        self._stage(report, "rejoin", t0)
        if report.state != "done":
            return
        report.finished_at = self.sim.now
        self._counters["recoveries_done"].inc()
        for callback in self.on_rejoined:
            callback(node, cluster.view)

    # --------------------------------------------------------------- helpers

    def _target_subgroups(self, node: int) -> List[int]:
        cfg = self.config
        out = []
        for sg in self.cluster.view.subgroups:
            if cfg.rejoin_subgroups is not None \
                    and sg.subgroup_id not in cfg.rejoin_subgroups:
                continue
            if sg.persistent:
                out.append(sg.subgroup_id)
        return out

    def _live_sources(self, sg_id: int) -> List[int]:
        cluster = self.cluster
        view = cluster.view
        for sg in view.subgroups:
            if sg.subgroup_id == sg_id:
                return [m for m in sg.members
                        if m in cluster.live_nodes() and m in cluster.groups]
        return []

    def _source_log(self, source: int, sg_id: int) -> Optional[List[Entry]]:
        group = self.cluster.groups.get(source)
        if group is None:
            return None
        engine = group.persistence.get(sg_id)
        if engine is None:
            return None
        return engine.log

    def _pull_delta(self, report: NodeRecovery, node: int, sg_id: int,
                    own: List[Entry], record: bool = True):
        """Transfer the durable-log delta past ``own`` for one subgroup,
        over the wire. Returns the decoded entries, or None after
        failing the report. ``record=False`` (tail syncs) accumulates
        counters without overwriting the main transfer outcome."""
        cluster = self.cluster
        prefix = len(own)

        def fetch(source: int) -> Optional[bytes]:
            src_log = self._source_log(source, sg_id)
            if src_log is None or len(src_log) < prefix:
                return None
            # Prefix consistency: the survivor's log must extend ours
            # entry-for-entry (logs are position-aligned — sequence
            # numbers reset each epoch, so positions, not seqs, index
            # the cumulative durable order).
            if src_log[:prefix] != own:
                report.problems.append(
                    f"sg{sg_id}: source {source} log diverges from the "
                    f"local durable prefix; skipping source")
                return None
            return encode_entries(src_log[prefix:])

        sources = self._live_sources(sg_id)
        if not sources:
            self._fail(report, f"sg{sg_id}: no live source to recover from")
            return None
        self._transfer_count += 1
        rng = Random(cluster.seed * 1000003 + node * 1009 + sg_id * 13
                     + self._transfer_count)
        st = StateTransfer(self.sim, cluster.fabric, dest=node,
                           sources=sources, fetch_payload=fetch,
                           config=self.config.transfer, rng=rng)
        outcome = yield from st.run()
        if record or sg_id not in report.transfers:
            report.transfers[sg_id] = outcome
        self._counters["transfer_timeouts"].inc(outcome.timeouts)
        self._counters["transfer_failovers"].inc(outcome.failovers)
        self._counters["transfer_bytes"].inc(outcome.bytes_transferred)
        if not outcome.ok:
            self._fail(report, f"sg{sg_id}: state transfer failed: "
                               f"{outcome.error}")
            return None
        try:
            entries = decode_entries(outcome.data)
        except ValueError as exc:
            self._fail(report, f"sg{sg_id}: transfer stream corrupt: {exc}")
            return None
        report.fetched[sg_id] = report.fetched.get(sg_id, 0) + len(entries)
        return entries, outcome.source

    def _cut_and_rejoin(self, report: NodeRecovery, node: int,
                        own: Dict[int, List[Entry]],
                        fetched: Dict[int, List[Entry]]):
        """One attempt at the epoch cut. Returns True when the joiner is
        installed; False if a concurrent view change invalidated the cut
        (caller retries against the new epoch)."""
        cluster = self.cluster
        cfg = self.config
        cut_view = cluster.view
        cut_view_id = cut_view.view_id

        def view_moved() -> bool:
            return cluster.view.view_id != cut_view_id

        target_sgs = self._target_subgroups(node)
        live = [m for m in cut_view.members if m in cluster.live_nodes()]

        # Wedge the survivors' subgroups: no new multicasts this epoch.
        for member in live:
            group = cluster.groups.get(member)
            if group is None:
                continue
            for mc in group.multicasts.values():
                mc.wedge()

        # Settle: wait until in-flight traffic drains (received counters
        # stop moving for settle_polls consecutive polls).
        stable = 0
        previous = None
        while stable < cfg.settle_polls:
            if view_moved():
                return False
            snapshot = tuple(
                (m, sg_id, cluster.groups[m].multicasts[sg_id].received_seq)
                for m in live if m in cluster.groups
                for sg_id in cluster.groups[m].multicasts
            )
            stable = stable + 1 if snapshot == previous else 1
            previous = snapshot
            yield cfg.poll_interval

        if view_moved():
            return False

        # Trim: minimum received index over the live members, per
        # subgroup; force-deliver that prefix everywhere and record the
        # decision in the ledger for the verifier.
        subgroup_members = {
            sg.subgroup_id: [m for m in sg.members if m in live]
            for sg in cut_view.subgroups
        }
        decision = compute_trim(
            prior_view_id=cut_view_id,
            next_view_id=cut_view_id + 1,
            leader=cut_view.leader,
            failed=(),
            subgroup_members=subgroup_members,
            received_of=lambda m, sg_id:
                cluster.groups[m].multicasts[sg_id].received_seq,
            joined=(node,),
            decided_at=self.sim.now,
            kind="join",
        )
        for sg_id, trim in decision.trims.items():
            for member in subgroup_members[sg_id]:
                group = cluster.groups.get(member)
                if group is not None and sg_id in group.multicasts:
                    group.multicasts[sg_id].force_deliver_up_to(trim)
        if cluster.trim_ledger is not None:
            cluster.trim_ledger.record_join(decision)

        # Drain the survivors' persistence engines so their durable logs
        # are byte-complete through the trim.
        for member in live:
            group = cluster.groups.get(member)
            if group is None:
                continue
            for engine in group.persistence.values():
                while not engine.drained:
                    if view_moved():
                        return False
                    yield cfg.poll_interval

        if view_moved():
            return False

        # Tail sync: the epoch is wedged, trimmed and drained, so the
        # survivors' logs are final. Pull whatever grew past the main
        # delta over the wire (same chunked protocol, one bounded round
        # — nothing can append while the epoch is quiesced).
        full: Dict[int, List[Entry]] = {}
        sources_of: Dict[int, int] = {}
        for sg_id in target_sgs:
            known = list(own.get(sg_id, [])) + list(fetched.get(sg_id, []))
            pulled = yield from self._pull_delta(report, node, sg_id, known,
                                                 record=False)
            if pulled is None:
                return True  # unrecoverable (report already failed)
            tail, source = pulled
            full[sg_id] = known + tail
            sources_of[sg_id] = source
        if view_moved():
            return False

        # Seed the joiner's durable log *before* the install: the new
        # epoch's persistence engine adopts it (PersistenceEngine
        # .adopt_log via Cluster.install_view).
        for sg_id, entries in full.items():
            cluster.adopt_durable_log(node, sg_id, entries)

        new_view = cut_view.with_joined(
            [node],
            subgroups_to_join=cfg.rejoin_subgroups,
            as_senders=cfg.as_senders,
        )
        if view_moved():
            return False
        cluster.install_view(new_view)
        self._installed_views.add(new_view.view_id)
        report.rejoin_view_id = new_view.view_id
        report.state = "done"

        # Rebuild the joiner's application state and validate it against
        # the source's checksum.
        for sg_id, entries in full.items():
            applier = self._appliers.get(sg_id)
            if applier is not None:
                applier(node, entries)
            checksum = self._checksums.get(sg_id)
            if checksum is not None:
                ok = checksum(node) == checksum(sources_of[sg_id])
                report.checksum_ok[sg_id] = ok
                if not ok:
                    report.problems.append(
                        f"sg{sg_id}: checksum mismatch vs source "
                        f"{sources_of[sg_id]} after rejoin")
            else:
                report.checksum_ok[sg_id] = None
        return True
