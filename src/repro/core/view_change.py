"""Virtual-synchrony membership: failure detection and view changes.

The paper assumes Derecho's partition-free state-machine-replication
membership protocol (§2.1) and evaluates only failure-free epochs; this
module supplies that substrate so the library is a complete atomic
multicast (failure atomicity included), not just a fast path.

Protocol sketch (a faithful simplification of Derecho's, one
reconfiguration at a time):

1. **Failure detection** — every node bumps a heartbeat counter in its
   SST row and pushes it periodically. A peer whose heartbeat goes stale
   for ``suspicion_timeout`` is *locally* suspected; only if it stays
   stale for a further ``confirmation_grace`` is the suspicion
   *published* (a monotonic flag column — irreversible). A heartbeat
   that resumes inside the grace window rescinds the local suspicion
   and backs off that member's effective timeout
   (``suspicion_backoff``), so flapping links and transient partitions
   that heal quickly do not tear the view down (docs/FAULTS.md).
2. **Wedging** — any node that sees any published suspicion adopts all
   visible suspicions into its own row, sets its ``wedged`` flag,
   pushes both, and stops initiating multicasts in every subgroup.
3. **Ragged trim** — the leader (lowest-ranked unsuspected member),
   once it sees every survivor wedged — and only while the unsuspected
   members form a strict majority of the view (the partition-minority
   gate: a minority side wedges rather than electing itself, see
   :attr:`MembershipService.minority_stalled`) — publishes a proposal
   through a guarded SST value: the failed set plus, per subgroup, a
   *trim* equal to the minimum of the survivors' ``received_num``.
   Every survivor necessarily holds all messages up to the trim, so
   each delivers exactly that prefix — the failure-atomicity guarantee:
   a message past the trim is delivered *nowhere* and must be resent in
   the next view (``SubgroupMulticast.undelivered_own_messages``). If
   further suspicions are published before commit, the leader
   *republishes* an extended proposal (the guard version bumps).
4. **Install** — survivors acknowledge the proposal in an ``ack``
   column; when every survivor *named by the proposal* has acknowledged
   it — and the local suspicion set is covered by the proposal's failed
   set — each fires its ``on_new_view`` callbacks with the successor
   :class:`~repro.core.membership.View` built from the **proposal
   payload** (not from whatever is suspected at commit time, so every
   committer of a given proposal version installs the same view).

Known simplifications (documented per DESIGN.md): joins are handled at
epoch boundaries by building the next view explicitly; if the *leader*
fails, the next live member re-runs the protocol from wedging with its
own proposal (proposal versions are tracked per leader row). Derecho's
full ballot mechanism is out of scope for this reproduction, so one
narrow race remains: a suspicion published *after* a falsely-suspected
survivor has already acknowledged can commit on one node before the
extended proposal reaches another. Closing it requires the full ragged-
leader consensus; the chaos suite pins the behaviours this module does
guarantee.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..predicates.framework import Predicate
from ..sim.units import us
from ..sst.fields import SSTLayout
from ..sst.push import GuardedValue
from .membership import View
from .trim import compute_trim

__all__ = ["MembershipColumns", "MembershipService"]


class MembershipColumns:
    """Column indices of the membership block in the SST layout."""

    def __init__(self, heartbeat: int, suspected0: int, wedged: int,
                 ack: int, proposal: Tuple[int, int], num_members: int):
        self.heartbeat = heartbeat
        self.suspected0 = suspected0  # one flag column per member, contiguous
        self.wedged = wedged
        self.ack = ack
        self.proposal = proposal      # (data_col, guard_col)
        self.num_members = num_members

    def suspected(self, member_rank: int) -> int:
        return self.suspected0 + member_rank

    @classmethod
    def declare(cls, layout: SSTLayout, num_members: int) -> "MembershipColumns":
        heartbeat = layout.counter("mbr.heartbeat", initial=0)
        suspected0 = layout.flag("mbr.suspected0")
        for i in range(1, num_members):
            layout.flag(f"mbr.suspected{i}")
        wedged = layout.flag("mbr.wedged")
        ack = layout.counter("mbr.ack")
        proposal = GuardedValue.declare(layout, "mbr.proposal", size=256)
        return cls(heartbeat, suspected0, wedged, ack, proposal, num_members)


class MembershipService:
    """One node's membership endpoint: detector process + SST predicate."""

    def __init__(self, group_node, cols: MembershipColumns,
                 heartbeat_period: float = us(100),
                 suspicion_timeout: float = us(500),
                 confirmation_grace: Optional[float] = None,
                 suspicion_backoff: float = 2.0,
                 max_backoff_scale: float = 8.0):
        self.group = group_node
        self.sst = group_node.sst
        self.sim = group_node.sim
        self.cols = cols
        self.view: View = group_node.view
        self.members = list(self.view.members)
        self.my_rank = self.view.rank_of(group_node.node_id)
        self.heartbeat_period = heartbeat_period
        self.suspicion_timeout = suspicion_timeout
        #: Grace between local and published suspicion (see module docs);
        #: defaults to one suspicion_timeout.
        self.confirmation_grace = (
            suspicion_timeout if confirmation_grace is None
            else confirmation_grace
        )
        self.suspicion_backoff = suspicion_backoff
        self.max_backoff_scale = max_backoff_scale
        self.proposal = GuardedValue(self.sst, *cols.proposal)
        self.wedged = False
        self.proposed = False
        self.installed = False
        #: Failed set this node last published as leader (None if never).
        self.published_failed: Optional[Tuple[int, ...]] = None
        #: Highest proposal version processed, per leader row. Tracked
        #: per row because a successor leader's guard counter starts
        #: over on its own row.
        self.processed_proposal_versions: Dict[int, int] = {}
        #: Payload of the last proposal processed: (view_id, failed, trims).
        self.pending_proposal: Optional[tuple] = None
        self.new_view: Optional[View] = None
        self.on_new_view: List[Callable[[View], None]] = []
        #: Optional :class:`~repro.core.trim.TrimLedger` recording
        #: every proposal/commit for the virtual-synchrony verifier
        #: (wired by the Cluster; None = no auditing).
        self.trim_ledger = None
        self._hb_prev: Dict[int, Tuple[int, float]] = {}
        #: member -> time the *local* (unpublished) suspicion started.
        self.local_suspects: Dict[int, float] = {}
        #: member -> rescinded-suspicion count (observability).
        self.false_alarms: Dict[int, int] = {}
        #: member -> multiplier on the effective suspicion timeout
        #: (grows by ``suspicion_backoff`` per false alarm).
        self._timeout_scale: Dict[int, float] = {}
        self._detector_proc = None
        self.predicate = _MembershipPredicate(self)

    # ---------------------------------------------------------------- wiring

    def start(self) -> None:
        """Register the membership predicate and start heartbeating."""
        self.group.thread.register(self.predicate)
        self._detector_proc = self.sim.spawn(
            self._detector(), name=f"detector@{self.group.node_id}"
        )

    def stop(self) -> None:
        if self._detector_proc is not None and self._detector_proc.alive:
            self._detector_proc.kill()

    # ------------------------------------------------------------- suspicion

    def is_suspected(self, member: int) -> bool:
        """True if *any* row suspects ``member`` (suspicion is infectious)."""
        rank = self.members.index(member)
        col = self.cols.suspected(rank)
        return any(self.sst.read(owner, col) for owner in self.members)

    def suspected_members(self) -> Tuple[int, ...]:
        return tuple(m for m in self.members if self.is_suspected(m))

    def live_members(self) -> List[int]:
        return [m for m in self.members if not self.is_suspected(m)]

    def leader(self) -> int:
        """Lowest-ranked unsuspected member."""
        live = self.live_members()
        return live[0] if live else self.group.node_id

    def has_quorum(self) -> bool:
        """Partition gate: the unsuspected members must form a strict
        majority of the view for a reconfiguration to be proposed. A
        minority side stays wedged instead of electing itself — no
        split-brain views (Derecho's partition-freedom assumption)."""
        return 2 * len(self.live_members()) > len(self.members)

    @property
    def minority_stalled(self) -> bool:
        """True while this node is wedged on the minority side of a
        partition: suspicious of a majority, so it refuses to
        reconfigure and waits (possibly forever) instead."""
        return self.wedged and not self.installed and not self.has_quorum()

    def effective_timeout(self, member: int) -> float:
        """Per-member suspicion timeout including flap backoff."""
        return self.suspicion_timeout * self._timeout_scale.get(member, 1.0)

    def suspect(self, member: int) -> None:
        """Manually mark a member as failed (test/operator injection).

        Publishes immediately — no confirmation grace — and still
        propagates through the normal SST path.
        """
        rank = self.members.index(member)
        self.sst.set(self.cols.suspected(rank), True)
        self.group.thread.doorbell.ring()

        def pusher():
            yield from self.sst.push_col(self.cols.suspected(rank))

        self.sim.spawn(pusher(), name=f"suspect@{self.group.node_id}")

    # ---------------------------------------------------------- detector loop

    def _detector(self):
        """Heartbeat + two-phase staleness checking process.

        Phase 1 (local): heartbeat stale past the member's effective
        timeout -> locally suspected, nothing published. Phase 2
        (confirm): still stale past ``confirmation_grace`` -> publish
        the monotonic suspicion flag. A heartbeat resuming in between
        rescinds the local suspicion and doubles the member's effective
        timeout (backoff against flapping links / transient partitions).
        """
        sst = self.sst
        cols = self.cols
        while not self.installed:
            sst.set(cols.heartbeat, sst.read_own(cols.heartbeat) + 1)
            yield from sst.push_col(cols.heartbeat)
            now = self.sim.now
            for member in self.members:
                if member == self.group.node_id or self.is_suspected(member):
                    self.local_suspects.pop(member, None)
                    continue
                current = sst.read(member, cols.heartbeat)
                prev = self._hb_prev.get(member)
                if prev is None or prev[0] != current:
                    self._hb_prev[member] = (current, now)
                    if member in self.local_suspects:
                        # Heartbeat resumed inside the grace window:
                        # false alarm. Rescind and back off.
                        del self.local_suspects[member]
                        self.false_alarms[member] = (
                            self.false_alarms.get(member, 0) + 1
                        )
                        self._timeout_scale[member] = min(
                            self._timeout_scale.get(member, 1.0)
                            * self.suspicion_backoff,
                            self.max_backoff_scale,
                        )
                    continue
                staleness = now - prev[1]
                timeout = self.effective_timeout(member)
                if member not in self.local_suspects:
                    if staleness > timeout:
                        self.local_suspects[member] = now
                elif staleness > timeout + self.confirmation_grace:
                    # Confirmed: publish the (irreversible) suspicion.
                    rank = self.members.index(member)
                    sst.set(cols.suspected(rank), True)
                    yield from sst.push_col(cols.suspected(rank))
                    self.group.thread.doorbell.ring()
            yield self.heartbeat_period


class _MembershipPredicate(Predicate):
    """The view-change state machine, run on the node's polling thread."""

    def __init__(self, service: MembershipService):
        self.svc = service
        self.name = f"membership@{service.group.node_id}"
        self.subgroup = None

    # The four actions, in priority order.
    _WEDGE, _PROPOSE, _INSTALL, _COMMIT = "wedge", "propose", "install", "commit"

    def evaluate(self):
        svc = self.svc
        cost = svc.group.timing.predicate_eval * len(svc.members)
        if svc.installed:
            return cost, None
        suspected = svc.suspected_members()
        if not suspected:
            return cost, None
        if not svc.wedged:
            return cost, (self._WEDGE, None)
        live = svc.live_members()
        me = svc.group.node_id
        leader = svc.leader()
        if me == leader and svc.has_quorum():
            if not svc.proposed:
                all_wedged = all(
                    svc.sst.read(m, svc.cols.wedged) for m in live
                )
                if all_wedged:
                    return cost, (self._PROPOSE, None)
            elif (svc.published_failed is not None
                    and not set(suspected) <= set(svc.published_failed)):
                # Suspicions grew past our published proposal before it
                # committed: republish an extended one (guard bumps).
                return cost, (self._PROPOSE, None)
        version, _ = svc.proposal.read(leader)
        processed = svc.processed_proposal_versions.get(leader, -1)
        if version > processed:
            return cost, (self._INSTALL, leader)
        if version >= 0 and svc.pending_proposal is not None:
            new_view_id, failed, _trims = svc.pending_proposal
            survivors = [m for m in svc.members if m not in failed]
            if set(suspected) <= set(failed) and all(
                svc.sst.read(m, svc.cols.ack) >= new_view_id
                for m in survivors
            ):
                return cost, (self._COMMIT, None)
        return cost, None

    def trigger(self, value):
        action, data = value
        svc = self.svc
        sst = svc.sst
        cols = svc.cols
        yield svc.group.timing.trigger_base

        if action == self._WEDGE:
            # Adopt every visible suspicion into our own row and wedge.
            for rank, member in enumerate(svc.members):
                if svc.is_suspected(member):
                    sst.set(cols.suspected(rank), True)
            sst.set(cols.wedged, True)
            svc.wedged = True
            for mc in svc.group.multicasts.values():
                mc.wedge()
            lo = min(cols.suspected(0), cols.wedged)
            hi = max(cols.suspected(svc.cols.num_members - 1), cols.wedged) + 1
            return sst.push(lo, hi)

        if action == self._PROPOSE:
            svc.proposed = True
            failed = tuple(m for m in svc.members if svc.is_suspected(m))
            svc.published_failed = failed
            # Ragged-edge trim (paper §2.1): per subgroup, the minimum
            # received_num over the survivors — formalized in
            # repro.core.trim so the decision is auditable.
            decision = compute_trim(
                prior_view_id=svc.view.view_id,
                next_view_id=svc.view.view_id + 1,
                leader=svc.group.node_id,
                failed=failed,
                subgroup_members={
                    sg_id: list(mc.members)
                    for sg_id, mc in sorted(svc.group.multicasts.items())
                },
                received_of=lambda m, sg_id: sst.read(
                    m, svc.group.multicasts[sg_id].cols.received),
                decided_at=svc.sim.now,
                kind="failure",
            )
            if svc.trim_ledger is not None:
                svc.trim_ledger.propose(decision)
            payload = (svc.view.view_id + 1, failed, decision.trims_tuple())
            return svc.proposal.publish(payload)

        if action == self._INSTALL:
            leader = data
            version, payload = svc.proposal.read(leader)
            svc.processed_proposal_versions[leader] = version
            svc.pending_proposal = payload
            new_view_id, failed, trims = payload
            delivered = 0
            for sg_id, trim in trims:
                mc = svc.group.multicasts.get(sg_id)
                if mc is not None:
                    mc.wedge()
                    delivered += mc.force_deliver_up_to(trim)
            yield svc.group.timing.delivery_per_message * delivered
            if new_view_id > sst.read_own(cols.ack):
                sst.set(cols.ack, new_view_id)
            return self._push_ack_and_delivered()

        if action == self._COMMIT:
            svc.installed = True
            new_view_id, failed, trims = svc.pending_proposal
            if svc.trim_ledger is not None:
                svc.trim_ledger.commit(new_view_id, trims,
                                       committer=svc.group.node_id)
            # The successor view comes from the proposal payload, so
            # every committer of this proposal installs the same view;
            # suspicions that arrived too late for it are handled by the
            # next epoch's membership service.
            svc.new_view = svc.view.without(failed, next_view_id=new_view_id)
            svc.stop()
            for callback in svc.on_new_view:
                callback(svc.new_view)
            return None

        raise AssertionError(f"unknown membership action {action!r}")

    def _push_ack_and_delivered(self):
        """Push the ack counter plus each subgroup's delivered_num."""
        svc = self.svc
        yield from svc.sst.push_col(svc.cols.ack)
        for mc in svc.group.multicasts.values():
            yield from mc.smc.push_control()
