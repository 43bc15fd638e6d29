"""Ragged-edge trim, formalized (paper §2.1, Derecho's virtual synchrony).

When an epoch ends — because a member failed or because a joiner is
admitted — the survivors hold a *ragged edge*: each has received some
prefix of the round-robin total order, and the prefixes differ. The
leader computes a **trim**: per subgroup, the minimum ``received_num``
over the surviving members. Every survivor necessarily holds all
messages up to the trim, so each force-delivers exactly that prefix; a
message past the trim is delivered *nowhere* and must be resent in the
next view. That is the failure-atomicity guarantee.

This module extracts the computation from the view-change path into an
auditable artifact: a :class:`TrimDecision` records what the leader saw
(per-survivor received counters), what it decided (per-subgroup trims),
and why (the failed set), and a :class:`TrimLedger` accumulates one
decision per epoch transition so the virtual-synchrony verifier
(:mod:`repro.recovery.verify`) can later check that no node delivered
beyond the trim and that every survivor delivered exactly through it.

Two kinds of decisions appear in the ledger:

* ``kind="failure"`` — recorded by the membership protocol's leader when
  it publishes a proposal (:mod:`repro.core.view_change`), and marked
  committed when survivors install the successor view;
* ``kind="join"`` — recorded by the
  :class:`~repro.recovery.coordinator.RecoveryCoordinator` when it cuts
  an epoch to admit a rejoining member (wedge → settle → trim → install).

The module is dependency-free and lives in ``repro.core``, the lowest
layer that uses it (:mod:`repro.core.view_change`); the recovery plane
imports it from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["TrimDecision", "TrimLedger", "compute_trim"]


@dataclass(frozen=True)
class TrimDecision:
    """One epoch transition's ragged-edge cleanup, as decided.

    ``trims`` maps subgroup id -> highest sequence number every survivor
    must (and may) deliver before the epoch ends. ``survivor_received``
    is the evidence: the per-survivor ``received_num`` snapshot the
    minimum was taken over (subgroup id -> {node -> received}).
    """

    #: View id of the epoch being ended.
    prior_view_id: int
    #: View id of the successor epoch this decision installs.
    next_view_id: int
    #: Node that computed the trim (membership leader or coordinator).
    leader: int
    #: Members removed by the transition (empty for pure joins).
    failed: Tuple[int, ...]
    #: Members added by the transition (empty for failure transitions).
    joined: Tuple[int, ...]
    #: subgroup id -> min received_num over survivors (the trim).
    trims: Dict[int, int]
    #: subgroup id -> {survivor -> received_num seen by the leader}.
    survivor_received: Dict[int, Dict[int, int]]
    #: Simulated time the decision was taken.
    decided_at: float = 0.0
    #: "failure" (membership protocol) or "join" (recovery coordinator).
    kind: str = "failure"

    def trims_tuple(self) -> Tuple[Tuple[int, int], ...]:
        """The (sg_id, trim) tuple shipped in the SST proposal payload."""
        return tuple(sorted(self.trims.items()))

    def to_dict(self) -> dict:
        return {
            "prior_view_id": self.prior_view_id,
            "next_view_id": self.next_view_id,
            "leader": self.leader,
            "failed": list(self.failed),
            "joined": list(self.joined),
            "trims": {str(k): v for k, v in sorted(self.trims.items())},
            "survivor_received": {
                str(sg): {str(n): v for n, v in sorted(per.items())}
                for sg, per in sorted(self.survivor_received.items())
            },
            "decided_at": self.decided_at,
            "kind": self.kind,
        }


def compute_trim(
    *,
    prior_view_id: int,
    next_view_id: int,
    leader: int,
    failed: Tuple[int, ...],
    subgroup_members: Dict[int, List[int]],
    received_of,
    joined: Tuple[int, ...] = (),
    decided_at: float = 0.0,
    kind: str = "failure",
) -> TrimDecision:
    """Compute the ragged-edge trim for an epoch transition.

    ``subgroup_members`` maps subgroup id -> that subgroup's member list
    in the *prior* view; ``received_of(node, sg_id)`` returns the
    ``received_num`` the leader observes for a member (an SST read in
    the membership protocol, a direct endpoint read in the coordinator).
    Survivors of each subgroup are its members minus ``failed``; the
    trim is the minimum of their received counters — every survivor
    holds that prefix, nobody is asked to deliver more.
    """
    trims: Dict[int, int] = {}
    evidence: Dict[int, Dict[int, int]] = {}
    for sg_id, members in sorted(subgroup_members.items()):
        survivors = [m for m in members if m not in failed]
        if not survivors:
            continue
        per = {m: received_of(m, sg_id) for m in survivors}
        trims[sg_id] = min(per.values())
        evidence[sg_id] = per
    return TrimDecision(
        prior_view_id=prior_view_id,
        next_view_id=next_view_id,
        leader=leader,
        failed=tuple(failed),
        joined=tuple(joined),
        trims=trims,
        survivor_received=evidence,
        decided_at=decided_at,
        kind=kind,
    )


class TrimLedger:
    """Per-epoch audit log of trim decisions (one cluster, all epochs).

    The membership leader *proposes* (possibly several times, if
    suspicions grow before commit — the guard version bumps and the
    proposal is extended); survivors *commit* exactly one decision per
    successor view. The ledger keeps every proposal, the committed
    decision per transition, and flags any committer whose trims
    disagree with the first commit — that would be a failure-atomicity
    bug, and the verifier reports it.
    """

    def __init__(self):
        #: Every proposal, in decision order (republications included).
        self.proposals: List[TrimDecision] = []
        #: next_view_id -> the committed decision for that transition.
        self.committed: Dict[int, TrimDecision] = {}
        #: next_view_id -> committers observed (commit is per-survivor).
        self.committers: Dict[int, List[int]] = {}
        #: Human-readable mismatches between commits of one transition.
        self.conflicts: List[str] = []

    # ------------------------------------------------------------- recording

    def propose(self, decision: TrimDecision) -> None:
        self.proposals.append(decision)

    def commit(self, next_view_id: int,
               trims: Tuple[Tuple[int, int], ...],
               committer: int) -> None:
        """Record one survivor's commit of the transition to
        ``next_view_id``. The first commit pins the decision (matched
        against the latest proposal for that view, if any); later
        commits must carry identical trims."""
        trims_dict = dict(trims)
        existing = self.committed.get(next_view_id)
        if existing is None:
            decision = None
            for proposal in reversed(self.proposals):
                if (proposal.next_view_id == next_view_id
                        and proposal.trims == trims_dict):
                    decision = proposal
                    break
            if decision is None:
                # Commit without a recorded proposal (e.g. ledger wired
                # mid-protocol): synthesize a bare decision.
                decision = TrimDecision(
                    prior_view_id=next_view_id - 1,
                    next_view_id=next_view_id,
                    leader=committer,
                    failed=(),
                    joined=(),
                    trims=trims_dict,
                    survivor_received={},
                    kind="failure",
                )
            self.committed[next_view_id] = decision
        elif existing.trims != trims_dict:
            self.conflicts.append(
                f"node {committer} committed trims {sorted(trims_dict.items())} "
                f"for view {next_view_id}, but the pinned decision has "
                f"{sorted(existing.trims.items())}"
            )
        self.committers.setdefault(next_view_id, []).append(committer)

    def record_join(self, decision: TrimDecision) -> None:
        """Record a coordinator-driven join cut (proposed and committed
        in one step: the coordinator is the only decision maker)."""
        self.proposals.append(decision)
        self.committed[decision.next_view_id] = decision
        self.committers.setdefault(decision.next_view_id, []).append(
            decision.leader)

    # --------------------------------------------------------------- queries

    def decision_for(self, next_view_id: int) -> Optional[TrimDecision]:
        """The committed decision installing ``next_view_id`` (if any)."""
        return self.committed.get(next_view_id)

    def decision_ending(self, prior_view_id: int) -> Optional[TrimDecision]:
        """The committed decision that *ended* ``prior_view_id``."""
        for decision in self.committed.values():
            if decision.prior_view_id == prior_view_id:
                return decision
        return None

    def to_dict(self) -> dict:
        return {
            "proposals": [d.to_dict() for d in self.proposals],
            "committed": {str(v): d.to_dict()
                          for v, d in sorted(self.committed.items())},
            "committers": {str(v): list(c)
                           for v, c in sorted(self.committers.items())},
            "conflicts": list(self.conflicts),
        }
