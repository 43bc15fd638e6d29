"""Cross-view virtual-synchrony safety verifier.

Derecho's correctness story (paper §2.1) is *virtual synchrony*: within
an epoch every member delivers the same totally-ordered, gap-free prefix
of the round-robin order, and at an epoch boundary the ragged edge is
trimmed so that survivors agree byte-for-byte on what the ending epoch
delivered. This module turns that story into a machine-checked audit.

A :class:`VsyncVerifier` attaches to a
:class:`~repro.workloads.cluster.Cluster` and passively records:

* every delivery upcall, per ``(view, subgroup, node)`` — as
  ``(seq, sender, payload-digest)`` triples (re-hooked on each installed
  view, since groups are rebuilt per epoch);
* an **epoch-end snapshot** of each node's ``delivered_seq`` /
  ``received_seq`` at the instant the old epoch is torn down;
* the sequence of installed :class:`~repro.core.membership.View`\\ s;
* the cluster's :class:`~repro.core.trim.TrimLedger`.

``check()`` then audits four invariant families across *all* recorded
epochs:

1. **Atomicity** — members that survive a view transition hold
   *identical* delivery logs for the ending view; a departed (failed)
   member's log is a *prefix* of the survivors' log (it may have died
   early, it must not have diverged).
2. **Total order & gap-freedom** — per node and view, delivered
   sequence numbers are strictly increasing, and no node skips an
   *application* message below its own high-water mark (sequence
   numbers are shared with §3.3 null rounds, which are skipped without
   an upcall, so the union over members defines which seqs were real).
3. **Trim conformance** — for every committed
   :class:`~repro.core.trim.TrimDecision`, no survivor delivered
   past the trim in the ending view, and every survivor delivered
   *through* it (the force-delivered prefix), as witnessed by both the
   recorded upcalls and the epoch-end counter snapshot.
4. **Ledger coherence** — divergent trim commits recorded by the
   :class:`~repro.core.trim.TrimLedger` are surfaced verbatim.

The verifier is read-only: it never perturbs protocol timing beyond the
(simulated-zero-cost) Python callbacks, so a run with the verifier
attached is event-for-event the run without it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.membership import View

__all__ = ["VsyncVerifier", "VsyncReport"]


def _digest(payload: Optional[bytes]) -> Optional[int]:
    return None if payload is None else zlib.crc32(payload)


@dataclass
class VsyncReport:
    """Outcome of one :meth:`VsyncVerifier.check` audit."""

    ok: bool = True
    #: Human-readable violations, each prefixed with its category
    #: (``atomicity:``, ``order:``, ``gap:``, ``trim:``, ``ledger:``).
    violations: List[str] = field(default_factory=list)
    views_seen: List[int] = field(default_factory=list)
    epochs_checked: int = 0
    deliveries_checked: int = 0

    def by_category(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.violations:
            cat = v.split(":", 1)[0]
            out[cat] = out.get(cat, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": list(self.violations),
            "by_category": self.by_category(),
            "views_seen": list(self.views_seen),
            "epochs_checked": self.epochs_checked,
            "deliveries_checked": self.deliveries_checked,
        }


class VsyncVerifier:
    """Passive recorder + auditor of virtual-synchrony invariants.

    Usage::

        cluster = Cluster(...); ...; cluster.build()
        verifier = VsyncVerifier(cluster)   # attaches immediately
        ... run, crash, recover ...
        report = verifier.check()
        assert report.ok, report.violations
    """

    def __init__(self, cluster):
        self.cluster = cluster
        #: (view_id, sg_id, node) -> [(seq, sender, digest), ...]
        self.logs: Dict[Tuple[int, int, int],
                        List[Tuple[int, int, Optional[int]]]] = {}
        #: view_id -> View
        self.views: Dict[int, View] = {}
        #: view_id -> {node -> {sg -> (delivered_seq, received_seq)}}
        self.epoch_end: Dict[int, Dict[int, Dict[int, Tuple[int, int]]]] = {}
        #: view_id -> set of nodes whose NIC was alive at epoch end
        self.alive_at_end: Dict[int, set] = {}
        self._attached = False
        self.attach()

    # ------------------------------------------------------------- recording

    def attach(self) -> None:
        """Hook the cluster's view-lifecycle callbacks (idempotent)."""
        if self._attached:
            return
        self._attached = True
        self.cluster.on_view_installed.append(self._record_view)
        self.cluster.on_epoch_end.append(self._record_epoch_end)
        if self.cluster.view is not None:
            self._record_view(self.cluster.view)

    def _record_view(self, view: View) -> None:
        self.views[view.view_id] = view
        for node_id, group in self.cluster.groups.items():
            for sg_id in group.multicasts:
                self._hook_delivery(view.view_id, sg_id, node_id, group)

    def _hook_delivery(self, view_id: int, sg_id: int, node_id: int,
                       group) -> None:
        key = (view_id, sg_id, node_id)
        self.logs.setdefault(key, [])

        def record(delivery, _key=key):
            self.logs[_key].append(
                (delivery.seq, delivery.sender, _digest(delivery.payload))
            )

        group.on_delivery(sg_id, record)

    def _record_epoch_end(self, view: View, groups: Dict[int, object]) -> None:
        snap: Dict[int, Dict[int, Tuple[int, int]]] = {}
        alive = set()
        for node_id, group in groups.items():
            per: Dict[int, Tuple[int, int]] = {}
            for sg_id, mc in group.multicasts.items():
                per[sg_id] = (mc.delivered_seq, mc.received_seq)
            snap[node_id] = per
            fabric_node = self.cluster.fabric.nodes.get(node_id)
            if fabric_node is not None and fabric_node.alive:
                alive.add(node_id)
        self.epoch_end[view.view_id] = snap
        self.alive_at_end[view.view_id] = alive

    # --------------------------------------------------------------- auditing

    def check(self) -> VsyncReport:
        """Audit all recorded epochs; see the module docstring for the
        invariant families."""
        report = VsyncReport()
        report.views_seen = sorted(self.views)
        report.deliveries_checked = sum(len(v) for v in self.logs.values())
        ledger = getattr(self.cluster, "trim_ledger", None)

        for view_id in report.views_seen:
            view = self.views[view_id]
            successor = self.views.get(view_id + 1)
            if successor is not None:
                survivors = [m for m in view.members
                             if m in successor.members]
            else:
                # Final epoch: judge the members still alive at the end.
                alive = self.alive_at_end.get(view_id)
                if alive is None:
                    alive = {m for m in view.members
                             if self.cluster.fabric.nodes[m].alive}
                survivors = [m for m in view.members if m in alive]
            departed = [m for m in view.members if m not in survivors]
            report.epochs_checked += 1

            for sg in view.subgroups:
                self._check_subgroup(report, view_id, sg.subgroup_id,
                                     [m for m in survivors
                                      if m in sg.members],
                                     [m for m in departed
                                      if m in sg.members])

            # Trim conformance for the decision that *ended* this view.
            if ledger is not None and successor is not None:
                decision = ledger.decision_for(successor.view_id)
                if decision is not None \
                        and decision.prior_view_id == view_id:
                    self._check_trim(report, view_id, decision, survivors)

        if ledger is not None:
            for conflict in ledger.conflicts:
                report.violations.append(f"ledger: {conflict}")

        report.ok = not report.violations
        return report

    # ----------------------------------------------------------- sub-checks

    def _log(self, view_id: int, sg_id: int, node: int):
        return self.logs.get((view_id, sg_id, node), [])

    def _check_subgroup(self, report: VsyncReport, view_id: int, sg_id: int,
                        survivors: List[int], departed: List[int]) -> None:
        # Total order, per node (survivor or not: a failed node must
        # also have delivered in order while it lived).
        for node in survivors + departed:
            seqs = [e[0] for e in self._log(view_id, sg_id, node)]
            if any(b <= a for a, b in zip(seqs, seqs[1:])):
                bad = next(i for i, (a, b) in
                           enumerate(zip(seqs, seqs[1:])) if b <= a)
                report.violations.append(
                    f"order: view {view_id} sg{sg_id} node {node} delivered "
                    f"seq {seqs[bad + 1]} after {seqs[bad]}"
                )
        # Gap-freedom: sequence numbers are shared with *null* rounds
        # (§3.3), which are skipped over without an upcall — so the
        # delivered seqs need not be contiguous. What must hold is that
        # every node delivered every *application* message up to its own
        # high-water mark; the union over all members is the ground
        # truth for which seqs carried one (reals vs nulls are globally
        # agreed by the round-robin order).
        real_seqs = sorted({e[0]
                            for node in survivors + departed
                            for e in self._log(view_id, sg_id, node)})
        for node in survivors + departed:
            seqs = [e[0] for e in self._log(view_id, sg_id, node)]
            if not seqs:
                continue
            expected = [s for s in real_seqs if s <= seqs[-1]]
            missed = sorted(set(expected) - set(seqs))
            if missed:
                report.violations.append(
                    f"gap: view {view_id} sg{sg_id} node {node} skipped "
                    f"application seqs {missed[:4]}"
                    + ("…" if len(missed) > 4 else "")
                    + f" below its high-water mark {seqs[-1]}"
                )
        # Atomicity: all survivors hold identical logs for the epoch.
        if survivors:
            reference = self._log(view_id, sg_id, survivors[0])
            for node in survivors[1:]:
                log = self._log(view_id, sg_id, node)
                if log != reference:
                    report.violations.append(
                        f"atomicity: view {view_id} sg{sg_id}: node {node} "
                        f"delivered {len(log)} messages but node "
                        f"{survivors[0]} delivered {len(reference)}"
                        + ("" if len(log) != len(reference) else
                           " (same length, diverging contents)")
                    )
            # Departed members' logs must be prefixes of the agreed log.
            for node in departed:
                log = self._log(view_id, sg_id, node)
                if log != reference[:len(log)]:
                    report.violations.append(
                        f"atomicity: view {view_id} sg{sg_id}: departed node "
                        f"{node}'s {len(log)}-message log is not a prefix of "
                        f"the survivors' log"
                    )

    def _check_trim(self, report: VsyncReport, view_id: int,
                    decision, survivors: List[int]) -> None:
        snap = self.epoch_end.get(view_id, {})
        view = self.views[view_id]
        sg_members = {sg.subgroup_id: set(sg.members) for sg in view.subgroups}
        for sg_id, trim in sorted(decision.trims.items()):
            for node in survivors:
                if node not in sg_members.get(sg_id, ()):
                    continue
                log = self._log(view_id, sg_id, node)
                if log and log[-1][0] > trim:
                    report.violations.append(
                        f"trim: view {view_id} sg{sg_id} node {node} "
                        f"delivered seq {log[-1][0]} past the committed "
                        f"trim {trim}"
                    )
                counters = snap.get(node, {}).get(sg_id)
                if counters is not None and counters[0] != trim:
                    report.violations.append(
                        f"trim: view {view_id} sg{sg_id} node {node} ended "
                        f"the epoch at delivered_seq {counters[0]}, "
                        f"committed trim is {trim}"
                    )
                elif counters is None and log and log[-1][0] != trim:
                    report.violations.append(
                        f"trim: view {view_id} sg{sg_id} node {node} "
                        f"last delivered seq {log[-1][0]} != trim {trim} "
                        f"(no epoch-end snapshot)"
                    )
