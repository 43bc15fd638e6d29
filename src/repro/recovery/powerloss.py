"""Whole-cluster power-loss recovery (docs/DURABILITY.md).

The crash-restart-rejoin path (:mod:`repro.recovery.coordinator`)
assumes a surviving majority to rejoin *into*. A datacenter power event
kills every node in the same window: there is no survivor to transfer
state from, so recovery is storage-only — each node powers back on,
CRC-scans its devices (:meth:`StorageDevice.reopen
<repro.storage.StorageDevice.reopen>` truncates torn/corrupt tails),
and the cluster reconciles the per-node durable logs.

Reconciliation is longest-log-wins, which is safe here by the
durability contract: the ``on_durable`` watermark only fires for
entries fsynced on *every* member, so any acknowledged entry is on all
disks and every scanned log is a prefix of the longest (entries are
appended in delivery order, which is identical everywhere — atomic
multicast). A non-prefix log is therefore a real protocol violation and
fails the recovery. Un-acknowledged suffix entries present on some
disks ride along with the adopted longest log — re-completing
unacknowledged work is legal; losing acknowledged work is not.

The Multi-Paxos backend needs none of this: with
``PaxosConfig(durable_acceptors=True)`` each acceptor recovers its own
promise/accept WAL on restart and the ordinary leader-election +
learn-from-zero path reconstructs the log (docs/ORDERING.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.membership import View
from ..storage.device import decode_log_entry, encode_log_entry

__all__ = ["PowerLossReport", "recover_power_loss"]


@dataclass
class PowerLossReport:
    """Outcome of one whole-cluster power-loss recovery."""

    ok: bool = True
    problems: List[str] = field(default_factory=list)
    restarted: List[int] = field(default_factory=list)
    #: subgroup -> entry count of the adopted (longest) log.
    adopted: Dict[int, int] = field(default_factory=dict)
    #: subgroup -> highest seq in the adopted log (-1 when empty).
    adopted_seq: Dict[int, int] = field(default_factory=dict)
    #: records CRC-truncated at reopen, across all devices.
    dropped_on_reopen: int = 0
    #: simulated seconds spent streaming logs off the disks.
    read_cost: float = 0.0
    view_id: Optional[int] = None

    def problem(self, text: str) -> None:
        self.ok = False
        self.problems.append(text)


def recover_power_loss(cluster) -> "PowerLossReport":
    """Generator process: recover a fully-crashed cluster from its disks.

    Spawn it after the lights come back on::

        cluster.spawn_sender(driver())   # driver yields from this

    Every node must currently be crashed (a *partial* outage is the
    coordinator's job, not this path). Powers each NIC back on, reopens
    every persistent subgroup's device on every member (charging
    ``StorageModel.read_time`` per log), checks the logs are mutual
    prefixes, adopts the longest per subgroup onto every member, and
    installs the successor view (same members, same subgroups, next
    view id). Returns a :class:`PowerLossReport`.
    """
    report = PowerLossReport()
    dead = sorted(cluster.dead_nodes)
    if set(dead) != set(cluster.node_ids):
        raise RuntimeError(
            f"power-loss recovery needs the whole cluster down; dead="
            f"{dead}, provisioned={sorted(cluster.node_ids)}")

    for nid in dead:
        cluster.restart_node(nid)
        report.restarted.append(nid)

    old_view = cluster.view
    for spec in old_view.subgroups:
        if not spec.persistent:
            continue
        sg = spec.subgroup_id
        logs: Dict[int, List[tuple]] = {}
        billed: Dict[int, int] = {}
        for nid in spec.members:
            device = cluster.storage.peek(nid, f"sg{sg}")
            if device is None:
                logs[nid], billed[nid] = [], 0
                continue
            bodies = device.reopen()
            report.dropped_on_reopen += device.counters[
                "records_dropped_on_reopen"]
            logs[nid] = [decode_log_entry(b) for b in bodies]
            billed[nid] = device.billed_total
            cost = cluster.storage_model.read_time(billed[nid])
            report.read_cost += cost
            if cost > 0.0:
                yield cost
        # Longest-log-wins, ties broken by node id for determinism.
        winner = max(spec.members, key=lambda n: (len(logs[n]), -n))
        longest = logs[winner]
        for nid in spec.members:
            mine = logs[nid]
            if mine != longest[:len(mine)]:
                diverge = next(
                    (i for i, (a, b) in enumerate(zip(mine, longest))
                     if a != b), min(len(mine), len(longest)))
                report.problem(
                    f"sg{sg}: node {nid}'s durable log is not a prefix "
                    f"of node {winner}'s (diverges at entry {diverge})")
        report.adopted[sg] = len(longest)
        report.adopted_seq[sg] = longest[-1][0] if longest else -1
        if report.ok:
            pairs = [(encode_log_entry(s, n, p),
                      len(p) if p is not None else 0)
                     for s, n, p in longest]
            winner_base = billed[winner] - sum(b for _f, b in pairs)
            for nid in spec.members:
                cluster.storage.device(nid, f"sg{sg}").rewrite(
                    pairs, billed_base=winner_base)

    if not report.ok:
        return report
    new_view = View(old_view.view_id + 1, old_view.members,
                    old_view.subgroups)
    cluster.install_view(new_view)
    report.view_id = new_view.view_id
    return report
