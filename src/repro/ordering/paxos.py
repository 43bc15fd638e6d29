"""Multi-Paxos atomic multicast: the quorum-consensus baseline.

The paper's core claim is comparative — the SST multicast beats classic
quorum protocols *under identical conditions*. This module supplies the
other side of that comparison: a leader-based Multi-Paxos (proposer /
acceptor / learner roles collapsed into one endpoint per member, as in
practical deployments) running on the very same simulated RDMA fabric,
timing model and fault plane as Spindle (see
:mod:`repro.ordering.net`), behind the same
:class:`~repro.core.endpoint.OrderingEndpoint` contract.

Protocol shape:

* **Leader leases via heartbeats.** The member ``ballot % M`` leads;
  followers suspect the leader after a rank-staggered election timeout
  (with deterministic jitter and exponential backoff) and run phase 1
  with a higher ballot of their own residue class.
* **Batched accept rounds.** The leader drains forwarded proposals into
  consecutive instances and ships them as one P2A per follower (capped
  by count and bytes), with its commit watermark piggybacked; a P2B
  acknowledges the whole batch.
* **Contiguous commit watermark.** Followers commit an instance off the
  watermark only when their accepted ballot matches the watermark's
  ballot; otherwise they fetch the chosen entries with LEARN_REQ /
  LEARN_RESP (also the restart catch-up path).
* **Exactly-once, per-sender FIFO delivery.** Every proposal is tagged
  ``(origin, incarnation, oseq)``; learners sequence each origin
  through a cursor + reorder buffer, skipping duplicates (a retransmit
  chosen twice across a leader change) and resetting the cursor when a
  restarted origin's new incarnation first commits. A crashed sender's
  unacknowledged messages may be lost — never reordered or duplicated.

Determinism: all timers run on the simulation clock and all randomness
(election jitter) comes from a ``random.Random`` seeded by ``(cluster
seed, node, subgroup)``, so a seeded run — including its trace
fingerprint — is exactly reproducible (tests/test_chaos_determinism.py).

Durability: with ``PaxosConfig(durable_acceptors=True)`` every promise
and accept is written ahead to a per-endpoint
:class:`~repro.storage.StorageDevice` WAL and fsynced *before* the
corresponding P1B/P2B/P2A leaves the node, and a restarted acceptor
recovers ``(promised, accepted)`` from its WAL instead of rejoining as
a learner-from-zero. That closes the classical safety gap under
arbitrary simultaneous failures — including whole-cluster power loss:
any committed instance has durable accepts on a majority, so every
later phase-1 quorum intersects one and re-proposes the chosen value
(docs/DURABILITY.md). The flag defaults to off, which preserves the
volatile acceptor's event timing (and trace fingerprints) exactly.
"""

from __future__ import annotations

import random
import struct
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..core.config import TimingModel
from ..core.endpoint import OrderingEndpoint
from ..core.multicast import Delivery
from ..core.stats import SubgroupStats
from ..metrics.registry import null_registry
from ..sim.sync import Doorbell
from ..sim.units import us
from .base import OrderingBackend
from .net import MessageTransport, encode_message, wire_transports

__all__ = ["PaxosConfig", "PaxosEndpoint", "PaxosGroup", "PaxosBackend"]

#: entry = (origin, incarnation, oseq, size, payload, queued_at, noop)
_NOOP = (0, 0, 0, 0, None, 0.0, True)

# ---------------------------------------------------------------------------
# Acceptor WAL codec (durable_acceptors mode; docs/DURABILITY.md)
# ---------------------------------------------------------------------------

_WAL_PROMISE, _WAL_ACCEPT, _WAL_INC = 1, 2, 3
_WAL_HDR = struct.Struct("<Bqq")            # (type, a, b)
_WAL_ENTRY = struct.Struct("<iiiidBi")      # origin, inc, oseq, size,
                                            # queued_at, noop, payload_len|-1


def _wal_promise(ballot: int) -> bytes:
    return _WAL_HDR.pack(_WAL_PROMISE, ballot, 0)


def _wal_incarnation(incarnation: int) -> bytes:
    return _WAL_HDR.pack(_WAL_INC, incarnation, 0)


def _wal_accept(inst: int, ballot: int, entry: tuple) -> bytes:
    origin, inc, oseq, size, payload, queued_at, noop = entry
    return (_WAL_HDR.pack(_WAL_ACCEPT, inst, ballot)
            + _WAL_ENTRY.pack(origin, inc, oseq, size, queued_at,
                              1 if noop else 0,
                              -1 if payload is None else len(payload))
            + (payload or b""))


def _wal_decode(body: bytes) -> tuple:
    kind, a, b = _WAL_HDR.unpack_from(body, 0)
    if kind == _WAL_PROMISE:
        return ("prom", a)
    if kind == _WAL_INC:
        return ("inc", a)
    if kind != _WAL_ACCEPT:
        raise ValueError(f"unknown WAL record type {kind}")
    origin, inc, oseq, size, queued_at, noop, plen = _WAL_ENTRY.unpack_from(
        body, _WAL_HDR.size)
    payload: Optional[bytes] = None
    if plen >= 0:
        off = _WAL_HDR.size + _WAL_ENTRY.size
        payload = body[off:off + plen]
        if len(payload) != plen:
            raise ValueError("truncated WAL accept payload")
    entry = (origin, inc, oseq, size, payload, queued_at, bool(noop))
    return ("acc", a, b, entry)


@dataclass(frozen=True)
class PaxosConfig:
    """Protocol constants (simulated seconds).

    Defaults are tuned to the repo's RDMA latency model: one accept
    round is ~2 wire latencies, so leases and retransmit timeouts sit an
    order of magnitude above that.
    """

    #: Leader heartbeat period (lease renewal + watermark gossip).
    heartbeat_period: float = us(150)
    #: Base follower election timeout; the effective timeout is
    #: staggered by member rank and doubled per failed attempt.
    election_timeout: float = us(900)
    #: Uniform jitter added to the effective election timeout.
    election_jitter: float = us(150)
    #: Retransmit timeout: client FWDs and leader P2As.
    retransmit_timeout: float = us(600)
    #: Timer-loop granularity.
    tick_period: float = us(75)
    #: Max instances the leader assigns into one P2A batch.
    max_batch: int = 32
    #: Byte cap for one protocol message's variable part (batches,
    #: phase-1 logs, learn responses are chunked under this).
    max_batch_bytes: int = 64 * 1024
    #: Max instances accepted but not yet committed at the leader.
    leader_pipeline: int = 128
    #: Mailbox (landing region) size; must exceed ``max_batch_bytes``
    #: plus framing.
    mailbox_bytes: int = 128 * 1024
    #: CPU cost of handling one protocol message.
    handle_cost: float = us(0.3)
    #: Write-ahead acceptor state (promises + accepts) to a per-node
    #: storage device and recover it on restart. Off by default: the
    #: volatile acceptor's event schedule — and therefore existing
    #: trace fingerprints — is preserved exactly (docs/DURABILITY.md).
    durable_acceptors: bool = False


class PaxosEndpoint(OrderingEndpoint):
    """One member's proposer+acceptor+learner for one subgroup."""

    has_send_window = False
    view_synchronous = False

    def __init__(self, sim, fabric, subgroup_id: int, members, senders,
                 window: int, config: PaxosConfig, timing: TimingModel,
                 deliver_cb=None, stats: Optional[SubgroupStats] = None,
                 seed: int = 0, delivery_mode: str = "atomic",
                 node_id: Optional[int] = None, device=None):
        if delivery_mode != "atomic":
            raise ValueError("the paxos backend supports atomic delivery only")
        self.delivery_mode = "atomic"
        self.sim = sim
        self.fabric = fabric
        self.subgroup_id = subgroup_id
        self.members = list(members)
        self.senders = list(senders)
        self.S = len(self.senders)
        self.M = len(self.members)
        self.window = window
        self.cfg = config
        self.timing = timing
        self.deliver_cb = deliver_cb
        self.node_id = node_id
        self.latency = fabric.nodes[node_id].latency
        self.stats = stats if stats is not None else SubgroupStats()
        self.my_member_rank = self.members.index(node_id)
        self._rank_of = {n: r for r, n in enumerate(self.senders)}
        self.my_rank: Optional[int] = self._rank_of.get(node_id)
        self.rng = random.Random(
            (seed * 1_000_003) ^ (node_id << 16) ^ (subgroup_id << 8))
        self.transport = MessageTransport(
            fabric, node_id, self.members,
            name=f"paxos{subgroup_id}", on_message=self._on_message,
            mailbox_bytes=config.mailbox_bytes)
        self._doorbell = Doorbell(sim, name=f"paxos{subgroup_id}"
                                            f".pump@{node_id}")
        self.slot_doorbell = Doorbell(sim, name=f"paxos{subgroup_id}"
                                                f".slots@{node_id}")
        #: Acceptor WAL (durable_acceptors mode); None keeps the
        #: classical volatile acceptor.
        self.device = device
        self.incarnation = 0
        self._procs: List[Any] = []
        self._reset_state()

    # ------------------------------------------------------------ lifecycle

    def _reset_state(self) -> None:
        """(Re)initialize all volatile protocol state (fresh start or
        crash-recovery restart)."""
        self._inbox: Deque[Tuple[int, tuple]] = deque()
        #: True when WAL records await an fsync barrier (the pump and
        #: ticker flush before posting any message that depends on them).
        self._wal_dirty = False
        # -- ballots & roles --------------------------------------------------
        self.ballot = 0                      # highest ballot in effect
        self.promised = 0                    # highest ballot promised
        self.is_leader = self.my_member_rank == 0
        self._electing: Optional[int] = None
        self._election_attempts = 0
        self.leader_changes = 0
        self.last_leader_heard = self.sim.now
        self._last_heartbeat = self.sim.now
        # -- acceptor ---------------------------------------------------------
        self.accepted: Dict[int, Tuple[int, tuple]] = {}
        # -- learner ----------------------------------------------------------
        self.committed: Dict[int, tuple] = {}
        self.commit_upto = -1                # contiguous committed prefix
        self.delivered_upto = -1
        self.delivered_count = 0
        self._known_commit_upto = -1
        self._last_learn_req = self.sim.now
        #: per-origin FIFO cursor: (incarnation, next expected oseq).
        self._cursor: List[Tuple[int, int]] = [(0, 0)] * self.S
        self._reorder: List[Dict[Tuple[int, int], tuple]] = [
            {} for _ in range(self.S)]
        self._pending_upcalls = 0
        # -- leader -----------------------------------------------------------
        self.next_inst = 0
        self.pending: Deque[tuple] = deque()
        self._seen_fwd: Set[Tuple[int, int, int]] = set()
        self._p2b_acks: Dict[int, Set[int]] = {}
        self._unacked: Dict[int, List] = {}  # inst -> [entry, last_sent]
        self._p1b_from: Set[int] = set()
        self._p1b_acc: Dict[int, Tuple[int, tuple]] = {}
        self._p1b_com: Dict[int, tuple] = {}
        # -- client (proposer) ------------------------------------------------
        self.next_oseq = 0
        #: oseq -> [size, payload, queued_at, last_sent]
        self.outstanding: Dict[int, List] = {}
        self.wedged = False
        self.finished_sending = False

    def start(self) -> None:
        self._procs = [
            self.sim.spawn(self._pump(),
                           name=f"paxos{self.subgroup_id}.pump@{self.node_id}"),
            self.sim.spawn(self._ticker(),
                           name=f"paxos{self.subgroup_id}.tick@{self.node_id}"),
        ]

    def stop(self) -> None:
        for proc in self._procs:
            if proc.alive:
                proc.kill()
        self._procs = []

    def restart(self) -> None:
        """Crash-recovery rejoin: volatile state is gone; come back as a
        follower under a fresh proposer incarnation and re-learn the
        chosen log from scratch (LEARN_REQ from instance 0).

        With a WAL device (``durable_acceptors``), the acceptor half is
        *not* gone: ``(promised, accepted)`` is recovered from the
        fsynced WAL first, so this node still counts toward the quorum
        intersection that protects previously chosen instances — the
        property whole-cluster power-loss recovery rests on."""
        self.stop()
        incarnation = self.incarnation + 1
        self._reset_state()
        if self.device is not None:
            recovered_inc = self._recover_wal()
            incarnation = max(incarnation, recovered_inc + 1)
            self.device.write(_wal_incarnation(incarnation))
            self._wal_dirty = True
        self.incarnation = incarnation
        self.is_leader = False       # never self-appoint on rejoin
        self.start()
        out = [(self.members[r], ("learnreq", self.my_member_rank, 0))
               for r in range(self.M) if r != self.my_member_rank]
        self._emit(out)

    def _recover_wal(self) -> int:
        """Replay the acceptor WAL (called from ``restart`` with fresh
        volatile state): rebuild ``promised`` and the accepted map,
        return the highest durably recorded incarnation. ``reopen``
        CRC-truncates any torn tail, so a record torn by the crash is
        simply absent — exactly an append that never happened."""
        recovered_inc = 0
        for body in self.device.reopen():
            record = _wal_decode(body)
            if record[0] == "prom":
                self.promised = max(self.promised, record[1])
            elif record[0] == "acc":
                _kind, inst, ballot, entry = record
                current = self.accepted.get(inst)
                if current is None or ballot >= current[0]:
                    self.accepted[inst] = (ballot, entry)
            else:
                recovered_inc = max(recovered_inc, record[1])
        return recovered_inc

    # ------------------------------------------------- durable acceptor state

    def _set_promised(self, ballot: int) -> None:
        """Raise the promise floor, write-ahead when durable. Callers
        flush the WAL before any message conditioned on the promise
        leaves the node (the pump/ticker fsync barrier)."""
        if ballot > self.promised:
            self.promised = ballot
            if self.device is not None:
                self.device.write(_wal_promise(ballot))
                self._wal_dirty = True

    def _record_accept(self, inst: int, ballot: int, entry: tuple) -> None:
        """Accept a value, write-ahead when durable (flushed before the
        acknowledging P2B / the leader's own P2A is posted)."""
        self.accepted[inst] = (ballot, entry)
        if self.device is not None:
            self.device.write(_wal_accept(inst, ballot, entry))
            self._wal_dirty = True

    def _wal_sync(self):
        """Fsync barrier: every WAL record written so far is durable
        when this generator completes."""
        self._wal_dirty = False
        yield from self.device.fsync()

    def teardown(self) -> None:
        self.stop()
        self.transport.teardown()

    # ========================================================== application

    def propose(self, size: int, payload: Optional[bytes] = None):
        """See :meth:`OrderingEndpoint.propose`; the ticket is ``oseq``."""
        if self.my_rank is None:
            raise RuntimeError(f"node {self.node_id} is not a sender in "
                               f"subgroup {self.subgroup_id}")
        if self.wedged:
            raise RuntimeError("subgroup is wedged (no new proposals)")
        blocked = False
        wait_start = self.sim.now
        while len(self.outstanding) >= self.window:
            if not blocked:
                blocked = True
                self.stats.record_blocked_send()
            yield self.slot_doorbell.wait()
            if self.wedged:
                raise RuntimeError("subgroup wedged while awaiting a slot")
        if blocked:
            self.stats.add_sender_wait(self.sim.now - wait_start)
        yield self.timing.message_construct
        oseq = self.next_oseq
        self.next_oseq += 1
        now = self.sim.now
        self.outstanding[oseq] = [size, payload, now, now]
        self.stats.record_send(now)
        yield self.latency.post_overhead
        self._emit([self._forward(oseq)])
        return oseq

    #: Workload generators call ``mc.send``; same contract here.
    send = propose

    def mark_finished(self) -> None:
        self.finished_sending = True

    def wedge(self) -> None:
        """Stop initiating proposals. Outstanding ones still resolve
        (commit via the quorum), so wedged members settle on
        order-consistent logs."""
        self.wedged = True
        self.slot_doorbell.ring()

    def stable_prefix(self) -> int:
        return self.commit_upto

    def window_in_use(self) -> int:
        return len(self.outstanding)

    def congestion(self) -> float:
        if self.wedged:
            return 1.0
        return min(1.0, len(self.outstanding) / self.window)

    def leader_member_rank(self) -> int:
        return self.ballot % self.M

    # ============================================================ processes

    def _pump(self):
        """The protocol thread: drain the inbox, run leader duties."""
        cfg = self.cfg
        while True:
            progressed = False
            while self._inbox:
                progressed = True
                src, message = self._inbox.popleft()
                yield cfg.handle_cost
                out = self._handle(src, message)
                if self._pending_upcalls:
                    yield self._pending_upcalls * self.timing.delivery_upcall
                    self._pending_upcalls = 0
                if self._wal_dirty:
                    # Write-ahead barrier: promises/accepts must be
                    # durable before the P1B/P2B they condition leaves.
                    yield from self._wal_sync()
                yield from self._post_all(out)
            batch_out = self._leader_assign()
            if batch_out:
                progressed = True
                if self._wal_dirty:
                    yield from self._wal_sync()  # leader's self-accepts
                yield from self._post_all(batch_out)
            if not progressed and not self._inbox:
                yield self._doorbell.wait()

    def _ticker(self):
        """Timers: heartbeats, elections, retransmits, catch-up."""
        # Deterministic per-rank stagger so ticks never run in lockstep.
        yield self.cfg.tick_period * (self.my_member_rank + 1) / (self.M + 1)
        while True:
            out = self._on_tick()
            if self._wal_dirty:
                yield from self._wal_sync()  # election-start promises
            yield from self._post_all(out)
            yield self.cfg.tick_period

    def _post_all(self, out):
        """Send from a simulated thread: one post-CPU charge per write."""
        for dst, message in out:
            if dst == self.node_id:
                self._inbox.append((self.node_id, message))
                self._doorbell.ring()
            else:
                yield self.latency.post_overhead
                self.transport.send(dst, message)

    def _emit(self, out) -> None:
        """Send from plain-callback context (propose's tail, restart):
        no CPU account to charge against, posts go straight out."""
        for dst, message in out:
            if dst == self.node_id:
                self._inbox.append((self.node_id, message))
                self._doorbell.ring()
            else:
                self.transport.send(dst, message)

    def _on_message(self, src: int, message: tuple) -> None:
        self._inbox.append((src, message))
        self._doorbell.ring()

    # ====================================================== message handlers

    def _handle(self, src: int, message: tuple) -> List[Tuple[int, tuple]]:
        kind = message[0]
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            raise ValueError(f"unknown paxos message kind {kind!r}")
        return handler(src, message) or []

    def _others(self) -> List[int]:
        return [n for n in self.members if n != self.node_id]

    def _majority(self) -> int:
        return self.M // 2 + 1

    # -- forwarding (client -> leader) --------------------------------------

    def _forward(self, oseq: int) -> Tuple[int, tuple]:
        size, payload, queued_at, _last = self.outstanding[oseq]
        self.outstanding[oseq][3] = self.sim.now
        leader_node = self.members[self.leader_member_rank()]
        return (leader_node, ("fwd", self.my_rank, self.incarnation, oseq,
                              size, payload, queued_at))

    def _on_fwd(self, src, message):
        _kind, origin, inc, oseq, size, payload, queued_at = message
        if not self.is_leader:
            return []  # stale leader belief; the client retransmits
        cursor_inc, cursor_next = self._cursor[origin]
        if inc < cursor_inc or (inc == cursor_inc and oseq < cursor_next):
            return []  # already delivered
        key = (origin, inc, oseq)
        if key in self._seen_fwd:
            return []  # already assigned an instance
        self._seen_fwd.add(key)
        self.pending.append((origin, inc, oseq, size, payload, queued_at,
                             False))
        return []

    # -- phase 2 -------------------------------------------------------------

    def _leader_assign(self) -> List[Tuple[int, tuple]]:
        """Drain pending proposals into instances; one batched P2A."""
        if not self.is_leader or not self.pending:
            return []
        if len(self._unacked) >= self.cfg.leader_pipeline:
            return []
        batch: List[Tuple[int, tuple]] = []
        batch_bytes = 0
        while (self.pending and len(batch) < self.cfg.max_batch
               and len(self._unacked) < self.cfg.leader_pipeline):
            entry = self.pending[0]
            entry_bytes = (entry[3] or 0) + 64
            if batch and batch_bytes + entry_bytes > self.cfg.max_batch_bytes:
                break
            self.pending.popleft()
            batch_bytes += entry_bytes
            inst = self.next_inst
            self.next_inst += 1
            self._self_accept(inst, entry)
            batch.append((inst, entry))
        if not batch:
            return []
        message = ("p2a", self.ballot, self.commit_upto, tuple(batch))
        return [(dst, message) for dst in self._others()]

    def _self_accept(self, inst: int, entry: tuple) -> None:
        self._record_accept(inst, self.ballot, entry)
        self._p2b_acks[inst] = {self.my_member_rank}
        self._unacked[inst] = [entry, self.sim.now]
        if self._majority() == 1:
            self._leader_commit([inst])

    def _on_p2a(self, src, message):
        _kind, ballot, commit_upto, batch = message
        if ballot < self.promised:
            return []
        self._observe_ballot(ballot)
        self.last_leader_heard = self.sim.now
        for inst, entry in batch:
            self._record_accept(inst, ballot, entry)
        out = [(src, ("p2b", ballot, self.my_member_rank,
                      tuple(inst for inst, _e in batch)))]
        out.extend(self._advance_commit(commit_upto, ballot))
        return out

    def _on_p2b(self, src, message):
        _kind, ballot, member_rank, insts = message
        if not self.is_leader or ballot != self.ballot:
            return []
        chosen: List[int] = []
        for inst in insts:
            acks = self._p2b_acks.get(inst)
            if acks is None:
                continue
            acks.add(member_rank)
            if len(acks) >= self._majority():
                chosen.append(inst)
        return self._leader_commit(chosen)

    def _leader_commit(self, chosen: List[int]) -> List[Tuple[int, tuple]]:
        for inst in chosen:
            self.committed[inst] = self.accepted[inst][1]
            self._p2b_acks.pop(inst, None)
            self._unacked.pop(inst, None)
        before = self.commit_upto
        while self.commit_upto + 1 in self.committed:
            self.commit_upto += 1
        if self.commit_upto == before:
            return []
        self._known_commit_upto = max(self._known_commit_upto,
                                      self.commit_upto)
        self._deliver_ready()
        message = ("commit", self.ballot, self.commit_upto)
        return [(dst, message) for dst in self._others()]

    def _on_commit(self, src, message):
        _kind, ballot, upto = message
        if ballot >= self.ballot:
            self._observe_ballot(ballot)
            self.last_leader_heard = self.sim.now
        return self._advance_commit(upto, ballot)

    def _on_hb(self, src, message):
        _kind, ballot, upto = message
        if ballot < self.ballot:
            return []
        self._observe_ballot(ballot)
        self.last_leader_heard = self.sim.now
        self._election_attempts = 0
        return self._advance_commit(upto, ballot)

    def _advance_commit(self, upto: int, ballot: int
                        ) -> List[Tuple[int, tuple]]:
        """Commit instances covered by a leader watermark, but only
        where the locally accepted ballot matches — mismatches (we
        missed the chosen value) fall back to LEARN_REQ."""
        self._known_commit_upto = max(self._known_commit_upto, upto)
        for inst in range(self.commit_upto + 1, upto + 1):
            if inst in self.committed:
                continue
            acc = self.accepted.get(inst)
            if acc is not None and acc[0] == ballot:
                self.committed[inst] = acc[1]
        while self.commit_upto + 1 in self.committed:
            self.commit_upto += 1
        self._deliver_ready()
        if self.commit_upto < self._known_commit_upto:
            return self._learn_request()
        return []

    # -- phase 1 (elections) -------------------------------------------------

    def _next_ballot(self) -> int:
        floor = max(self.ballot, self.promised, self._electing or 0)
        ballot = (floor // self.M + 1) * self.M + self.my_member_rank
        while ballot <= floor:
            ballot += self.M
        return ballot

    def _start_election(self) -> List[Tuple[int, tuple]]:
        ballot = self._next_ballot()
        self._electing = ballot
        self._set_promised(ballot)
        self._election_attempts += 1
        self.last_leader_heard = self.sim.now
        self._p1b_from = {self.my_member_rank}
        self._p1b_acc = {inst: acc for inst, acc in self.accepted.items()
                         if inst > self.commit_upto}
        self._p1b_com = {}
        if len(self._p1b_from) >= self._majority():
            return self._become_leader()
        message = ("p1a", ballot, self.commit_upto)
        return [(dst, message) for dst in self._others()]

    def _on_p1a(self, src, message):
        _kind, ballot, peer_upto = message
        if ballot <= self.promised:
            return []
        self._set_promised(ballot)
        if self.is_leader and ballot > self.ballot:
            self.is_leader = False
        self.last_leader_heard = self.sim.now  # damp dueling elections
        acc_items = []
        for inst in sorted(self.accepted):
            if inst > max(peer_upto, self.commit_upto):
                aballot, entry = self.accepted[inst]
                acc_items.append((inst, aballot, entry))
        com_items = []
        budget = self.cfg.max_batch_bytes
        for inst in range(peer_upto + 1, self.commit_upto + 1):
            entry = self.committed[inst]
            budget -= (entry[3] or 0) + 64
            if budget < 0:
                break  # the rest flows through learnreq once it leads
            com_items.append((inst, entry))
        return [(src, ("p1b", ballot, self.my_member_rank, self.commit_upto,
                       tuple(acc_items), tuple(com_items)))]

    def _on_p1b(self, src, message):
        _kind, ballot, member_rank, peer_upto, acc_items, com_items = message
        if self._electing != ballot:
            return []
        self._p1b_from.add(member_rank)
        for inst, entry in com_items:
            self._p1b_com.setdefault(inst, entry)
        for inst, aballot, entry in acc_items:
            current = self._p1b_acc.get(inst)
            if current is None or aballot > current[0]:
                self._p1b_acc[inst] = (aballot, entry)
        self._known_commit_upto = max(self._known_commit_upto, peer_upto)
        if len(self._p1b_from) >= self._majority():
            return self._become_leader()
        return []

    def _become_leader(self) -> List[Tuple[int, tuple]]:
        self.ballot = self._electing
        self._set_promised(self.ballot)
        self._electing = None
        self._election_attempts = 0
        self.is_leader = True
        self.leader_changes += 1
        self.last_leader_heard = self.sim.now
        for inst, entry in self._p1b_com.items():
            self.committed.setdefault(inst, entry)
        while self.commit_upto + 1 in self.committed:
            self.commit_upto += 1
        self._deliver_ready()
        # Re-propose every surviving accepted value above the watermark
        # under the new ballot; plug true gaps with noops.
        recover = {inst: acc[1] for inst, acc in self._p1b_acc.items()
                   if inst > self.commit_upto and inst not in self.committed}
        top = max([self.commit_upto] + list(recover)
                  + [inst for inst in self.committed])
        self.next_inst = top + 1
        self._p2b_acks.clear()
        self._unacked.clear()
        self._seen_fwd = {(e[0], e[1], e[2])
                          for e in self.committed.values() if not e[6]}
        batch: List[Tuple[int, tuple]] = []
        for inst in range(self.commit_upto + 1, self.next_inst):
            if inst in self.committed:
                continue
            entry = recover.get(inst, _NOOP)
            if not entry[6]:
                self._seen_fwd.add((entry[0], entry[1], entry[2]))
            self._self_accept(inst, entry)
            batch.append((inst, entry))
        out = []
        if batch:
            message = ("p2a", self.ballot, self.commit_upto, tuple(batch))
            out.extend((dst, message) for dst in self._others())
        hb = ("hb", self.ballot, self.commit_upto)
        out.extend((dst, hb) for dst in self._others())
        self._last_heartbeat = self.sim.now
        return out

    def _observe_ballot(self, ballot: int) -> None:
        if ballot > self.ballot:
            self.ballot = ballot
            self._set_promised(ballot)
            self.is_leader = False
            self._electing = None

    # -- catch-up ------------------------------------------------------------

    def _learn_request(self) -> List[Tuple[int, tuple]]:
        self._last_learn_req = self.sim.now
        target = self.members[self.leader_member_rank()]
        if target == self.node_id:
            return []
        return [(target, ("learnreq", self.my_member_rank,
                          self.commit_upto + 1))]

    def _on_learnreq(self, src, message):
        _kind, member_rank, from_inst = message
        items = []
        budget = self.cfg.max_batch_bytes
        for inst in range(from_inst, self.commit_upto + 1):
            entry = self.committed[inst]
            budget -= (entry[3] or 0) + 64
            if budget < 0:
                break
            items.append((inst, entry))
        if not items and self.commit_upto < from_inst:
            return []
        return [(self.members[member_rank],
                 ("learnresp", self.commit_upto, tuple(items)))]

    def _on_learnresp(self, src, message):
        _kind, upto, items = message
        for inst, entry in items:
            self.committed.setdefault(inst, entry)
        self._known_commit_upto = max(self._known_commit_upto, upto)
        while self.commit_upto + 1 in self.committed:
            self.commit_upto += 1
        self._deliver_ready()
        if self.commit_upto < self._known_commit_upto:
            return self._learn_request()
        return []

    # -- timers --------------------------------------------------------------

    def _on_tick(self) -> List[Tuple[int, tuple]]:
        now = self.sim.now
        cfg = self.cfg
        out: List[Tuple[int, tuple]] = []
        if self.is_leader:
            self.last_leader_heard = now
            if now - self._last_heartbeat >= cfg.heartbeat_period:
                self._last_heartbeat = now
                hb = ("hb", self.ballot, self.commit_upto)
                out.extend((dst, hb) for dst in self._others())
            retrans: List[Tuple[int, tuple]] = []
            for inst in sorted(self._unacked):
                entry, last = self._unacked[inst]
                if now - last >= cfg.retransmit_timeout:
                    self._unacked[inst][1] = now
                    retrans.append((inst, entry))
                if len(retrans) >= cfg.max_batch:
                    break
            if retrans:
                message = ("p2a", self.ballot, self.commit_upto,
                           tuple(retrans))
                out.extend((dst, message) for dst in self._others())
        elif self.M > 1:
            backoff = 2 ** min(self._election_attempts, 4)
            timeout = (cfg.election_timeout
                       * (1 + 0.5 * self.my_member_rank) * backoff
                       + self.rng.random() * cfg.election_jitter)
            if now - self.last_leader_heard >= timeout:
                out.extend(self._start_election())
        # client retransmits (leader change / lost forwards)
        for oseq in sorted(self.outstanding):
            size, payload, queued_at, last = self.outstanding[oseq]
            if now - last >= cfg.retransmit_timeout:
                out.append(self._forward(oseq))
        # learner catch-up nudge
        if (self.commit_upto < self._known_commit_upto
                and now - self._last_learn_req >= cfg.retransmit_timeout):
            out.extend(self._learn_request())
        return out

    # ============================================================= delivery

    def _deliver_ready(self) -> None:
        """Walk newly committed instances; sequence per-origin FIFO."""
        while self.delivered_upto < self.commit_upto:
            self.delivered_upto += 1
            entry = self.committed[self.delivered_upto]
            if entry[6]:
                self.stats.record_null_skipped()
                continue
            self._sequence(entry)

    def _sequence(self, entry: tuple) -> None:
        origin, inc, oseq = entry[0], entry[1], entry[2]
        cursor_inc, cursor_next = self._cursor[origin]
        if inc < cursor_inc or (inc == cursor_inc and oseq < cursor_next):
            return  # duplicate (chosen twice across a leader change)
        buffer = self._reorder[origin]
        if (inc, oseq) in buffer:
            return
        buffer[(inc, oseq)] = entry
        if inc > cursor_inc:
            # The origin restarted: flush what remains of the old
            # incarnation in oseq order (its tail may be lost — that is
            # a crashed sender's prerogative), then start the new one.
            for key in sorted(k for k in buffer if k[0] == cursor_inc):
                self._deliver(buffer.pop(key))
            cursor_inc, cursor_next = inc, 0
        while (cursor_inc, cursor_next) in buffer:
            self._deliver(buffer.pop((cursor_inc, cursor_next)))
            cursor_next += 1
        self._cursor[origin] = (cursor_inc, cursor_next)

    def _deliver(self, entry: tuple) -> None:
        origin, inc, oseq, size, payload, queued_at, _noop = entry
        seq = self.delivered_count
        self.delivered_count += 1
        self.stats.record_delivery(self.sim.now, origin, size, queued_at)
        self._pending_upcalls += 1
        if origin == self.my_rank and inc == self.incarnation:
            if self.outstanding.pop(oseq, None) is not None:
                self.slot_doorbell.ring()
        if self.deliver_cb is not None:
            self.deliver_cb(Delivery(self.subgroup_id, self.senders[origin],
                                     origin, seq, payload, size))

    def __repr__(self) -> str:
        role = "leader" if self.is_leader else "follower"
        return (f"<PaxosEndpoint sg{self.subgroup_id}@{self.node_id} "
                f"{role} b={self.ballot} commit={self.commit_upto}>")


class PaxosGroup:
    """One node's Paxos stack for a view — mirrors the
    :class:`~repro.core.group.GroupNode` surface the cluster, apps and
    tracers rely on (see :class:`~repro.ordering.base.OrderingBackend`).
    """

    def __init__(self, sim, fabric, rdma_node, view, config: PaxosConfig,
                 timing: TimingModel, metrics=None, seed: int = 0,
                 storage=None):
        self.sim = sim
        self.fabric = fabric
        self.rdma_node = rdma_node
        self.node_id = rdma_node.node_id
        self.view = view
        self.config = config
        self.timing = timing
        self.metrics = metrics if metrics is not None else null_registry()
        self.membership = None
        self.persistence: Dict[int, Any] = {}
        scope = self.metrics.scoped(node=self.node_id, view=view.view_id)
        self.multicasts: Dict[int, PaxosEndpoint] = {}
        self._delivery_callbacks: Dict[int, List] = {}
        for sg in view.subgroups:
            if self.node_id not in sg.members:
                continue
            # The acceptor WAL lives on cluster stable storage so it
            # survives crashes and epoch restarts (durable mode only).
            device = (storage.device(self.node_id, f"paxos{sg.subgroup_id}")
                      if config.durable_acceptors and storage is not None
                      else None)
            self.multicasts[sg.subgroup_id] = PaxosEndpoint(
                sim, fabric, sg.subgroup_id, sg.members, sg.senders,
                window=sg.window, config=config, timing=timing,
                deliver_cb=self._make_dispatcher(sg.subgroup_id),
                stats=SubgroupStats(registry=scope, node=self.node_id,
                                    subgroup=sg.subgroup_id),
                seed=seed, delivery_mode=sg.delivery_mode,
                node_id=self.node_id, device=device)
            self._delivery_callbacks[sg.subgroup_id] = []

    def _make_dispatcher(self, subgroup_id: int):
        def dispatch(delivery: Delivery) -> None:
            for callback in self._delivery_callbacks[subgroup_id]:
                callback(delivery)

        return dispatch

    # ------------------------------------------------------------ public API

    def subgroup(self, subgroup_id: int) -> PaxosEndpoint:
        return self.multicasts[subgroup_id]

    def on_delivery(self, subgroup_id: int, callback) -> None:
        self._delivery_callbacks[subgroup_id].append(callback)

    def stats(self, subgroup_id: int) -> SubgroupStats:
        return self.multicasts[subgroup_id].stats

    def start(self) -> None:
        for endpoint in self.multicasts.values():
            endpoint.start()

    def stop(self) -> None:
        for endpoint in self.multicasts.values():
            endpoint.stop()

    def kill(self) -> None:
        self.stop()

    def handle_restart(self) -> None:
        """Crash-recovery: respawn every endpoint as a fresh-incarnation
        follower that re-learns the log (docs/ORDERING.md)."""
        for endpoint in self.multicasts.values():
            endpoint.restart()

    def teardown(self) -> None:
        for endpoint in self.multicasts.values():
            endpoint.teardown()

    def protocol_processes(self, scope: str = "node") -> List[Any]:
        """Live protocol threads, for fault-plane stalls."""
        procs = []
        for endpoint in self.multicasts.values():
            procs.extend(p for p in endpoint._procs if p.alive)
        return procs

    def __repr__(self) -> str:
        return f"<PaxosGroup {self.node_id} view={self.view.view_id}>"


class PaxosBackend(OrderingBackend):
    """``Cluster(backend="paxos")``: the Multi-Paxos baseline."""

    name = "paxos"
    view_synchronous = False
    quiesces = False

    def __init__(self, config: Optional[PaxosConfig] = None):
        self.config = config if config is not None else PaxosConfig()

    def build_groups(self, cluster, view) -> Dict[int, PaxosGroup]:
        groups = {}
        for node_id in view.members:
            groups[node_id] = PaxosGroup(
                cluster.sim, cluster.fabric, cluster.fabric.nodes[node_id],
                view, self.config, cluster.timing, metrics=cluster.metrics,
                seed=cluster.seed, storage=cluster.storage)
        for sg in view.subgroups:
            wire_transports({
                node_id: groups[node_id].multicasts[sg.subgroup_id].transport
                for node_id in sg.members})
        return groups

    def on_node_restart(self, cluster, node_id: int) -> None:
        group = cluster.groups.get(node_id)
        if group is not None:
            group.handle_restart()
