"""The Derecho atomic multicast protocol with the Spindle optimizations.

One :class:`SubgroupMulticast` object is one node's protocol endpoint in
one subgroup. It owns the sender-side ring-buffer bookkeeping, the
receiver-side per-sender scan state, and the three predicates of §2.4
(send, receive, delivery), in both their baseline (pre-Spindle) and
optimized (§3.2–§3.4) forms, selected by
:class:`~repro.core.config.SpindleConfig`:

* ``batch_send``   — send trigger pushes *all* queued messages (≤ 2 RDMA
  writes per member) vs. one message per trigger.
* ``batch_receive`` — receive trigger sweeps every sender's slots and
  acknowledges once vs. consuming a single message and acknowledging it.
* ``batch_delivery`` — delivery trigger delivers every stable message
  and acknowledges once vs. one message per trigger.
* ``null_sends``   — §3.3 null-send scheme (see below).
* ``early_lock_release`` — handled by the predicate thread (§3.4): the
  trigger returns its RDMA posts as a deferred generator.

Round/sequence bookkeeping
--------------------------

Every message (application or null) from the sender with rank ``j``
occupies one *round* ``k``; its global sequence number is
``k * S + j`` (S = number of senders), which is exactly the paper's
round-robin total order. Application ("real") messages additionally
carry a per-sender ``real_index`` that determines their ring slot.

Nulls are announced through a monotonic per-subgroup SST counter rather
than by occupying ring slots — the paper's "sends the determined number
of nulls as a single integer" (§3.3). Because a node's SST pushes and
slot pushes travel on the same queue pair (FIFO), a receiver's covered
round count for sender ``j`` is simply
``reals_received[j] + nulls_seen[j]``, and the covered rounds are always
the contiguous prefix ``0..covered-1``.

The null-send rule is the paper's: on receiving message ``M(j, k)``,
a sender with rank ``i`` and current round ``l`` sends a null iff that
null would precede ``M(j, k)`` in the delivery order, i.e.
``l < k or (l == k and i < j)``. Nulls are only assigned when the sender
has no queued-but-unsent application messages; this preserves the
invariant that round announcements reach peers in round order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Sequence, Tuple

from ..metrics.stages import (
    STAGE_DELIVERY_PREDICATE,
    STAGE_RECEIVE_PREDICATE,
    STAGE_SEND_PREDICATE,
)
from ..predicates.framework import Predicate, PredicateThread
from ..sim.engine import AtTime, Simulator
from ..sim.sync import Doorbell
from ..smc.multicast import SMC, SubgroupColumns
from ..smc.ring import SlotValue, contiguous_seq, seq_of
from ..sst.table import SST
from .config import SpindleConfig, TimingModel
from .endpoint import OrderingEndpoint
from .stats import SubgroupStats

__all__ = ["SubgroupMulticast", "Delivery"]


class Delivery:
    """One delivered application message as handed to the upcall."""

    __slots__ = ("subgroup_id", "sender", "sender_rank", "seq", "payload", "size")

    def __init__(self, subgroup_id: int, sender: int, sender_rank: int,
                 seq: int, payload: Optional[bytes], size: int):
        self.subgroup_id = subgroup_id
        self.sender = sender
        self.sender_rank = sender_rank
        self.seq = seq
        self.payload = payload
        self.size = size

    def __repr__(self) -> str:
        return (f"<Delivery sg{self.subgroup_id} seq={self.seq} "
                f"from={self.sender} {self.size}B>")


class SubgroupMulticast(OrderingEndpoint):
    """One node's atomic multicast endpoint in one subgroup.

    The Spindle implementation of the
    :class:`~repro.core.endpoint.OrderingEndpoint` contract
    (docs/ORDERING.md): :meth:`propose` is :meth:`send`, the stable
    prefix is the min received column, and congestion is ring-window
    occupancy."""

    has_send_window = True
    view_synchronous = True

    def __init__(
        self,
        sim: Simulator,
        sst: SST,
        cols: SubgroupColumns,
        subgroup_id: int,
        members: Sequence[int],
        senders: Sequence[int],
        config: SpindleConfig,
        timing: TimingModel,
        thread: PredicateThread,
        deliver_cb: Optional[Callable[[Delivery], None]] = None,
        stats: Optional[SubgroupStats] = None,
        delivery_mode: str = "atomic",
        extra_delivery_cost: Optional[Callable[[int], float]] = None,
    ):
        if not senders:
            raise ValueError("subgroup needs at least one sender")
        if any(s not in members for s in senders):
            raise ValueError("senders must be subgroup members")
        if delivery_mode not in ("atomic", "unordered"):
            raise ValueError(f"unknown delivery mode {delivery_mode!r}")
        self.delivery_mode = delivery_mode
        #: Per-message application-side delivery cost hook (seconds as a
        #: function of payload size) — used by the DDS storage QoS levels.
        self.extra_delivery_cost = extra_delivery_cost
        self.sim = sim
        self.sst = sst
        self.cols = cols
        self.subgroup_id = subgroup_id
        self.members = list(members)
        self.senders = list(senders)
        self.S = len(senders)
        self.window = cols.window
        self.config = config
        self.timing = timing
        self.thread = thread
        self.deliver_cb = deliver_cb
        self.stats = stats if stats is not None else SubgroupStats()
        self.smc = SMC(sst, cols, members, metrics=self.stats.scope)
        self.node_id = sst.node_id
        self._rank_of = {node: rank for rank, node in enumerate(self.senders)}
        self.my_rank: Optional[int] = self._rank_of.get(self.node_id)

        # -- sender-side state (meaningful only if my_rank is not None) -------
        self.next_round = 0        # rounds assigned (reals queued + nulls)
        self.reals_queued = 0      # application messages placed in slots
        self.reals_pushed = 0      # application messages sent via RDMA
        self.nulls_announced = 0   # own nulls counter (mirrors SST cell)
        #: own queued-but-not-globally-delivered reals: (real_index, seq)
        self.own_inflight: Deque[Tuple[int, int]] = deque()
        #: set by the workload when it will send no more (flushes the
        #: fixed-batch ablation; harmless otherwise).
        self.finished_sending = False
        #: wedged by the view-change protocol: no new sends.
        self.wedged = False
        #: woken when delivery progress may have freed ring slots.
        self.slot_doorbell = Doorbell(sim, name=f"sg{subgroup_id}.slots@{self.node_id}")
        #: The column minimum that gates own slot reuse (§2.3): the
        #: members' delivered_num, or in unordered mode the members'
        #: receive acks for this sender (None on a non-sender there).
        self.slot_watermark = None
        if delivery_mode == "atomic":
            self.slot_watermark = sst.watermark(cols.delivered, self.members)
        elif self.my_rank is not None:
            self.slot_watermark = sst.watermark(cols.recv_from(self.my_rank),
                                                self.members)

        # -- receiver-side state ----------------------------------------------
        self.reals_received = [0] * self.S
        self.nulls_seen = [0] * self.S
        self.pending: List[Deque[SlotValue]] = [deque() for _ in range(self.S)]
        self.received_seq = -1
        self.delivered_seq = -1
        #: min of the members' received_num: the stable prefix (§2.4).
        self.received_watermark = sst.watermark(cols.received, self.members)
        #: Bumped whenever the receive trigger mutates its scan state
        #: (reals_received / nulls_seen) — part of the receive
        #: predicate's memoization token, covering the inputs that can
        #: change without any SST row being written.
        self.recv_generation = 0

        # -- predicates ---------------------------------------------------------
        self.send_predicate = _SendPredicate(self)
        self.receive_predicate = _ReceivePredicate(self)
        self.delivery_predicate = _DeliveryPredicate(self)

    def register_predicates(self) -> None:
        """Register this subgroup's predicates with the polling thread.

        Order matters for fairness accounting only; the paper evaluates
        all subgroups' predicates in a fixed cyclic order.
        """
        if self.my_rank is not None:
            self.thread.register(self.send_predicate)
        self.thread.register(self.receive_predicate)
        if self.delivery_mode == "atomic":
            # Unordered mode delivers in the receive trigger; there is
            # no stability stage.
            self.thread.register(self.delivery_predicate)

    # ======================================================================
    # Application-thread API (simulated generators)
    # ======================================================================

    def send(self, size: int, payload: Optional[bytes] = None
             ) -> Generator[Any, Any, int]:
        """Send one atomic multicast: claim a slot, construct the message
        in place, queue it for the send predicate.

        A generator for the application's sender thread to ``yield
        from``. Returns the message's ``real_index``. Blocks (in
        simulated time) while the ring window is full. Raises
        ``RuntimeError`` at first resumption once wedged (the
        conformance contract; a wedge mid-wait still raises from
        :meth:`queue_message`).
        """
        if self.wedged:
            raise RuntimeError("subgroup is wedged (view change in progress)")
        yield from self.claim_slot()
        cost = self.timing.message_construct
        if self.config.copy_on_send:
            cost += self.timing.memcpy_time(size)
        yield cost
        real_index = yield from self.queue_message(size, payload)
        return real_index

    #: Backend-generic alias: the returned ``real_index`` is this
    #: sender's 0-based ticket, as :meth:`OrderingEndpoint.propose`
    #: requires (round-robin order delivers each sender's reals in
    #: real_index order, exactly once).
    propose = send

    def claim_slot(self) -> Generator[Any, Any, int]:
        """Wait until the ring slot for the next message is reusable.

        A slot is free when the message that last used it has been
        delivered by *every* member (§2.3). Lock-free: reads only
        monotonic SST state and sender-thread-private bookkeeping.
        """
        blocked = False
        wait_start = self.sim.now
        while True:
            self._reap_acked()
            if len(self.own_inflight) < self.window:
                break
            if not blocked:
                blocked = True
                self.stats.record_blocked_send()
            yield self.slot_doorbell.wait()
        if blocked:
            # §4.1.1 sender wait == the send_slot_acquire stage timer.
            self.stats.add_sender_wait(self.sim.now - wait_start)
        return self.reals_queued

    def queue_message(self, size: int, payload: Optional[bytes]
                      ) -> Generator[Any, Any, int]:
        """Place a constructed message in its slot and mark it ready.

        Takes the shared lock: the slot counter, round assignment and
        queued count are shared with the predicate thread (§2.4).
        """
        if self.my_rank is None:
            raise RuntimeError(f"node {self.node_id} is not a sender in "
                               f"subgroup {self.subgroup_id}")
        if self.wedged:
            raise RuntimeError("subgroup is wedged (view change in progress)")
        timing = self.timing
        thread = self.thread
        if thread.fastpath and thread.lock.acquire_nowait():
            # Folded fast path (optimized engine): same grant instant,
            # same body instant t_a = now + lock_op, same release instant
            # t_c = (t_a + send_queue_cost) + lock_op — in two scheduler
            # turns instead of four (see docs/ENGINE.md).
            t_a = self.sim.now + timing.lock_op
            yield AtTime(t_a)
            real_index = self._queue_message_body(size, payload)
            yield AtTime((t_a + timing.send_queue_cost) + timing.lock_op)
            thread.lock.release()
            thread.doorbell.ring()
            return real_index
        yield thread.lock.acquire()
        yield timing.lock_op
        real_index = self._queue_message_body(size, payload)
        yield timing.send_queue_cost
        yield timing.lock_op
        thread.lock.release()
        thread.doorbell.ring()
        return real_index

    def _queue_message_body(self, size: int, payload: Optional[bytes]) -> int:
        """The under-lock slot assignment (shared by both lock paths).

        Both callers hold ``thread.lock``; the fast path acquires it
        via ``acquire_nowait``, which the static lockset pass does not
        model as an acquire."""
        round_index = self.next_round
        self.next_round += 1  # spindle-lint: allow[lockset-unprotected-write]
        real_index = self.reals_queued
        self.reals_queued += 1
        slot = SlotValue(real_index, round_index, size, payload, self.sim.now)
        self.smc.write_slot(slot)
        self.own_inflight.append(
            (real_index, seq_of(round_index, self.my_rank, self.S))
        )
        self.stats.record_send(self.sim.now)
        return real_index

    def declare_inactive(self, rounds: int) -> Generator[Any, Any, None]:
        """§3.3: declare a known period of inactivity by announcing
        ``rounds`` nulls at once, letting peers' deliveries skip over
        this sender without waiting."""
        if self.my_rank is None:
            raise RuntimeError("only senders can declare inactivity")
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        yield self.thread.lock.acquire()
        if self.reals_queued != self.reals_pushed:
            # Queued-but-unsent reals must keep their round ordering.
            self.thread.lock.release()
            raise RuntimeError("cannot declare inactivity with queued sends")
        self._announce_nulls(rounds)
        self.thread.lock.release()
        yield from self.smc.push_control()

    def mark_finished(self) -> None:
        """Tell the protocol this node will send no more (workload end)."""
        self.finished_sending = True
        self.thread.doorbell.ring()

    # ======================================================================
    # View-change support (called by the membership protocol)
    # ======================================================================

    def wedge(self) -> None:
        """Stop initiating multicasts (view change in progress)."""
        self.wedged = True

    def force_deliver_up_to(self, trim: int) -> int:
        """Ragged-edge cleanup: deliver every message with seq <= trim.

        The view-change leader guarantees trim = min over survivors of
        received_num, so this node necessarily holds all these messages;
        no per-message stability check is needed (or possible — failed
        members will never acknowledge). Returns the number of
        application messages delivered.
        """
        delivered = 0
        s = self.delivered_seq
        while s < trim:
            s += 1
            rank = s % self.S
            k = s // self.S
            dq = self.pending[rank]
            if dq and dq[0].round_index == k:
                slot = dq.popleft()
                self.stats.record_delivery(
                    self.sim.now, rank, slot.size, slot.queued_at
                )
                if self.deliver_cb is not None:
                    self.deliver_cb(Delivery(
                        self.subgroup_id, self.senders[rank], rank, s,
                        slot.payload, slot.size,
                    ))
                delivered += 1
            else:
                self.stats.record_null_skipped()
        if s > self.delivered_seq:
            self.delivered_seq = s
            self.sst.set(self.cols.delivered, s)
        return delivered

    def undelivered_own_messages(self) -> List[SlotValue]:
        """Own messages not delivered by the view that ended — the ones
        virtual synchrony requires the application to resend in the next
        view (paper §2.1)."""
        result = []
        for real_index, seq in self.own_inflight:
            if seq > self.delivered_seq:
                slot = self.smc.read_slot(self.node_id, real_index)
                if slot is not None and slot.real_index == real_index:
                    result.append(slot)
        return result

    # ======================================================================
    # Internals shared by predicates
    # ======================================================================

    def _reap_acked(self) -> None:
        """Pop own messages whose slots may be reused.

        Atomic mode: reusable once delivered by every member (§2.3).
        Unordered mode: reusable once *received* by every member (the
        per-sender ack columns)."""
        if not self.own_inflight:
            return
        inflight = self.own_inflight
        limit = self.slot_watermark.read()
        if self.delivery_mode == "unordered":
            while inflight and inflight[0][0] < limit:
                inflight.popleft()
            return
        while inflight and inflight[0][1] <= limit:
            inflight.popleft()

    def _covered(self, rank: int) -> int:
        """Rounds covered (reals + nulls) from the sender with ``rank``."""
        return self.reals_received[rank] + self.nulls_seen[rank]

    def _pending_nulls(self) -> int:
        """§3.3: how many nulls this sender owes right now.

        A null is owed for every own round that would precede the
        highest message received so far in the delivery order
        (``M(i, l) < M(j, k)`` iff ``l < k or (l == k and i < j)``).
        Level-triggered — recomputed from the covered-round counts — so
        demand deferred while application sends were queued (nulls must
        not overtake queued rounds) is honoured once the queue drains.
        """
        i = self.my_rank
        if (i is None or not self.config.null_sends or self.wedged
                or self.reals_queued != self.reals_pushed):
            return 0
        best_round = -1
        best_rank = -1
        for j in range(self.S):
            if j == i:
                continue
            k = self._covered(j) - 1  # highest round received from j
            # '>=' keeps the highest-ranked sender among round ties: a
            # null at round k precedes M(j, k) for any j > i, so the
            # largest j determines the demand.
            if k >= best_round:
                best_round, best_rank = k, j
        if best_round < 0:
            return 0
        target = best_round if i < best_rank else best_round - 1
        return max(0, target - self.next_round + 1)

    def _announce_nulls(self, count: int) -> None:
        """Assign ``count`` null rounds and update the SST counter
        (the push is the caller's responsibility)."""
        self.next_round += count
        self.nulls_announced += count
        self.sst.set(self.cols.nulls, self.nulls_announced)
        self.stats.record_nulls_sent(count)

    def stable_seq(self) -> int:
        """Highest sequence number received by *all* members (min of the
        received_num column — the delivery predicate's test, §2.4)."""
        return self.received_watermark.read()

    def window_in_use(self) -> int:
        """Own ring slots currently occupied by not-yet-stable messages.

        Derived from the SST stability counters (``_reap_acked`` pops
        every message the minimum delivered/received column has passed),
        so ``window_in_use() / window`` is an honest congestion signal:
        1.0 means the next :meth:`claim_slot` would block on the
        slowest member's delivery progress. The request router's
        admission control (repro.shard.router, docs/SHARDING.md) uses
        exactly this ratio to reject-with-retry-after instead of
        letting closed-loop backpressure collapse the client queue.
        """
        self._reap_acked()
        return len(self.own_inflight)

    def stable_prefix(self) -> int:
        """Backend-generic name for :meth:`stable_seq`."""
        return self.stable_seq()

    def congestion(self) -> float:
        """See :meth:`OrderingEndpoint.congestion`: ring occupancy,
        pinned to 1.0 while wedged."""
        if self.wedged:
            return 1.0
        return min(1.0, self.window_in_use() / self.window)


# ==========================================================================
# Predicates
# ==========================================================================


class _SendPredicate(Predicate):
    """Detects queued application messages and pushes them to peers."""

    stage = STAGE_SEND_PREDICATE

    def __init__(self, mc: SubgroupMulticast):
        self.mc = mc
        self.name = f"sg{mc.subgroup_id}.send"
        self.subgroup = mc.subgroup_id

    def evaluate(self):
        mc = self.mc
        cost = mc.timing.predicate_eval
        if mc.wedged:
            return cost, 0
        queued = mc.reals_queued - mc.reals_pushed
        if queued <= 0:
            return cost, 0
        fixed = mc.config.fixed_send_batch
        if fixed > 0 and queued < fixed and not mc.finished_sending:
            return cost, 0  # ablation: wait to accumulate a full batch
        return cost, queued

    def generation(self):
        # Every evaluate() input: the queued/pushed counters plus the
        # wedge and end-of-workload flags (fixed_send_batch is a
        # constant). The cost is a constant too, so token equality
        # implies an identical (cost, value) pair.
        mc = self.mc
        return (mc.reals_queued, mc.reals_pushed, mc.wedged,
                mc.finished_sending)

    def trigger(self, queued: int):
        mc = self.mc
        count = queued if mc.config.batch_send else 1
        lo = mc.reals_pushed
        hi = lo + count
        mc.reals_pushed = hi
        mc.stats.record_send_batch(count)
        yield mc.timing.trigger_base
        # The queue may just have drained: null demand deferred while
        # application rounds were queued becomes due now (§3.3). The
        # announcement travels after the message push on the same QPs,
        # preserving round order at every receiver.
        nulls = mc._pending_nulls()
        if nulls:
            mc._announce_nulls(nulls)
        return self._push_messages_and_nulls(lo, hi, nulls)

    def _push_messages_and_nulls(self, lo: int, hi: int, nulls: int):
        mc = self.mc
        posted = yield from mc.smc.push_messages(lo, hi)
        if nulls:
            yield from mc.smc.push_control()
        return posted


class _ReceivePredicate(Predicate):
    """Scans every sender's slots (and null counters) for new messages,
    advances received_num, and runs the null-send rule (§3.3)."""

    stage = STAGE_RECEIVE_PREDICATE

    def __init__(self, mc: SubgroupMulticast):
        self.mc = mc
        self.name = f"sg{mc.subgroup_id}.receive"
        self.subgroup = mc.subgroup_id
        self._sender_rows = [mc.sst.rows[s] for s in mc.senders]

    def evaluate(self):
        mc = self.mc
        cost = mc.timing.predicate_eval + mc.S * mc.timing.slot_check
        for rank, sender in enumerate(mc.senders):
            if mc.smc.has_message(sender, mc.reals_received[rank]):
                return cost, True
            if mc.sst.read(sender, mc.cols.nulls) > mc.nulls_seen[rank]:
                return cost, True
        return cost, False

    def generation(self):
        # evaluate() reads the senders' SST rows (slots + null counters)
        # and the own scan cursors. Row versions are strictly increasing
        # per write, so their sum changes whenever any watched cell can
        # have changed; recv_generation covers the cursors, which move
        # only in this predicate's own trigger.
        version_sum = 0
        for row in self._sender_rows:
            version_sum += row.version
        return (version_sum, self.mc.recv_generation)

    def trigger(self, _value):
        mc = self.mc
        mc.recv_generation += 1
        timing = mc.timing
        unordered = mc.delivery_mode == "unordered"
        yield timing.trigger_base

        consumed_reals = 0
        consumed_slots: List[Tuple[int, SlotValue]] = []
        cost = 0.0
        read_slot = mc.smc.read_slot
        received = mc.reals_received
        per_message = timing.receive_per_message
        batch_receive = mc.config.batch_receive
        for rank, sender in enumerate(mc.senders):
            # -- null announcements from this sender ---------------------------
            announced = mc.sst.read(sender, mc.cols.nulls)
            if announced > mc.nulls_seen[rank]:
                mc.nulls_seen[rank] = announced
            # -- new application messages in the ring, one read per slot -------
            queue = consumed_slots if unordered else mc.pending[rank]
            nxt = received[rank]
            while True:
                slot = read_slot(sender, nxt)
                if slot is None or slot.real_index != nxt:
                    break
                queue.append((rank, slot) if unordered else slot)
                nxt += 1
                consumed_reals += 1
                cost += per_message
                if not batch_receive:
                    break
            received[rank] = nxt
            if consumed_reals and not batch_receive:
                break
        # §3.3 null-send rule, level-triggered on the covered rounds
        # (nulls are withheld while own sends are queued; the send
        # trigger re-checks once the queue drains).
        nulls_to_send = 0 if unordered else mc._pending_nulls()

        if unordered and consumed_slots:
            # QoS "unordered": deliver on receipt, in the receive trigger.
            upcall_cost = 0.0
            recorded = []
            for rank, slot in consumed_slots:
                cost += timing.delivery_per_message
                upcall = timing.delivery_upcall
                if mc.config.copy_on_delivery:
                    upcall += timing.memcpy_time(slot.size)
                if mc.extra_delivery_cost is not None:
                    upcall += mc.extra_delivery_cost(slot.size)
                cost += upcall
                upcall_cost += upcall
                recorded.append(
                    (mc.sim.now + cost, rank, slot.size, slot.queued_at))
            mc.stats.record_deliveries(recorded)
            # Nested stage: upcall time inside the receive predicate.
            mc.stats.add_upcall_time(upcall_cost, batches=len(consumed_slots))
        yield cost

        if unordered:
            for rank, slot in consumed_slots:
                mc.sst.set(mc.cols.recv_from(rank), mc.reals_received[rank])
                if mc.deliver_cb is not None:
                    mc.deliver_cb(Delivery(
                        mc.subgroup_id, mc.senders[rank], rank,
                        seq_of(slot.round_index, rank, mc.S),
                        slot.payload, slot.size,
                    ))
            if consumed_slots:
                mc._reap_acked()
                mc.slot_doorbell.ring()

        if nulls_to_send:
            mc._announce_nulls(nulls_to_send)
        if consumed_reals:
            mc.stats.record_received(consumed_reals)
            mc.stats.record_receive_batch(consumed_reals)

        # -- advance received_num -------------------------------------------
        covered = [mc._covered(r) for r in range(mc.S)]
        new_received = contiguous_seq(covered, mc.S)
        ack_needed = new_received > mc.received_seq
        if ack_needed:
            mc.received_seq = new_received
            mc.sst.set(mc.cols.received, new_received)
            if unordered:
                # Delivered == received in unordered mode (diagnostics
                # and the window-freeing fallback path).
                mc.delivered_seq = new_received
                mc.sst.set(mc.cols.delivered, new_received)
        ack_needed = ack_needed or (unordered and bool(consumed_slots))

        if not (ack_needed or nulls_to_send):
            return None
        if mc.config.null_send_batched or nulls_to_send <= 1:
            if nulls_to_send:
                mc.stats.record_null_announce_pushes(1)
            return mc.smc.push_control()
        mc.stats.record_null_announce_pushes(nulls_to_send)
        return self._separate_null_pushes(nulls_to_send, ack_needed)

    def _separate_null_pushes(self, nulls: int, ack_needed: bool):
        """Non-batched null announcements: one control push per null
        (the ablation against §3.3's single-integer batching)."""
        mc = self.mc
        pushes = nulls + (1 if ack_needed else 0)
        for _ in range(pushes):
            yield from mc.smc.push_control()


class _DeliveryPredicate(Predicate):
    """Delivers messages that every member has received, in sequence
    order, skipping null rounds; then acknowledges via delivered_num."""

    stage = STAGE_DELIVERY_PREDICATE

    def __init__(self, mc: SubgroupMulticast):
        self.mc = mc
        self.name = f"sg{mc.subgroup_id}.delivery"
        self.subgroup = mc.subgroup_id

    def evaluate(self):
        mc = self.mc
        cost = mc.timing.predicate_eval + len(mc.members) * mc.timing.slot_check
        stable = mc.stable_seq()
        if stable > mc.delivered_seq:
            # Wrapped in a tuple: stable may be 0, which must stay truthy.
            return cost, (stable,)
        return cost, None

    def generation(self):
        # Exactly evaluate()'s inputs: the received watermark and
        # delivered_seq (the cost is a constant).
        mc = self.mc
        return (mc.received_watermark.value, mc.delivered_seq)

    def trigger(self, value):
        (stable,) = value
        mc = self.mc
        timing = mc.timing
        config = mc.config
        yield timing.trigger_base

        start = mc.delivered_seq
        end = stable if config.batch_delivery else min(stable, start + 1)
        S = mc.S
        pending = mc.pending
        senders = mc.senders
        subgroup_id = mc.subgroup_id
        per_message = timing.delivery_per_message
        extra_cost = mc.extra_delivery_cost
        upcall_each = not config.batched_upcall
        upcall_base = timing.delivery_upcall
        batch: List[Delivery] = []
        batched_slots: List[Tuple[int, SlotValue]] = []
        # (now, rank, size, queued_at) per delivery, in delivery order.
        recorded: List[Tuple[float, int, int, float]] = []
        t0 = mc.sim.now
        cost = 0.0
        upcall_cost = 0.0
        s = start
        for s in range(start + 1, end + 1):
            rank = s % S
            k = s // S
            dq = pending[rank]
            if dq and dq[0].round_index == k:
                slot = dq.popleft()
                batch.append(Delivery(subgroup_id, senders[rank], rank, s,
                                      slot.payload, slot.size))
                cost += per_message
                if extra_cost is not None:
                    cost += extra_cost(slot.size)
                if upcall_each:
                    # Upcall per message, inside the critical path (§3.5).
                    upcall = upcall_base
                    if config.copy_on_delivery:
                        upcall += timing.memcpy_time(slot.size)
                    cost += upcall
                    upcall_cost += upcall
                    # Timestamp each delivery at its upcall completion.
                    recorded.append((t0 + cost, rank, slot.size,
                                     slot.queued_at))
                else:
                    batched_slots.append((rank, slot))
            else:
                if dq and dq[0].round_index < k:
                    raise AssertionError(
                        f"delivery order violated in sg{mc.subgroup_id}: "
                        f"pending round {dq[0].round_index} < expected {k}"
                    )
                mc.stats.record_null_skipped()

        if config.batched_upcall and batch:
            upcall = (timing.batched_upcall_base
                      + timing.batched_upcall_per_message * len(batch))
            if config.copy_on_delivery:
                upcall += sum(timing.memcpy_time(d.size) for d in batch)
            cost += upcall
            upcall_cost += upcall
            # The whole batch is handed to the application at once.
            done = t0 + cost
            recorded = [(done, rank, slot.size, slot.queued_at)
                        for rank, slot in batched_slots]
        mc.stats.record_deliveries(recorded)
        if upcall_cost:
            # Nested stage: upcall time inside the delivery predicate.
            mc.stats.add_upcall_time(upcall_cost, batches=len(batch))
        yield cost

        if mc.deliver_cb is not None:
            for delivery in batch:
                mc.deliver_cb(delivery)

        mc.delivered_seq = s
        mc.sst.set(mc.cols.delivered, s)
        if batch:
            mc.stats.record_delivery_batch(len(batch))
        mc._reap_acked()
        mc.slot_doorbell.ring()
        return mc.smc.push_control()
