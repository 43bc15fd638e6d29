"""Durable atomic multicast: Derecho's persistent delivery mode.

The paper notes (§2.1, footnote) that Derecho's *persistent* atomic
multicast is equivalent to classical durable Paxos: every replica holds
the full state and a message is durably delivered only once every
member has appended it to stable storage.

Mechanics, mirroring Derecho's version-vector scheme on our SST:

* each member runs a :class:`PersistenceEngine` — a background thread
  that drains locally-delivered messages into an append-only log on a
  modeled SSD (batched appends amortize the device overhead),
* after appending through sequence number ``s`` it advances a monotonic
  ``persisted_num`` SST column and pushes it (one RDMA write per peer,
  exactly like the delivery acknowledgments),
* a *durability predicate* on the polling thread watches the minimum of
  the ``persisted_num`` column: messages at or below it are stable on
  every replica and the application's ``on_durable`` watermark callback
  fires.

Delivery upcalls still happen at (volatile) delivery time; durability
is reported separately, which is how Derecho exposes the two levels.

The log itself lives on a :class:`~repro.storage.StorageDevice`
(append-only, CRC-framed, explicit fsync — docs/DURABILITY.md):
"durable" means *fsynced*, and injected storage faults (torn appends,
fsync stalls, corruption) surface here and nowhere else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from ..predicates.framework import Predicate
from ..sim.sync import Doorbell
from ..sim.units import gb_per_s, us
from ..storage.device import StorageDevice, encode_log_entry
from .multicast import Delivery, SubgroupMulticast

__all__ = ["StorageModel", "PersistenceEngine"]


@dataclass(frozen=True)
class StorageModel:
    """Timing model of the stable-storage device (NVMe-class SSD)."""

    #: Fixed overhead per append batch (submission + flush amortized).
    append_base: float = us(2.0)
    #: Sequential write bandwidth, bytes/second.
    write_bandwidth: float = gb_per_s(2.0)
    #: Sequential read bandwidth, bytes/second (durable-log replay on
    #: restart, docs/RECOVERY.md).
    read_bandwidth: float = gb_per_s(3.0)
    #: Fixed overhead per replay (open + first-block seek).
    read_base: float = us(5.0)

    def append_time(self, total_bytes: int) -> float:
        return self.append_base + total_bytes / self.write_bandwidth

    def read_time(self, total_bytes: int) -> float:
        """Time to stream ``total_bytes`` back off the device."""
        return self.read_base + total_bytes / self.read_bandwidth


class PersistenceEngine:
    """One member's durability pipeline for one subgroup."""

    def __init__(self, mc: SubgroupMulticast, persisted_col: int,
                 storage: Optional[StorageModel] = None,
                 device: Optional[StorageDevice] = None):
        self.mc = mc
        self.sim = mc.sim
        self.persisted_col = persisted_col
        #: min of the members' persisted_num: durable everywhere.
        self.persisted_watermark = mc.sst.watermark(persisted_col, mc.members)
        if device is not None:
            self.device = device
            self.storage = device.model
        else:
            self.storage = storage if storage is not None else StorageModel()
            self.device = StorageDevice(
                mc.sim, self.storage,
                name=f"sg{mc.subgroup_id}", node_id=mc.node_id)
        #: (seq, sender, size, payload) awaiting the SSD.
        self._queue: Deque[Tuple[int, int, int, Optional[bytes]]] = deque()
        self._bell = Doorbell(self.sim, name=f"persist@{mc.node_id}")
        #: The durable log contents (seq, sender, payload).
        self.log: List[Tuple[int, int, Optional[bytes]]] = []
        self.log_bytes = 0
        self.persisted_seq = -1      # locally durable watermark
        self.durable_seq = -1        # globally durable watermark
        self.batches = 0
        #: Entries seeded from a prior epoch's log via :meth:`adopt_log`
        #: (carryover across view changes / recovery state transfer).
        self.adopted_entries = 0
        #: True while the storage thread is mid-batch (between draining
        #: the queue and finishing the SSD append + watermark publish).
        self._appending = False
        self.on_durable: List[Callable[[int], None]] = []
        self._proc = None
        self.predicate = _DurabilityPredicate(self)

    # ---------------------------------------------------------------- wiring

    def start(self) -> None:
        """Hook deliveries, start the storage thread, register the
        durability predicate."""
        if self._proc is not None:
            raise RuntimeError("persistence engine already started")
        self._proc = self.sim.spawn(
            self._run(), name=f"persist@{self.mc.node_id}"
        )
        self.mc.thread.register(self.predicate)

    def stop(self) -> None:
        if self._proc is not None and self._proc.alive:
            self._proc.kill()
        if self.predicate in self.mc.thread.predicates:
            self.mc.thread.unregister(self.predicate)

    def enqueue(self, delivery: Delivery) -> None:
        """Called from the delivery upcall path: queue for the SSD."""
        self._queue.append(
            (delivery.seq, delivery.sender, delivery.size, delivery.payload)
        )
        self._bell.ring()

    # ----------------------------------------------------------- storage loop

    def _run(self):
        mc = self.mc
        post_cost = mc.sst.fabric.latency.post_overhead
        while True:
            while self._queue:
                # Batched append: drain everything queued right now.
                self._appending = True
                batch = []
                total = 0
                while self._queue:
                    entry = self._queue.popleft()
                    batch.append(entry)
                    total += entry[2]
                for seq, sender, size, payload in batch:
                    self.device.write(encode_log_entry(seq, sender, payload),
                                      billed=size)
                # One fsync per batch: a single append_time(total) yield,
                # after which (and only after which) the batch is durable.
                yield from self.device.fsync()
                for seq, sender, _size, payload in batch:
                    self.log.append((seq, sender, payload))
                self.log_bytes += total
                self.batches += 1
                self.persisted_seq = batch[-1][0]
                self._appending = False
                # Publish the new durable watermark (needs the shared
                # lock: the column is shared protocol state).
                yield mc.thread.lock.acquire()
                mc.sst.set(self.persisted_col, self.persisted_seq)
                mc.thread.lock.release()
                yield from mc.sst.push(
                    self.persisted_col, self.persisted_col + 1,
                    [m for m in mc.members if m != mc.node_id],
                )
            yield self._bell.wait()

    # ------------------------------------------------------------- carryover

    def adopt_log(self, log, log_bytes: Optional[int] = None) -> None:
        """Seed this (fresh) engine with a prior epoch's durable log.

        Used by :meth:`Cluster.install_view
        <repro.workloads.cluster.Cluster.install_view>` to carry each
        node's on-SSD log across the epoch restart, and by the recovery
        plane to hand a rejoining member its replayed-plus-transferred
        log. Only a *pristine* engine may adopt (the durable log is
        append-only; splicing into a log that already took appends would
        reorder history), so calling this on a non-empty log raises.
        """
        if self.log or self._queue or self._appending:
            raise RuntimeError(
                "adopt_log on a non-pristine engine: the durable log is "
                "append-only and must be seeded before any append"
            )
        entries = [tuple(entry) for entry in log]
        if log_bytes is None:
            log_bytes = sum(len(p) for _s, _n, p in entries if p is not None)
        self.log = entries
        self.log_bytes = log_bytes
        self.adopted_entries = len(entries)
        # Mirror the adopted log onto the device (idempotent when the
        # device already holds it): per-record billing is not recorded
        # across adoption, so the payload-length sum plus a billed base
        # keeps billed_total == log_bytes exactly.
        pairs = [(encode_log_entry(s, n, p), len(p) if p is not None else 0)
                 for s, n, p in entries]
        base = log_bytes - sum(b for _f, b in pairs)
        self.device.rewrite(pairs, billed_base=base)

    @property
    def drained(self) -> bool:
        """True when every enqueued delivery has reached the log (no
        queued entries and no batch mid-append). The recovery plane
        polls this during a join cut: once the wedged epoch's engines
        drain, the survivors' logs are final."""
        return not self._queue and not self._appending

    # --------------------------------------------------------------- queries

    def globally_persisted(self) -> int:
        """Min of the persisted_num column: durable on every member."""
        return self.persisted_watermark.read()

    def replay(self) -> List[Tuple[int, int, Optional[bytes]]]:
        """The durable log (seq, sender, payload), in append order."""
        return list(self.log)


class _DurabilityPredicate(Predicate):
    """Fires the on_durable watermark when global persistence advances."""

    def __init__(self, engine: PersistenceEngine):
        self.engine = engine
        self.name = f"sg{engine.mc.subgroup_id}.durability"
        self.subgroup = engine.mc.subgroup_id

    def evaluate(self):
        engine = self.engine
        cost = (engine.mc.timing.predicate_eval
                + len(engine.mc.members) * engine.mc.timing.slot_check)
        watermark = engine.globally_persisted()
        if watermark > engine.durable_seq:
            return cost, (watermark,)
        return cost, None

    def trigger(self, value):
        (watermark,) = value
        engine = self.engine
        yield engine.mc.timing.trigger_base
        engine.durable_seq = watermark
        for callback in engine.on_durable:
            callback(watermark)
        return None
