"""A replicated key-value store built on the atomic multicast.

The paper motivates Spindle beyond the avionics DDS: the same
layered structure appears in "message queuing systems, key-value stores
that replicate data, atomic multicast and persistent logging" (§1).
This module is that key-value store: a state machine replicated with
the Spindle-optimized atomic multicast.

Design (textbook SMR):

* every replica is a subgroup member; writes (PUT/DELETE/CAS) are
  multicast and applied in delivery order, so all replicas stay
  identical;
* reads are served locally — *sequentially consistent* by default, or
  *linearizable* when issued through :meth:`KvNode.sync_read`, which
  multicasts a no-op fence and waits for its delivery (the classic
  read-through-the-log construction);
* compare-and-swap resolves concurrent writers by the total order, so
  every replica agrees on the winner.

Commands are marshalled into the SMC message slots with a compact
binary framing; the store's state is a plain dict per replica.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..core.endpoint import OrderingEndpoint
from ..core.multicast import Delivery
from ..sim.sync import Event

__all__ = ["KvCommand", "KvNode", "attach_store",
           "OP_PUT", "OP_DELETE", "OP_CAS", "OP_FENCE"]

#: Public command opcodes (the sharded service plane frames these
#: inside request-id envelopes — repro.shard.service).
OP_PUT = 1
OP_DELETE = 2
OP_CAS = 3
OP_FENCE = 4

# Historical private aliases (internal call sites predate the export).
_OP_PUT = OP_PUT
_OP_DELETE = OP_DELETE
_OP_CAS = OP_CAS
_OP_FENCE = OP_FENCE

_HEADER = struct.Struct("<BHHI")  # op, key_len, expected_len, value_len


class KvCommand:
    """Encoding/decoding of replicated store commands."""

    @staticmethod
    def encode(op: int, key: bytes = b"", value: bytes = b"",
               expected: bytes = b"") -> bytes:
        return (_HEADER.pack(op, len(key), len(expected), len(value))
                + key + expected + value)

    @staticmethod
    def decode(data: bytes) -> Tuple[int, bytes, bytes, bytes]:
        op, key_len, expected_len, value_len = _HEADER.unpack_from(data)
        offset = _HEADER.size
        key = data[offset : offset + key_len]
        offset += key_len
        expected = data[offset : offset + expected_len]
        offset += expected_len
        value = data[offset : offset + value_len]
        return op, key, expected, value


class KvNode:
    """One replica of the store.

    Create with :func:`attach_store` on every member of a subgroup.
    Mutations are generators to run inside simulated processes::

        ok = yield from store.put(b"altitude", b"9500")
        value = yield from store.sync_read(b"altitude")   # linearizable
        value = store.read(b"altitude")                   # local, fast
    """

    def __init__(self, mc: OrderingEndpoint):
        if mc.delivery_mode != "atomic":
            raise ValueError("the KV store requires atomic delivery")
        self.mc = mc
        self.node_id = mc.node_id
        self.data: Dict[bytes, bytes] = {}
        self.applied = 0
        self.cas_failures = 0
        #: Commands applied via recovery replay (apply_command).
        self.recovered = 0
        #: verification hook: (seq, op, key) of every applied command.
        self.apply_log: List[Tuple[int, int, bytes]] = []
        self._fence_waiters: Dict[Tuple[int, int], Event] = {}
        self._write_waiters: Dict[Tuple[int, int], Event] = {}
        #: Per-sender-rank count of deliveries applied so far: the k-th
        #: delivery from rank r carries r's propose ticket k (FIFO +
        #: exactly-once, docs/ORDERING.md), so this is all that is
        #: needed to match waiters to deliveries on *any* backend.
        self._applied_from: Dict[int, int] = {}

    # ---------------------------------------------------------- replication

    def apply(self, delivery: Delivery) -> None:
        """State-machine transition, executed in delivery order.

        Registered as the subgroup's delivery upcall by attach_store.
        """
        op, key, expected, value = KvCommand.decode(delivery.payload)
        outcome: Any = None
        if op == _OP_PUT:
            self.data[key] = value
            outcome = True
        elif op == _OP_DELETE:
            outcome = self.data.pop(key, None) is not None
        elif op == _OP_CAS:
            current = self.data.get(key, b"")
            if current == expected:
                self.data[key] = value
                outcome = True
            else:
                self.cas_failures += 1
                outcome = False
        elif op == _OP_FENCE:
            outcome = None
        else:
            raise ValueError(f"unknown KV op {op}")
        self.applied += 1
        self.apply_log.append((delivery.seq, op, key))
        token = self._next_token(delivery)
        waiter = self._write_waiters.pop(token, None)
        if waiter is not None:
            waiter.trigger(outcome)
        fence = self._fence_waiters.pop(token, None)
        if fence is not None:
            fence.trigger(None)

    def _next_token(self, delivery: Delivery) -> Tuple[int, int]:
        """Consume one delivery from its sender's FIFO: the waiter token
        is ``(sender_rank, ticket)``, counted locally."""
        ticket = self._applied_from.get(delivery.sender_rank, 0)
        self._applied_from[delivery.sender_rank] = ticket + 1
        return (delivery.sender_rank, ticket)

    # ------------------------------------------------------------- mutations

    def _submit(self, payload: bytes, waiters: Dict) -> Generator:
        """Propose a command to the total order and wait for its local
        delivery (backend-agnostic: the propose ticket names it)."""
        if self.mc.my_rank is None:
            raise RuntimeError(f"node {self.node_id} is a read-only replica")
        ticket = yield from self.mc.propose(len(payload), payload)
        event = Event(self.mc.sim, name=f"kv-wait-{ticket}")
        waiters[(self.mc.my_rank, ticket)] = event
        outcome = yield event
        return outcome

    def put(self, key: bytes, value: bytes) -> Generator:
        """Replicated write; returns True once applied locally."""
        return self._submit(KvCommand.encode(_OP_PUT, key, value),
                            self._write_waiters)

    def delete(self, key: bytes) -> Generator:
        """Replicated delete; returns whether the key existed."""
        return self._submit(KvCommand.encode(_OP_DELETE, key),
                            self._write_waiters)

    def cas(self, key: bytes, expected: bytes, value: bytes) -> Generator:
        """Compare-and-swap, arbitrated by the total order; returns
        whether this CAS won."""
        return self._submit(
            KvCommand.encode(_OP_CAS, key, value, expected),
            self._write_waiters)

    # ----------------------------------------------------------------- reads

    def read(self, key: bytes) -> Optional[bytes]:
        """Local read: sequentially consistent (may lag the log tip)."""
        return self.data.get(key)

    def sync_read(self, key: bytes) -> Generator:
        """Linearizable read: fence through the log, then read locally.

        The fence multicast is delivered after every write that preceded
        the read in real time, so the local state is current.
        """
        yield from self._submit(KvCommand.encode(_OP_FENCE),
                                self._fence_waiters)
        return self.data.get(key)

    # ------------------------------------------------------------- integrity

    def checksum(self) -> int:
        """Order-insensitive state digest for replica comparison."""
        total = 0
        for key, value in self.data.items():
            total ^= hash((key, value))
        return total

    # ------------------------------------------------------------- recovery

    def snapshot(self) -> bytes:
        """Deterministic serialization of the replica state (sorted, so
        two replicas with equal state produce identical bytes)."""
        parts = [struct.pack("<I", len(self.data))]
        for key in sorted(self.data):
            value = self.data[key]
            parts.append(struct.pack("<HI", len(key), len(value)))
            parts.append(key)
            parts.append(value)
        return b"".join(parts)

    def restore(self, blob: bytes) -> None:
        """Load a :meth:`snapshot` (recovery: replaces current state)."""
        (count,) = struct.unpack_from("<I", blob)
        offset = 4
        data: Dict[bytes, bytes] = {}
        for _ in range(count):
            key_len, value_len = struct.unpack_from("<HI", blob, offset)
            offset += 6
            key = blob[offset:offset + key_len]
            offset += key_len
            data[key] = blob[offset:offset + value_len]
            offset += value_len
        self.data = data

    def apply_command(self, payload: Optional[bytes]) -> None:
        """Apply one durable-log payload during recovery replay.

        Pure state transition: no waiters fire and ``apply_log`` is not
        extended (sequence numbers reset per epoch, so replayed log
        positions don't map onto this epoch's seqs). ``None`` payloads
        (control entries) are skipped.
        """
        if payload is None:
            return
        op, key, expected, value = KvCommand.decode(payload)
        if op == _OP_PUT:
            self.data[key] = value
        elif op == _OP_DELETE:
            self.data.pop(key, None)
        elif op == _OP_CAS:
            if self.data.get(key, b"") == expected:
                self.data[key] = value
        elif op != _OP_FENCE:
            raise ValueError(f"unknown KV op {op}")
        self.recovered += 1

    def rebind(self, mc: OrderingEndpoint) -> None:
        """Re-attach this replica to a new epoch's ordering endpoint
        (view change / rejoin). State carries over; in-flight waiters
        and the per-sender ticket counters are cleared — their epoch
        died, and ticket numbering restarts, so a stale waiter could
        otherwise capture a new message's token."""
        if mc.delivery_mode != "atomic":
            raise ValueError("the KV store requires atomic delivery")
        self.mc = mc
        self.node_id = mc.node_id
        self._write_waiters.clear()
        self._fence_waiters.clear()
        self._applied_from.clear()


def attach_store(group_node, subgroup_id: int) -> KvNode:
    """Create a KV replica on a node and wire it to a subgroup."""
    mc = group_node.subgroup(subgroup_id)
    store = KvNode(mc)
    group_node.on_delivery(subgroup_id, store.apply)
    return store
