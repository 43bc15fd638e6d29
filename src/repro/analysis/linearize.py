"""Black-box linearizability and strict-serializability auditor.

Records per-client invoke/complete histories from the KV, shard and
transaction workloads and checks them with one Wing–Gong search over
transactions: a KV ``put`` is a one-key txn writing its value, a
``get`` one reading it. The history is split into connected components
by key overlap (txns sharing a read or write key belong together) and
each component is searched alone — exact, because linearizability
composes by object (Herlihy–Wing locality) and a component is one
composite object no outside txn touches. A KV history thus splits per
key; a txn history as far as its txns keep their key sets apart. The
search keeps an explicit stack: no recursion limit caps history length.

Scope and soundness (docs/DURABILITY.md):

* The recorder is *passive*: callbacks append to Python lists, no
  simulated events are created, so attaching it never perturbs a run's
  trace fingerprint.
* Completed operations (an ack observed) MUST be linearized between
  their invoke and complete instants. Pending operations (no ack:
  timeout, crash, in-flight at harvest) MAY be linearized at any point
  after their invoke, or dropped entirely — both futures are legal for
  an operation whose outcome the client never saw.
* Rejected operations (admission control said no) never entered the
  system and are excluded by the caller via :meth:`HistoryRecorder.drop`.
* The checker is sound and complete for the recorded history: a
  reported violation is a real non-linearizable ordering; a pass means
  *some* legal linearization exists. It audits what clients observed —
  it cannot see internal state the workload never read back, which is
  why scenarios append synthetic final reads of every replica.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Op", "HistoryRecorder", "LinearizabilityReport",
           "check_history", "check_recorder", "selftest",
           "TxnEvent", "TxnHistoryRecorder", "check_txn_history",
           "check_txn_recorder", "txn_selftest"]


@dataclass
class Op:
    """One client operation in the recorded history."""

    client: int
    kind: str                      # "put" | "get"
    key: bytes
    #: put: the value written. get: the value returned (None until
    #: completion; a completed get of a missing key records None too —
    #: disambiguated by ``returned``).
    value: Optional[bytes]
    invoked: float
    returned: Optional[float] = None   # None = pending (no ack observed)

    def describe(self) -> str:
        window = (f"[{self.invoked:.6g}, "
                  f"{'…' if self.returned is None else format(self.returned, '.6g')}]")
        return (f"c{self.client} {self.kind}({self.key!r})"
                f"{'=' + repr(self.value) if self.value is not None else ''} "
                f"@{window}")

    def effects(self) -> tuple:
        """``(key, value)`` reads and writes of this op as a txn."""
        effect = ((self.key, self.value),)
        return (effect, ()) if self.kind == "get" else ((), effect)


class HistoryRecorder:
    """Passive per-client invoke/ack/return history.

    Usage from a workload hook::

        op = recorder.invoke(client, "put", key, value, at=sim.now)
        ...                       # the request runs
        recorder.complete(op, at=sim.now)          # acked
        recorder.drop(op)                          # or: rejected

    Never completing an op leaves it *pending* (timeout / client died
    with the request in flight) — the checker treats its effect as
    optional. All methods are plain list/dict operations: attaching a
    recorder adds no simulated events.
    """

    def __init__(self):
        self.ops: List[Op] = []
        self._dropped: set = set()

    def invoke(self, client: int, kind: str, key: bytes,
               value: Optional[bytes], at: float) -> int:
        if kind not in ("put", "get"):
            raise ValueError(f"unknown op kind {kind!r}")
        self.ops.append(Op(client, kind, bytes(key), value, at))
        return len(self.ops) - 1

    def complete(self, op_id: int, at: float,
                 value: Optional[bytes] = None) -> None:
        op = self.ops[op_id]
        op.returned = at
        if op.kind == "get":
            op.value = value

    def drop(self, op_id: int) -> None:
        """Remove an op that never entered the system (admission-control
        reject): it has no place in the linearized history."""
        self._dropped.add(op_id)

    def record_read(self, client: int, key: bytes,
                    value: Optional[bytes], at: float) -> None:
        """An instantaneous observed read (synthetic final audit reads
        of replica state)."""
        op_id = self.invoke(client, "get", key, None, at)
        self.complete(op_id, at, value)

    def history(self) -> List[Op]:
        return [op for i, op in enumerate(self.ops)
                if i not in self._dropped]

    def __len__(self) -> int:
        return len(self.ops) - len(self._dropped)


@dataclass
class LinearizabilityReport:
    """Outcome of one history check."""

    ok: bool
    keys_checked: int = 0
    ops_checked: int = 0
    pending_ops: int = 0
    violations: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _components(events: Sequence) -> Tuple[int, List[List[int]]]:
    """Key-overlap components of ``events`` (union-find over read and
    write keys): the key count, and each component's event indices,
    smallest key first. An event touching no key is in none."""
    parent: Dict[bytes, bytes] = {}
    firsts = []  # each event's first key, if any

    def find(key: bytes) -> bytes:
        while parent[key] != key:
            parent[key] = key = parent[parent[key]]
        return key

    for event in events:
        reads, writes = event.effects()
        keys = [key for key, _ in (*reads, *writes)]
        for key in keys:
            parent.setdefault(key, key)
            parent[find(key)] = find(keys[0])
        firsts.append(keys[0] if keys else None)
    groups: Dict[bytes, List[int]] = {}
    for key in sorted(parent):
        groups.setdefault(find(key), [])
    for i, key in enumerate(firsts):
        if key is not None:
            groups[find(key)].append(i)
    return len(parent), list(groups.values())


def _serializable(events: list) -> bool:
    """Wing–Gong search for a strict serialization of one component.

    State is the component's store image (None = absent); a txn applies
    atomically (a completed txn's reads must all match, then its writes
    land together). Completed txns MUST serialize inside their
    invoke/return window; pending ones MAY take effect any time after
    their invoke, or never — the presumed-abort ambiguity the WAL
    recovery resolves. Real-time minimality makes it strict: the next
    txn is invoked no later than the earliest remaining return. Failed
    ``(remaining, state)`` pairs are memoized. ``remaining`` is a
    bitmask over the txns sorted by invoke; a stack frame is an open
    node: state, next candidate, and the earliest-returning and
    lowest-invoked pointers, which only move forward along a path."""
    txns = sorted(events, key=lambda t: t.invoked)
    n = len(txns)
    invoked = [t.invoked for t in txns] + [float("inf")]  # scan sentinel
    slot: Dict[bytes, int] = {}  # key -> its index in the state tuple
    reads, writes = [], []
    for t in txns:
        read, write = t.effects()
        reads.append([(slot.setdefault(k, len(slot)), v) for k, v in read]
                     if t.returned is not None else [])
        writes.append([(slot.setdefault(k, len(slot)), v) for k, v in write])
    by_return = sorted((i for i in range(n) if txns[i].returned is not None),
                       key=lambda i: txns[i].returned)
    failed, stack = set(), []
    remaining, state = (1 << n) - 1, (None,) * len(slot)
    first, lo, entered_by = 0, 0, -1
    while True:
        # Enter node (remaining, state), reached by taking ``entered_by``.
        while first < len(by_return) and not remaining >> by_return[first] & 1:
            first += 1
        if first == len(by_return):
            return True  # every completed txn placed; drop the pending
        if (remaining, state) in failed:
            remaining |= 1 << entered_by
        else:
            while not remaining >> lo & 1:
                lo += 1
            stack.append([state, first, lo, lo, entered_by])
        # Take the next legal candidate of the deepest open node,
        # closing (and memoizing) every node whose candidates ran out.
        while True:
            frame = stack[-1]
            state, first, lo, i, entered_by = frame
            bound = txns[by_return[first]].returned
            while invoked[i] <= bound and not (
                    remaining >> i & 1
                    and all(state[s] == v for s, v in reads[i])):
                i += 1
            if invoked[i] <= bound:
                break
            stack.pop()
            failed.add((remaining, state))
            if not stack:
                return False
            remaining |= 1 << entered_by
        frame[3] = i + 1
        remaining ^= 1 << i
        if writes[i]:
            image = list(state)
            for s, v in writes[i]:
                image[s] = v
            state = tuple(image)
        entered_by = i


def _audit(events: Sequence, shown: int, headline: Callable[[list], str]
           ) -> LinearizabilityReport:
    """Check ``Op``s or ``TxnEvent``s one key-overlap component at a
    time; report a failing one as ``headline(component)`` + events."""
    keys_checked, components = _components(events)
    report = LinearizabilityReport(
        ok=True, keys_checked=keys_checked, ops_checked=len(events),
        pending_ops=sum(1 for e in events if e.returned is None))
    for members in components:
        component = [events[i] for i in members]
        if _serializable(component):
            continue
        completed = sorted((e for e in component if e.returned is not None),
                           key=lambda e: e.invoked)
        detail = "; ".join(e.describe() for e in completed[:shown])
        report.violations.append(
            f"{headline(component)} ({detail}"
            f"{' …' if len(completed) > shown else ''})")
    report.ok = not report.violations
    return report


def check_history(ops: List[Op]) -> LinearizabilityReport:
    """Linearizability of a KV history (each op a one-key txn)."""
    return _audit(ops, 6, lambda component: (
        f"key {component[0].key!r}: no legal linearization of "
        f"{len(component)} ops"))


def check_recorder(recorder: HistoryRecorder) -> LinearizabilityReport:
    return check_history(recorder.history())


def selftest() -> Tuple[bool, LinearizabilityReport]:
    """The auditor auditing itself: a legal history must pass and a
    deliberately seeded stale read must be caught. Returns
    ``(selftest_ok, stale_read_report)`` — run by every chaos scenario
    that audits linearizability, so a silently broken checker cannot
    green-light a run."""
    legal = [
        Op(0, "put", b"k", b"v1", 0.0, 1.0),
        Op(1, "put", b"k", b"v2", 2.0, 3.0),
        Op(0, "get", b"k", b"v2", 4.0, 5.0),
        Op(2, "put", b"k", b"v3", 4.5, None),   # pending: droppable
        Op(3, "put", b"q", b"x", 0.0, 9.0),
        Op(4, "get", b"q", b"x", 9.5, 9.6),
    ]
    ok_pass = check_history(legal).ok
    # Seeded violation: the second get observes v1 strictly after
    # put(v2) completed — a stale read no linearization permits.
    stale = [
        Op(0, "put", b"k", b"v1", 0.0, 1.0),
        Op(1, "put", b"k", b"v2", 2.0, 3.0),
        Op(2, "get", b"k", b"v1", 4.0, 5.0),
    ]
    stale_report = check_history(stale)
    return (ok_pass and not stale_report.ok), stale_report


@dataclass
class TxnEvent:
    """One transaction in the recorded history: the values it observed
    and the writes it claims to have committed atomically."""

    client: int
    #: key -> value observed (None = read as absent).
    reads: Dict[bytes, Optional[bytes]] = field(default_factory=dict)
    #: key -> value written (None = delete).
    writes: Dict[bytes, Optional[bytes]] = field(default_factory=dict)
    invoked: float = 0.0
    returned: Optional[float] = None   # None = pending (no verdict seen)

    def describe(self) -> str:
        window = (f"[{self.invoked:.6g}, "
                  f"{'…' if self.returned is None else format(self.returned, '.6g')}]")
        reads = ",".join(f"{k!r}={v!r}" for k, v in sorted(self.reads.items()))
        writes = ",".join(f"{k!r}:={v!r}" for k, v in sorted(self.writes.items()))
        return f"c{self.client} txn(r:{reads} w:{writes}) @{window}"

    def effects(self) -> tuple:
        return self.reads.items(), self.writes.items()


class TxnHistoryRecorder:
    """Passive invoke/verdict history of transactions (same contract
    as :class:`HistoryRecorder`: plain list appends, no sim events)."""

    def __init__(self):
        self.txns: List[TxnEvent] = []
        self._dropped: set = set()

    def invoke(self, client: int, at: float) -> int:
        self.txns.append(TxnEvent(client=client, invoked=at))
        return len(self.txns) - 1

    def complete(self, txn_id: int, at: float,
                 reads: Optional[Dict[bytes, Optional[bytes]]] = None,
                 writes: Optional[Dict[bytes, Optional[bytes]]] = None
                 ) -> None:
        """The client saw a commit verdict (aborted txns are
        :meth:`drop`-ped: they promise no effect and made none the
        client could see)."""
        txn = self.txns[txn_id]
        txn.returned = at
        if reads is not None:
            txn.reads = dict(reads)
        if writes is not None:
            txn.writes = dict(writes)

    def drop(self, txn_id: int) -> None:
        self._dropped.add(txn_id)

    def pending_writes(self, txn_id: int,
                       writes: Dict[bytes, Optional[bytes]]) -> None:
        """Attach the write set of a txn with no verdict (client died
        mid-commit): the checker may serialize it anywhere after its
        invoke, or drop it."""
        self.txns[txn_id].writes = dict(writes)

    def record_state_read(self, client: int,
                          state: Dict[bytes, Optional[bytes]],
                          at: float) -> None:
        """Synthetic instantaneous read-only txn observing a replica's
        state over the audited keys (absent keys as None) — the final
        audit read that forces every committed write to be accounted."""
        txn_id = self.invoke(client, at)
        self.complete(txn_id, at, reads=dict(state), writes={})

    def history(self) -> List[TxnEvent]:
        return [t for i, t in enumerate(self.txns) if i not in self._dropped]

    def __len__(self) -> int:
        return len(self.txns) - len(self._dropped)


def check_txn_history(txns: List[TxnEvent]) -> LinearizabilityReport:
    """Strict serializability of a transactional history, one
    key-overlap component at a time."""
    return _audit(txns, 4, lambda component: (
        f"no strict serialization of {len(component)} txns over "
        f"{len({k for t in component for k in (*t.reads, *t.writes)})} keys"))


def check_txn_recorder(recorder: TxnHistoryRecorder) -> LinearizabilityReport:
    return check_txn_history(recorder.history())


def txn_selftest() -> Tuple[bool, LinearizabilityReport]:
    """Self-audit of the txn checker: a legal transactional history
    must pass; a seeded *atomicity violation* (a txn observed
    half-applied across two keys) must be caught."""
    legal = [
        TxnEvent(0, reads={}, writes={b"a": b"1", b"b": b"1"},
                 invoked=0.0, returned=1.0),
        TxnEvent(1, reads={b"a": b"1"}, writes={b"a": b"2"},
                 invoked=2.0, returned=3.0),
        TxnEvent(2, reads={b"a": b"2", b"b": b"1"}, writes={},
                 invoked=4.0, returned=5.0),
        TxnEvent(3, reads={}, writes={b"c": b"9"},
                 invoked=4.5, returned=None),   # pending: droppable
    ]
    ok_pass = check_txn_history(legal).ok
    # Seeded violation: txn 0 committed {a, b} atomically, but a later
    # read sees a's new value with b missing — half a transaction.
    torn = [
        TxnEvent(0, reads={}, writes={b"a": b"1", b"b": b"1"},
                 invoked=0.0, returned=1.0),
        TxnEvent(1, reads={b"a": b"1", b"b": None}, writes={},
                 invoked=2.0, returned=3.0),
    ]
    torn_report = check_txn_history(torn)
    return (ok_pass and not torn_report.ok), torn_report
