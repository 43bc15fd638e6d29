"""The traced run: spans around each layer's public entry points, and
host self time per ``repro.<layer>`` from a profiler.

Everything here lives in the benchmark, outside the program: the
:class:`SpanTracer` replaces public methods of the layers' classes with
thin wrappers for the duration of one run and puts the originals back
afterwards. A wrapper around a generator method passes every ``yield``
through unchanged, so tracing adds no simulated events: the traced run
reproduces the untraced run's simulated metrics exactly, which the
benchmark checks.

A span is ``(name, start, end, parent, op)`` in simulated seconds.
``parent`` is the span that was open on the same simulated process when
the call began; ``op`` is the id of the client operation (a multicast
``send``, a routed request or a transaction) the span works for, or -1
for protocol work shared by many operations (predicate passes, RDMA
posts). A shard replica's request span has as parent the router
request it serves, matched first-in first-out per request key.
"""

from __future__ import annotations

import json
import pstats
from array import array
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.multicast import SubgroupMulticast
from repro.predicates.framework import Predicate
from repro.rdma.nic import QueuePair
from repro.shard.router import ShardRouter
from repro.shard.service import ShardReplica
from repro.smc.multicast import SMC
from repro.sst.table import SST
from repro.storage.device import StorageDevice
from repro.txn.coordinator import TxnPlane

#: Packages of ``repro`` that get their own ``<layer>.host_self_s``.
LAYERS = ("sim", "rdma", "sst", "smc", "predicates", "core", "ordering",
          "shard", "txn", "storage", "metrics", "workloads")

#: Spans kept in memory; calls past the cap are counted, not stored.
MAX_SPANS = 400_000

#: Spans written to the trace file (Chrome trace-event JSON).
MAX_WRITTEN = 20_000


def _predicate_classes() -> List[type]:
    """Every concrete predicate class that defines its own hooks."""
    found, todo = [], list(Predicate.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "evaluate" in cls.__dict__ or "trigger" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


class SpanTracer:
    """Records spans and call counts at the layers' public entry points."""

    def __init__(self, sim):
        self.sim = sim
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        #: Calls per span name, stored or not.
        self.calls: Dict[str, int] = {}
        self._stacks: Dict[int, List[Tuple[int, int]]] = {}
        self._next_op = 0
        #: Router requests awaiting their replica-side span, per key.
        self._waiting: Dict[tuple, deque] = {}
        self.queue_waits: List[float] = []
        self.service_times: List[float] = []
        self.fsync_seconds = 0.0
        self._restore: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------ recording

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
        return nid

    def _stack(self) -> List[Tuple[int, int]]:
        key = id(self.sim.current_process)
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        return stack

    def _open(self, nid: int, name: str, root: bool = False,
              parent: Optional[Tuple[int, int]] = None) -> Tuple[int, int]:
        """Start a span; returns ``(index, op)`` (index -1 when over cap)."""
        self.calls[name] += 1
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else (-1, -1)
        op = parent[1]
        if op < 0 and root:
            op = self._next_op
            self._next_op += 1
        index = len(self.span_start)
        if index >= MAX_SPANS:
            return -1, op
        self.span_name.append(nid)
        self.span_start.append(self.sim.now)
        self.span_end.append(-1.0)
        self.span_parent.append(parent[0])
        self.span_op.append(op)
        return index, op

    def _close(self, index: int) -> None:
        if index >= 0:
            self.span_end[index] = self.sim.now

    # -------------------------------------------------------------- wrapping

    def _patch(self, cls: type, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _wrap_call(self, cls: type, attr: str, name: str) -> None:
        """A plain method: one span around the call."""
        orig = cls.__dict__[attr]
        nid = self._name(name)
        tracer = self

        def wrapper(obj, *args, **kwargs):
            span = tracer._open(nid, name)
            stack = tracer._stack()
            stack.append(span)
            try:
                return orig(obj, *args, **kwargs)
            finally:
                stack.pop()
                tracer._close(span[0])

        self._patch(cls, attr, wrapper)

    def _wrap_gen(self, cls: type, attr: str, name: str, root: bool = False,
                  on_open=None, on_span=None, on_close=None) -> None:
        """A generator method: the span lasts until it returns, and every
        yield passes through untouched. ``on_open`` may name the parent
        span, ``on_span`` sees the opened span, ``on_close`` the start
        instant."""
        orig = cls.__dict__[attr]
        nid = self._name(name)
        tracer = self

        def wrapper(obj, *args, **kwargs):
            parent = on_open(obj, args) if on_open is not None else None
            span = tracer._open(nid, name, root=root, parent=parent)
            if on_span is not None:
                on_span(args, kwargs, span)
            stack = tracer._stack()
            stack.append(span)
            start = tracer.sim.now
            try:
                result = yield from orig(obj, *args, **kwargs)
            finally:
                stack.remove(span)
                tracer._close(span[0])
            if on_close is not None:
                on_close(obj, args, start)
            return result

        self._patch(cls, attr, wrapper)

    def install(self) -> "SpanTracer":
        """Wrap every traced entry point (undo with :meth:`uninstall`)."""
        self._wrap_call(QueuePair, "post_write", "QueuePair.post_write")
        self._wrap_call(SST, "read", "SST.read")
        self._wrap_call(SST, "set", "SST.set")
        self._wrap_gen(SST, "push", "SST.push")
        self._wrap_call(SMC, "write_slot", "SMC.write_slot")
        self._wrap_call(SMC, "read_slot", "SMC.read_slot")
        for cls in _predicate_classes():
            if "evaluate" in cls.__dict__:
                self._wrap_call(cls, "evaluate", "Predicate.evaluate")
            if "trigger" in cls.__dict__:
                self._wrap_gen(cls, "trigger", "Predicate.trigger")
        # ``propose`` is the backend-generic alias of ``send`` (the
        # shard service calls it); both count as one entry point.
        for attr in ("send", "propose"):
            self._wrap_gen(SubgroupMulticast, attr, "SubgroupMulticast.send",
                           root=True)
        self._wrap_gen(ShardRouter, "request", "ShardRouter.request",
                       root=True, on_span=self._request_opened)
        # Each replica request method, with the router op it serves and
        # where its (key, value) sit among its arguments.
        for attr, op, key_value in (
                ("put_req", "put", lambda a: (a[1], a[2])),
                ("delete_req", "delete", lambda a: (a[1], b"")),
                ("cas_req", "cas", lambda a: (a[1], a[3])),
                ("sync_read_req", "get", lambda a: (a[0], b"")),
                ("txn_req", "txn_prepare", lambda a: (b"", a[0]))):
            self._wrap_gen(ShardReplica, attr, f"ShardReplica.{attr}",
                           on_open=self._replica_opener(op, key_value),
                           on_close=self._replica_closed)
        self._wrap_gen(TxnPlane, "run_txn", "TxnPlane.run_txn", root=True)
        self._wrap_gen(StorageDevice, "fsync", "StorageDevice.fsync",
                       on_close=self._fsync_closed)
        return self

    def uninstall(self) -> None:
        for cls, attr, orig in reversed(self._restore):
            setattr(cls, attr, orig)
        self._restore.clear()

    # ------------------------------------------- router <-> replica matching

    @staticmethod
    def _request_key(op: str, key: bytes, value: bytes) -> tuple:
        if op.startswith("txn_"):
            return ("txn", value)
        if op in ("put", "cas"):
            return (op, key, value)
        return (op, key)

    def _request_opened(self, args, kwargs, span) -> None:
        """Queue the request so the replica span serving it finds it."""
        op, key = args[0], args[1]
        value = kwargs.get("value", args[2] if len(args) > 2 else b"")
        self._waiting.setdefault(self._request_key(op, key, value),
                                 deque()).append((span, self.sim.now))

    def _replica_opener(self, op: str, key_value):
        def opened(_replica, args):
            waiting = self._waiting.get(
                self._request_key(op, *key_value(args)))
            if not waiting:
                return None
            span, started = waiting.popleft()
            self.queue_waits.append(self.sim.now - started)
            return span

        return opened

    def _replica_closed(self, _replica, _args, start: float) -> None:
        self.service_times.append(self.sim.now - start)

    def _fsync_closed(self, _device, _args, start: float) -> None:
        self.fsync_seconds += self.sim.now - start

    # ---------------------------------------------------------------- output

    def stored(self) -> int:
        return len(self.span_start)

    def write_chrome_trace(self, path: str) -> None:
        """The first :data:`MAX_WRITTEN` spans as Chrome trace events
        (timestamps in simulated microseconds)."""
        events = []
        for i in range(min(self.stored(), MAX_WRITTEN)):
            end = self.span_end[i]
            start = self.span_start[i]
            events.append({
                "name": self.names[self.span_name[i]], "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6 if end >= 0 else 0.0,
                "pid": 0, "tid": max(0, self.span_op[i]),
                "args": {"span": i, "parent": self.span_parent[i],
                         "op": self.span_op[i]},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "otherData": {"calls": self.calls,
                                     "stored": self.stored()}}, fh)


# ---------------------------------------------------------------------------
# Host self time per layer
# ---------------------------------------------------------------------------


def _layer_of(filename: str) -> str:
    """``repro.<layer>`` of a source file, else ``other``."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    head = filename[at + len(marker):].split("/", 1)[0]
    return head if head in LAYERS else "other"


def self_time_by_layer(profile) -> Dict[str, float]:
    """Profiler self time grouped by ``repro.<layer>`` (plus ``other``).

    Built-in functions (``min``, ``list.append``, ...) have no source
    file; their self time is split over their callers by the time each
    caller spent in them, and billed to the callers' layers.
    """
    stats = pstats.Stats(profile).stats
    out = {layer: 0.0 for layer in LAYERS}
    out["other"] = 0.0
    for (filename, _line, _func), (_cc, _nc, tt, _ct, callers) in \
            stats.items():
        if filename != "~":
            out[_layer_of(filename)] += tt
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0:
            out["other"] += tt
            continue
        for (cfile, _cl, _cf), edge in callers.items():
            out[_layer_of(cfile)] += tt * edge[2] / edge_total
    return out
