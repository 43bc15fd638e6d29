"""Runtime sanitizer: assert the paper's invariants on every RDMA post.

The static passes catch the *lexical* shape of violations; this module
catches the *dynamic* ones — the silent-until-scale bugs of RDMA
protocols. Three checks:

* **Lock discipline (§3.4)** — when ``early_lock_release`` is on, no
  RDMA write may be posted by a process that still holds the shared
  predicate lock. Detected via ``Lock.held_by`` (owner tracking) and
  ``Simulator.current_process`` at post time, hooked into both
  ``SST.push`` and the NIC's ``post_write``.
* **SST monotonicity (§2.2)** — the counter/flag columns of the local
  row must never regress between consecutive pushes covering them.
  A regression means somebody bypassed ``SST.set``.
* **Event-model reporting** — every violation is recorded as a
  :class:`~repro.analysis.trace.TraceEvent` (``kind="sanitize.*"``),
  optionally forwarded to an attached
  :class:`~repro.analysis.trace.Tracer`, and raised as
  :class:`SanitizerError` in strict mode.

Turn it on for a whole test run with ``SPINDLE_SANITIZE=1`` (see
tests/conftest.py), or attach by hand::

    san = Sanitizer()
    san.watch_thread(cluster.groups[0].thread)
    san.watch_sst(cluster.groups[0].sst)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..trace import TraceEvent

__all__ = ["Sanitizer", "SanitizerError", "enable_global",
           "disable_global", "global_sanitizer"]


class SanitizerError(AssertionError):
    """An invariant the protocol stack depends on was violated."""


class Sanitizer:
    """Records and (optionally) raises on runtime invariant violations."""

    def __init__(self, strict: bool = True, tracer: Any = None):
        self.strict = strict
        self.tracer = tracer
        #: All violations observed, as TraceEvents (kind='sanitize.*').
        self.violations: List[TraceEvent] = []
        self.checks_run = 0
        self._threads: List[Any] = []
        self._ssts: List[Any] = []
        #: id(sst) -> {col: last pushed value} for counter/flag columns.
        self._shadows: Dict[int, Dict[int, Any]] = {}

    # ----------------------------------------------------------- attachment

    def watch_thread(self, thread: Any) -> None:
        """Track a PredicateThread's shared lock for §3.4 discipline."""
        if thread not in self._threads:
            self._threads.append(thread)

    def watch_sst(self, sst: Any) -> None:
        """Hook an SST's push point (lock discipline + monotonicity)."""
        if sst in self._ssts:
            return
        self._ssts.append(sst)
        # Reset any stale shadow under this id(): CPython reuses object
        # ids after GC, and a dead SST's snapshot must never be compared
        # against a fresh table's columns.
        self._shadows[id(sst)] = {}
        sst.on_push.append(self._on_sst_push)

    def watch_node(self, node: Any) -> None:
        """Hook a NIC's post point (lock discipline for *all* writes,
        including raw verbs / RDMC traffic)."""
        if self._on_node_post not in node.on_post:
            node.on_post.append(self._on_node_post)

    def watch_fabric(self, fabric: Any) -> None:
        """Hook every current node of a fabric (see :meth:`watch_node`)."""
        for node in fabric.nodes.values():
            self.watch_node(node)

    # -------------------------------------------------------------- hooks

    def _on_sst_push(self, sst: Any, col_lo: int, col_hi: int,
                     dst: int) -> None:
        self.checks_run += 1
        sim = sst.fabric.sim
        self._check_lock_discipline(
            sim, sst.node_id,
            f"sst.push cols[{col_lo},{col_hi}) -> node {dst}",
        )
        self._check_monotonic(sim, sst, col_lo, col_hi)

    def _on_node_post(self, qp: Any, snap: Any) -> None:
        self.checks_run += 1
        self._check_lock_discipline(
            qp.src.sim, qp.src.node_id,
            f"post_write {snap.size_bytes}B {qp.src.node_id}->"
            f"{qp.dst.node_id}",
        )

    # ------------------------------------------------------------- checks

    def _check_lock_discipline(self, sim: Any, node_id: int,
                               what: str) -> None:
        poster = getattr(sim, "current_process", None)
        if poster is None:
            return
        for thread in self._threads:
            if thread.sim is not sim:
                continue
            if not thread.early_lock_release:
                continue  # baseline config: posting under the lock is the point
            lock = thread.lock
            if lock.locked and lock.held_by is poster:
                self._violation(
                    sim, node_id, "lock-discipline",
                    f"{what} posted while holding {lock.name!r} "
                    f"(early_lock_release=True demands release-then-post, "
                    f"paper §3.4)",
                )

    def _check_monotonic(self, sim: Any, sst: Any, col_lo: int,
                         col_hi: int) -> None:
        from ...sst.fields import COUNTER, FLAG

        shadow = self._shadows.setdefault(id(sst), {})
        for col in range(col_lo, col_hi):
            spec = sst.layout.spec(col)
            if spec.kind not in (COUNTER, FLAG):
                continue
            value = sst.read_own(col)
            prev = shadow.get(col)
            if prev is not None:
                regressed = (
                    (spec.kind == COUNTER and value < prev)
                    or (spec.kind == FLAG and bool(prev) and not value)
                )
                if regressed:
                    self._violation(
                        sim, sst.node_id, "monotonicity",
                        f"{spec.kind} column {spec.name!r} regressed "
                        f"across pushes: {prev!r} -> {value!r} "
                        f"(batched acks/§3.4 are unsound; some write "
                        f"bypassed SST.set)",
                    )
            shadow[col] = value

    # ---------------------------------------------------------- reporting

    def _violation(self, sim: Any, node: int, kind: str,
                   detail: str) -> None:
        event = TraceEvent(sim.now, node, f"sanitize.{kind}", detail)
        self.violations.append(event)
        if self.tracer is not None:
            self.tracer.record(event.time, event.node, event.kind,
                               event.detail)
        if self.strict:
            raise SanitizerError(str(event))

    def report(self) -> str:
        """Human-readable summary of the run."""
        lines = [
            f"sanitizer: {self.checks_run} checks, "
            f"{len(self.violations)} violation(s), "
            f"{len(self._ssts)} SST(s), {len(self._threads)} thread(s) "
            f"watched"
        ]
        lines.extend(str(v) for v in self.violations)
        return "\n".join(lines)


# ==========================================================================
# Global (process-wide) installation — the SPINDLE_SANITIZE=1 path
# ==========================================================================

_GLOBAL: Optional[Sanitizer] = None
_PATCHED: Dict[str, Any] = {}


def global_sanitizer() -> Optional[Sanitizer]:
    """The installed process-wide sanitizer, if any."""
    return _GLOBAL


def enable_global(strict: bool = True, tracer: Any = None) -> Sanitizer:
    """Install a process-wide sanitizer.

    Wraps ``SST.__init__``, ``PredicateThread.__init__`` and
    ``RdmaFabric.add_node`` so that every instance created afterwards is
    watched automatically — this is how ``SPINDLE_SANITIZE=1`` covers
    the whole test suite without touching individual tests. Idempotent.
    """
    global _GLOBAL
    if _GLOBAL is not None:
        return _GLOBAL

    from ...predicates.framework import PredicateThread
    from ...rdma.fabric import RdmaFabric
    from ...sst.table import SST

    sanitizer = Sanitizer(strict=strict, tracer=tracer)

    orig_sst_init = SST.__init__
    orig_thread_init = PredicateThread.__init__
    orig_add_node = RdmaFabric.add_node

    def sst_init(self, *args, **kwargs):
        orig_sst_init(self, *args, **kwargs)
        sanitizer.watch_sst(self)

    def thread_init(self, *args, **kwargs):
        orig_thread_init(self, *args, **kwargs)
        sanitizer.watch_thread(self)

    def add_node(self, *args, **kwargs):
        node = orig_add_node(self, *args, **kwargs)
        sanitizer.watch_node(node)
        return node

    SST.__init__ = sst_init
    PredicateThread.__init__ = thread_init
    RdmaFabric.add_node = add_node
    _PATCHED.update(
        sst=orig_sst_init, thread=orig_thread_init, add_node=orig_add_node
    )
    _GLOBAL = sanitizer
    return sanitizer


def disable_global() -> Optional[Sanitizer]:
    """Undo :func:`enable_global`; returns the sanitizer for inspection."""
    global _GLOBAL
    if _GLOBAL is None:
        return None
    from ...predicates.framework import PredicateThread
    from ...rdma.fabric import RdmaFabric
    from ...sst.table import SST

    SST.__init__ = _PATCHED.pop("sst")
    PredicateThread.__init__ = _PATCHED.pop("thread")
    RdmaFabric.add_node = _PATCHED.pop("add_node")
    sanitizer, _GLOBAL = _GLOBAL, None
    return sanitizer
