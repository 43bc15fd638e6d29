"""The SST: a replicated table of monotonic state over one-sided RDMA.

Each node holds a full local copy of the table (paper §2.2). A node may
*write* only its own row, and publishes updates by pushing a contiguous
column span of that row to selected peers with one RDMA write each.
Reads of other rows are local reads of the last-pushed state.

Monotonicity is enforced at the write point for counter and flag
columns: the whole protocol stack (batched acknowledgments, early lock
release) relies on it, so violating it is a programming error that we
fail loudly on.

Column minimums the protocol tests on every pass (slot reuse,
stability) are kept as column watermarks (:mod:`repro.sst.watermark`),
fed at the two places a row replica changes: :meth:`SST.set` and
:meth:`SST.note_remote_write`.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Optional, Sequence

from ..metrics.registry import null_registry
from ..rdma.fabric import RdmaFabric
from ..rdma.memory import CellRegion
from ..rdma.nic import QueuePair, RdmaNode
from .fields import COUNTER, FLAG, SSTLayout
from .watermark import ColumnWatermark

__all__ = ["SST", "wire_ssts"]


class SST:
    """One node's replica of the shared state table.

    ``members`` lists the row owners (top-level group membership, fixed
    for the duration of a view). ``node`` is the local RDMA endpoint.
    """

    #: Happens-before tracker hooks (repro.analysis.lint.hb).
    #: ``hb_hook(sst, col, spec)`` fires after every :meth:`set` — the
    #: SST write point is where cross-thread races on shared protocol
    #: state become visible.  ``hb_read_hook(sst, owner)`` fires on
    #: reads of *peer* rows: a monotonic read of remotely-pushed state
    #: is the SST's synchronization mechanism (§2.2), so the reader
    #: joins the clock the remote writer parked on the row replica.
    hb_hook = None
    hb_read_hook = None

    def __init__(
        self,
        layout: SSTLayout,
        fabric: RdmaFabric,
        node: RdmaNode,
        members: Sequence[int],
        metrics: Optional[Any] = None,
    ):
        layout.freeze()
        self.layout = layout
        self.fabric = fabric
        self.node = node
        self.node_id = node.node_id
        self.members: List[int] = list(members)
        if self.node_id not in self.members:
            raise ValueError(
                f"local node {self.node_id} not in members {self.members}"
            )
        self.rows: Dict[int, CellRegion] = {}
        #: Row replica -> owner: tells this node's SST rows apart from
        #: every other region registered on the node.
        self.row_owners: Dict[CellRegion, int] = {}
        for owner in self.members:
            region = CellRegion(layout.cell_sizes,
                                name=f"sst-row{owner}@{self.node_id}",
                                kinds=layout.cell_kinds)
            # Pre-view initialization happens before any push can observe
            # the row, so the raw fill is sound here (and only here).
            region.cells = layout.initial_values()  # spindle-lint: allow[sst-monotonic-write]
            node.register(region)
            self.rows[owner] = region
            self.row_owners[region] = owner
        #: column -> watermarks over it (see :meth:`watermark`).
        self._watched: Dict[int, List[ColumnWatermark]] = {}
        #: rkeys of the replicas of *my* row at each peer (set by wire_ssts).
        self._remote_row_keys: Dict[int, int] = {}
        #: Queue pairs to peers, cached by destination on first push.
        self._qps: Dict[int, QueuePair] = {}
        #: Count of push operations (RDMA writes) issued through this SST.
        self.pushes_posted = 0
        #: Registry counter mirroring pushes_posted (docs/METRICS.md);
        #: a shared no-op when no metrics scope is given.
        if metrics is None:
            metrics = null_registry()
        self._push_counter = metrics.counter(
            "spindle_sst_pushes_total",
            "RDMA writes posted through this node's SST")
        #: Observers fired as ``hook(sst, col_lo, col_hi, dst)`` after
        #: each RDMA write posted by :meth:`push` (used by the runtime
        #: sanitizer for lock-discipline and monotonicity checks).
        self.on_push: List[Any] = []

    # ----------------------------------------------------------------- reads

    def read(self, owner: int, col: int) -> Any:
        """Read a cell of any row from the local copy (always safe: cells
        are written atomically)."""
        if SST.hb_read_hook is not None and owner != self.node_id:
            SST.hb_read_hook(self, owner)
        return self.rows[owner].read(col)

    def read_own(self, col: int) -> Any:
        """Read a cell of this node's own row."""
        return self.rows[self.node_id].read(col)

    def column(self, col: int, owners: Optional[Iterable[int]] = None) -> List[Any]:
        """Read one column across rows (defaults to all members)."""
        owners = self.members if owners is None else list(owners)
        if SST.hb_read_hook is not None:
            for o in owners:
                if o != self.node_id:
                    SST.hb_read_hook(self, o)
        return [self.rows[o].read(col) for o in owners]

    def watermark(self, col: int, owners: Sequence[int]) -> ColumnWatermark:
        """An incrementally maintained ``min`` of column ``col`` over the
        rows of ``owners``.

        The watermark sees every :meth:`set` of the own row; remote
        writes reach it through :meth:`note_remote_write`, which the
        node's remote-write hook must call for every write landing in
        a row replica that may cover ``col``.
        """
        wm = ColumnWatermark(self, col, owners)
        self._watched.setdefault(col, []).append(wm)
        return wm

    # ---------------------------------------------------------------- writes

    def set(self, col: int, value: Any) -> None:
        """Write a cell of the local row (visible remotely only after push).

        Counter and flag columns are checked for monotonicity; the
        correctness of batched acknowledgments and of posting after lock
        release both depend on it (paper §3.2, §3.4).
        """
        spec = self.layout.spec(col)
        row = self.rows[self.node_id]
        if spec.kind == COUNTER:
            old = row.read(col)
            if value < old:
                raise ValueError(
                    f"counter {spec.name!r} must not decrease: {old} -> {value}"
                )
        elif spec.kind == FLAG:
            old = row.read(col)
            if old and not value:
                raise ValueError(f"flag {spec.name!r} must not reset: True -> False")
        # This is THE monotonic write point the lint pass funnels
        # everyone through; the raw write below is the one sanctioned use.
        row.write_local(col, value)  # spindle-lint: allow[sst-monotonic-write]
        watched = self._watched.get(col)
        if watched is not None:
            for wm in watched:
                wm.update(self.node_id, value)
        if SST.hb_hook is not None:
            SST.hb_hook(self, col, spec)

    def note_remote_write(self, owner: int, offset: int,
                          cells: Sequence[Any]) -> None:
        """Feed a remote write that landed in ``owner``'s row replica,
        covering columns ``[offset, offset + len(cells))``, to the
        watermarks on those columns."""
        watched = self._watched
        col = offset
        for value in cells:
            wms = watched.get(col)
            if wms is not None:
                for wm in wms:
                    wm.update(owner, value)
            col += 1

    # ----------------------------------------------------------------- push

    def push(
        self,
        col_lo: int,
        col_hi: int,
        targets: Optional[Iterable[int]] = None,
    ) -> Generator[float, None, None]:
        """Push columns ``[col_lo, col_hi)`` of the local row to peers.

        A generator to be ``yield from``-ed by the calling simulated
        thread: posting each RDMA write costs that thread
        ``post_overhead`` CPU (paper §3.2: ~1 µs per post). One write is
        posted per target; the span travels as one RDMA write.
        """
        if not 0 <= col_lo < col_hi <= len(self.layout):
            raise IndexError(f"bad column span [{col_lo}, {col_hi})")
        if targets is None:
            targets = self.members
        row = self.rows[self.node_id]
        length = col_hi - col_lo
        post_cost = self.fabric.latency.post_overhead
        qps = self._qps
        # One copy of the span serves every target. The row's version
        # moves on any mutation (e.g. an SST.set by another thread during
        # a post_cost yield), and only then is the span copied again, so
        # each write still carries the row as it was at its post instant.
        snap = None
        version = -1
        for dst in targets:
            if dst == self.node_id:
                continue
            yield post_cost
            qp = qps.get(dst)
            if qp is None:
                qp = qps[dst] = self.fabric.queue_pair(self.node_id, dst)
            if row.version != version:
                version = row.version
                snap = row.snapshot(col_lo, length)
            qp.post_write(row, col_lo, self._remote_row_keys[dst], col_lo,
                          length, snapshot=snap)
            self.pushes_posted += 1
            self._push_counter.inc()
            for hook in self.on_push:
                hook(self, col_lo, col_hi, dst)

    def push_col(self, col: int, targets: Optional[Iterable[int]] = None):
        """Push a single column of the local row."""
        return self.push(col, col + 1, targets)

    # ------------------------------------------------------------- utilities

    def format_table(self, columns: Optional[Sequence[int]] = None) -> str:
        """Render the local copy as an ASCII table (Table 1 style)."""
        if columns is None:
            columns = range(len(self.layout))
        names = [self.layout.spec(c).name for c in columns]
        header = " | ".join(["node".ljust(6)] + [n.ljust(12) for n in names])
        lines = [header, "-" * len(header)]
        for owner in self.members:
            cells = []
            for c in columns:
                value = self.rows[owner].read(c)
                cells.append(str(value).ljust(12))
            lines.append(" | ".join([str(owner).ljust(6)] + cells))
        return "\n".join(lines)


def wire_ssts(ssts: Dict[int, "SST"]) -> None:
    """Exchange region keys among a set of SST replicas.

    Models the address/rkey exchange Derecho performs at the start of a
    view (paper §2.3): afterwards each node can push its row into every
    peer's copy.
    """
    for sst in ssts.values():
        for peer_id, peer_sst in ssts.items():
            if peer_id == sst.node_id:
                continue
            sst._remote_row_keys[peer_id] = peer_sst.rows[sst.node_id].key
