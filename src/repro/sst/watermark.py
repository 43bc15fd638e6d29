"""Column watermarks: the incremental min of one SST column.

Spindle's slot-reuse and stability rules are tests on a column minimum
(paper §2.3, §2.4): a ring slot is reusable once ``min(delivered_num)``
over the members has passed it, a message is stable once
``min(received_num)`` has. SST columns are monotone (§2.2), so the
minimum only moves up, and moves only when the *last* owner sitting at
it advances. A :class:`ColumnWatermark` keeps a per-owner mirror of the
column, the current minimum and how many owners sit at it; an update is
O(1) unless it lifts the last owner off the minimum, which costs one
pass over the mirror.

The mirror is fed at the only two places a row replica changes:
:meth:`SST.set <repro.sst.table.SST.set>` for the own row, and
:meth:`SST.note_remote_write <repro.sst.table.SST.note_remote_write>`
for remote writes landing in this node's row replicas. The update is
exact for any value, monotone or not, so the watermark equals the
column scan at every instant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import SST

__all__ = ["ColumnWatermark"]


class ColumnWatermark:
    """``min(sst.read(o, col) for o in owners)``, maintained incrementally.

    :attr:`value` is the raw minimum (no hooks; for memo tokens and
    advance checks). :meth:`read` is the protocol read: it returns the
    same value and, when the happens-before tracker is armed, fires
    ``SST.hb_read_hook`` for every peer row exactly as the scan did.

    The watermark is a mirror of row cells and changes wherever they
    do: under the shared predicate lock at ``SST.set``, and with no host
    lock where a one-sided remote write lands (which is why the RDMA
    layer is exempt from lockset inference). Readers see one monotone
    value, as they would reading the cells themselves.
    """

    __slots__ = ("sst", "col", "value", "_values", "_at_min", "_peers")

    def __init__(self, sst: "SST", col: int, owners: Sequence[int]):
        self.sst = sst
        self.col = col
        self._values: Dict[int, Any] = {
            owner: sst.rows[owner].read(col) for owner in owners
        }
        self._peers = [o for o in self._values if o != sst.node_id]
        self.value, self._at_min = self._lowest()

    def _lowest(self) -> Tuple[Any, int]:
        """(min, owners at it) by one pass over the mirror."""
        low = min(self._values.values())
        return low, sum(1 for v in self._values.values() if v == low)

    def update(self, owner: int, value: Any) -> None:
        """Record that ``owner``'s cell of the column now holds ``value``
        (owners outside the watermark's set are ignored)."""
        values = self._values
        old = values.get(owner, value)
        if value == old:
            return
        values[owner] = value
        low = self.value
        if value < low:
            state = (value, 1)
        elif value == low:
            state = (low, self._at_min + 1)
        elif old == low:
            # The owner left the min; rescan only if it was the last.
            state = ((low, self._at_min - 1) if self._at_min > 1
                     else self._lowest())
        else:
            return
        self.value, self._at_min = state

    def read(self) -> Any:
        """The column minimum, as a protocol read of every peer row."""
        hook = type(self.sst).hb_read_hook
        if hook is not None:
            for owner in self._peers:
                hook(self.sst, owner)
        return self.value
