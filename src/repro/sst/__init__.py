"""SST — the Shared State Table (paper §2.2).

A replicated table of monotonic per-node state variables pushed among
group members with one-sided RDMA writes.
"""

from .fields import BLOB, COUNTER, FLAG, SLOT, ColumnSpec, SSTLayout
from .push import GuardedValue
from .table import SST, wire_ssts
from .watermark import ColumnWatermark

__all__ = [
    "SST",
    "SSTLayout",
    "ColumnWatermark",
    "ColumnSpec",
    "GuardedValue",
    "wire_ssts",
    "COUNTER",
    "FLAG",
    "SLOT",
    "BLOB",
]
