"""Cross-shard transactions over per-subgroup total orders.

The transaction plane (docs/TRANSACTIONS.md) composes multi-key
atomicity out of the sharded service's independent per-shard orders:

* :class:`~repro.txn.coordinator.TxnPlane` — two-phase ordering
  coordinator (prepare records sequenced through each participant
  shard's multicast, then a settle round), presumed-abort WAL on the
  coordinator node's storage device, single-shard fast path;
* :mod:`~repro.txn.cc` — the pluggable :class:`ConcurrencyControl`
  strategies: OCC with fenced validation reads, strict 2PL with
  wound-wait and the ALock local/remote asymmetric fast path;
* :func:`~repro.txn.recover.recover_txns` — coordinator-crash recovery
  (import it from :mod:`repro.txn.recover`).
"""

from .cc import (CC_PROTOCOLS, ConcurrencyControl, OccControl,
                 TwoPhaseLocking, resolve_cc)
from .coordinator import TxnConfig, TxnOp, TxnOutcome, TxnPlane
from .locks import LockTable, TxnAborted, TxnHandle
from .records import PrepareRecord, SettleRecord

__all__ = [
    "TxnConfig", "TxnOp", "TxnOutcome", "TxnPlane",
    "ConcurrencyControl", "OccControl", "TwoPhaseLocking",
    "CC_PROTOCOLS", "resolve_cc",
    "LockTable", "TxnAborted", "TxnHandle",
    "PrepareRecord", "SettleRecord",
]
