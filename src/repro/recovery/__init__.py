"""Crash-recovery & rejoin plane (docs/RECOVERY.md).

Modules (import names from them directly):

* :mod:`repro.recovery.transfer` — chunked state transfer over the
  simulated fabric with per-chunk timeout, bounded exponential backoff
  with jitter, source failover and CRC validation.
* :mod:`repro.recovery.coordinator` — the
  :class:`~repro.recovery.coordinator.RecoveryCoordinator` driving
  restart → replay → catch-up → rejoin at the next epoch boundary.
* :mod:`repro.recovery.verify` — the cross-view virtual-synchrony
  safety verifier (atomicity, total order, gap-freedom, trim
  conformance).
* :mod:`repro.recovery.powerloss` — whole-cluster power-loss recovery:
  every node restarts from its durable devices, logs reconcile
  longest-log-wins (docs/DURABILITY.md).

The ragged-edge trim the coordinator records lives in
:mod:`repro.core.trim`, and coordinator-crash transaction recovery in
:mod:`repro.txn.recover`. This package re-exports nothing: the sharded
service imports :mod:`repro.recovery.transfer` into every cluster, and
eager re-exports would load the coordinator, verifier and power-loss
modules along with it.
"""
