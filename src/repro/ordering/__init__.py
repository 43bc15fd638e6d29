"""Pluggable ordering backends (docs/ORDERING.md).

The atomic-multicast machinery is reached through two small contracts:

* :class:`~repro.core.endpoint.OrderingEndpoint` — one node's handle on
  one subgroup's total order (propose / deliver-upcall / wedge /
  stable-prefix / congestion), implemented by the Spindle SST multicast
  (:class:`~repro.core.multicast.SubgroupMulticast`) and by the
  Multi-Paxos baseline (:class:`~repro.ordering.paxos.PaxosEndpoint`).
* :class:`~repro.ordering.base.OrderingBackend` — the factory a
  :class:`~repro.workloads.cluster.Cluster` uses to instantiate one
  group object per node for a view (``Cluster(backend="paxos")``).

This package exports the contracts only. The backends themselves come
from :mod:`repro.ordering.spindle` and :mod:`repro.ordering.paxos`;
:data:`BACKENDS` loads each one the first time it is chosen.
"""

from ..core.endpoint import OrderingEndpoint
from .base import BACKENDS, OrderingBackend, resolve_backend

__all__ = [
    "BACKENDS",
    "OrderingBackend",
    "OrderingEndpoint",
    "resolve_backend",
]
