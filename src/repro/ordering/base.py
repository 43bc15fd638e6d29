"""The ordering-backend contract (docs/ORDERING.md).

A cluster instantiates a protocol through :class:`OrderingBackend`,
chosen by name from :data:`BACKENDS`. The per-node handle each backend
builds implements :class:`~repro.core.endpoint.OrderingEndpoint`, which
lives in ``repro.core`` next to the Spindle multicast that implements
it. The conformance suite (tests/test_ordering_conformance.py) is the
executable definition of both contracts.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["OrderingBackend", "BACKENDS", "resolve_backend"]


class OrderingBackend:
    """Factory for a cluster's per-node protocol stacks.

    ``build_groups`` returns one *group object* per view member. A
    group object mirrors the :class:`~repro.core.group.GroupNode`
    surface the cluster and apps rely on: ``subgroup(sg_id)`` (an
    :class:`~repro.core.endpoint.OrderingEndpoint`),
    ``on_delivery(sg_id, cb)``, ``stats(sg_id)``, ``multicasts`` (dict,
    for tracers), ``start`` / ``stop`` / ``kill`` / ``teardown``,
    ``protocol_processes(scope)`` (stall targets for fault injection),
    ``membership`` (None unless view-synchronous) and ``persistence``
    (dict, may be empty).
    """

    name: str = "abstract"
    #: Mirrors ``OrderingEndpoint.view_synchronous`` for the whole
    #: backend: gates ``enable_membership`` and the recovery plane.
    view_synchronous: bool = False
    #: True when the protocol goes fully idle once the workload drains
    #: (Spindle's event-driven predicate thread), so
    #: ``run_to_quiescence`` terminates. Backends with standing timers
    #: (Paxos heartbeats) set False; drivers must poll progress and
    #: ``stop()`` instead (see ``repro.workloads.runner``).
    quiesces: bool = True

    def build_groups(self, cluster, view) -> Dict[int, Any]:
        """Instantiate (but not start) one group object per member."""
        raise NotImplementedError

    def on_node_restart(self, cluster, node_id: int) -> None:
        """A crashed node's NIC came back (crash-recovery model:
        volatile state lost). Spindle defers to the recovery plane;
        self-healing backends respawn the node's protocol state here."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def _spindle() -> OrderingBackend:
    from .spindle import SpindleBackend

    return SpindleBackend()


def _paxos() -> OrderingBackend:
    from .paxos import PaxosBackend

    return PaxosBackend()


#: name -> zero-argument factory. Registry for ``Cluster(backend=...)``
#: and the CLI/bench ``--backend`` flags.
BACKENDS = {
    "spindle": _spindle,
    "paxos": _paxos,
}


def resolve_backend(spec) -> OrderingBackend:
    """``Cluster(backend=...)`` coercion: a name from :data:`BACKENDS`,
    an :class:`OrderingBackend` instance (passed through), or None
    (the default Spindle stack)."""
    if spec is None:
        return _spindle()
    if isinstance(spec, OrderingBackend):
        return spec
    try:
        factory = BACKENDS[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown ordering backend {spec!r}; "
            f"known: {', '.join(BACKENDS)}") from None
    return factory()
