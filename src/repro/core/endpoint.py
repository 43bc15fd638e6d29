"""The ordering-endpoint contract (docs/ORDERING.md).

Everything above the total order — the KV store, the sharded service
plane, the workload generators, the benches — talks to the multicast
through :class:`OrderingEndpoint`. The Spindle SST multicast
(:class:`~repro.core.multicast.SubgroupMulticast`) and the Multi-Paxos
baseline (:class:`~repro.ordering.paxos.PaxosEndpoint`) implement it;
it lives here, in the lowest layer that implements it, and
:mod:`repro.ordering` re-exports it. The conformance suite
(tests/test_ordering_conformance.py) is its executable definition.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

__all__ = ["OrderingEndpoint"]


class OrderingEndpoint:
    """One node's handle on one subgroup's total order.

    Implementations guarantee, for the live members of a subgroup
    (the conformance suite pins each of these):

    * **total order** — all members deliver the same messages in the
      same order;
    * **per-sender FIFO, gap-free, exactly-once** — the k-th delivery
      from sender rank ``r`` is ``r``'s k-th successful
      :meth:`propose`, so propose tickets and delivery counts line up;
    * **wedge-then-settle** — after :meth:`wedge` no new proposals are
      accepted, outstanding ones resolve, and members' logs stay
      order-consistent prefixes of one another.

    Required attributes (set by implementations):

    ``sim``, ``subgroup_id``, ``node_id``, ``members``, ``senders``,
    ``my_rank`` (sender rank or None), ``window``, ``delivery_mode``,
    ``wedged``, ``finished_sending``, ``stats``
    (:class:`~repro.core.stats.SubgroupStats`).
    """

    #: True when the backend exposes a bounded ring/send window whose
    #: occupancy is the natural congestion signal (Spindle's SST ring,
    #: §2.3). Quorum backends without a shared ring derive congestion
    #: from their in-flight proposal count instead; callers must not
    #: reach for ``window_in_use`` unless this is set — use
    #: :meth:`congestion`.
    has_send_window: bool = False
    #: True when the backend participates in the virtually-synchronous
    #: membership/view-change plane (wedge + ragged trim + epoch
    #: restart). Backends that handle failures internally (Paxos leader
    #: change) set False, and the recovery coordinator refuses to drive
    #: them.
    view_synchronous: bool = False

    # ----------------------------------------------------------- proposing

    def propose(self, size: int, payload: Optional[bytes] = None
                ) -> Generator[Any, Any, int]:
        """Submit one message to the total order.

        A generator for a simulated sender process to ``yield from``.
        Blocks (in simulated time) while the backend's pipeline is
        full; raises ``RuntimeError`` once :meth:`wedge` was called.
        Returns the message's **per-sender ticket**: this sender's 0-based
        proposal index, which equals the position of the message in the
        sender's delivered FIFO (exactly-once + gap-freedom make the
        k-th delivery from this sender carry ticket ``k``).
        """
        raise NotImplementedError

    def mark_finished(self) -> None:
        """Hint that this node will propose no more (workload end)."""
        raise NotImplementedError

    # ------------------------------------------------------------- control

    def wedge(self) -> None:
        """Stop accepting new proposals (drain for a reconfiguration)."""
        raise NotImplementedError

    def stable_prefix(self) -> int:
        """Highest sequence number this node knows to be delivered (or
        deliverable) at *every* live member — Spindle's min received
        column, Paxos's commit watermark. Monotonic."""
        raise NotImplementedError

    def congestion(self) -> float:
        """Saturation of this sender's pipeline in ``[0, 1]``.

        1.0 means the next :meth:`propose` would block (or the endpoint
        is wedged). The request router's admission control is built on
        this signal alone, so it works for backends with and without a
        send window (docs/SHARDING.md).
        """
        raise NotImplementedError
