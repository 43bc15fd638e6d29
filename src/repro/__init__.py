"""Spindle: optimized atomic multicast on (simulated) RDMA.

A full reproduction of *Spindle: Techniques for Optimizing Atomic
Multicast on RDMA* (Jha, Rosa & Birman, ICDCS 2022): the Derecho
substrate (SST, SMC, predicate thread, virtual-synchrony membership),
the Spindle optimizations (opportunistic batching, null-sends, efficient
thread synchronization, in-place vs. memcpy delivery), an OMG-DDS layer
with four QoS levels, and the experiment harness that regenerates every
figure in the paper's evaluation — all running on a deterministic
discrete-event RDMA fabric simulator.

Quickstart::

    from repro import Cluster, SpindleConfig

    cluster = Cluster(num_nodes=3, config=SpindleConfig.optimized())
    group = cluster.create_group(message_size=1024, window_size=100)
    ... see examples/quickstart.py

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "0.1.0"

__all__ = ["SpindleConfig", "TimingModel", "Cluster", "__version__"]


def __getattr__(name):
    # Lazy (PEP 562): every `import repro.<layer>` runs this file first,
    # so eager imports here would make `import repro.sim` load the whole
    # stack instead of its own 6 modules.
    if name in ("SpindleConfig", "TimingModel"):
        from .core import config

        return getattr(config, name)
    if name == "Cluster":
        from .workloads.cluster import Cluster

        return Cluster
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
