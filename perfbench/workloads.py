"""The benchmark's four workloads, their simulated metrics and output checks.

Each workload is one seeded load on one simulated cluster, driven on the
simulated clock by simulated client coroutines (one process, one
thread). The workload seed drives every client RNG — sender start
offsets, arrival gaps, key choice, txn programs — while the
``Cluster`` seed stays fixed at :data:`CLUSTER_SEED`. Everything here
is simulated time; host time is measured by the caller.

A workload object is used in three steps::

    w = WORKLOADS["kv_open_loop"](seed)
    w.setup()        # build the cluster, start router/txn plane, spawn clients
    w.run()          # drive the simulation to quiescence
    result = w.result()   # simulated metrics, layer counters, output checks

The benchmark reads only public functions and counters of the layers.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from collections import Counter
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SpindleConfig
from repro.shard import RouterConfig
from repro.sim.units import us
from repro.txn import TxnOp
from repro.workloads import Cluster, SloStats, open_loop_client
from summary import sim_metrics

#: The cluster's own seed: fixed, so only the client inputs vary by seed.
CLUSTER_SEED = 3

#: Per-workload latency limits (simulated seconds) for ``slo_met_frac``.
SLO_LIMITS = {
    "mcast_batched": us(3500.0),
    "mcast_unbatched": us(9000.0),
    "kv_open_loop": us(100.0),
    "txn_contended": us(500.0),
}


def fingerprint(items) -> str:
    """Stable short digest of a sequence of reprs."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output checks (pure functions over recorded outputs, so tests can feed
# them corrupted copies)
# ---------------------------------------------------------------------------


def check_mcast_logs(logs: Dict[int, List[Tuple[int, int]]],
                     senders: Sequence[int], per_sender: int) -> List[str]:
    """Every member delivered every message, per-sender FIFO, in one
    identical total order. ``logs`` maps member -> delivered
    ``(sender, index)`` sequence."""
    problems = []
    want = per_sender * len(senders)
    digests = {}
    for member, log in sorted(logs.items()):
        if len(log) != want:
            problems.append(f"member {member} delivered {len(log)}/{want}")
        nxt = {s: 0 for s in senders}
        for sender, index in log:
            if nxt.get(sender) != index:
                problems.append(f"member {member}: sender {sender} message "
                                f"{index} out of FIFO order")
                break
            nxt[sender] += 1
        digests[member] = fingerprint(log)
    if len(set(digests.values())) > 1:
        problems.append(f"delivery orders differ across members: {digests}")
    return problems


def check_kv(stats: SloStats, verifier_report, history) -> List[str]:
    """Replica agreement, no lost completions, per-key linearizability."""
    from repro.analysis.linearize import check_history

    problems = []
    if not verifier_report.ok:
        problems.extend(verifier_report.violations[:3])
    done = stats.ok + stats.rejected + stats.timeouts
    if done != stats.submitted:
        problems.append(f"ok+rejected+timeouts = {done} != submitted "
                        f"{stats.submitted}")
    report = check_history(history)
    if not report.ok:
        problems.extend(report.violations[:3])
    return problems


def check_txn(outcomes: list, expected: int, counters,
              verifier_report) -> List[str]:
    """Every client finished, replicas agree, every txn has a verdict."""
    problems = []
    if len(outcomes) != expected:
        problems.append(f"{len(outcomes)}/{expected} txns finished")
    if not verifier_report.ok:
        problems.extend(verifier_report.violations[:3])
    if counters.committed + counters.aborted != len(outcomes):
        problems.append(f"committed {counters.committed} + aborted "
                        f"{counters.aborted} != attempted {len(outcomes)}")
    return problems


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------


class Result:
    """Simulated outcome of one workload run."""

    def __init__(self, *, attempted: int, failed: int, latencies: List[float],
                 slo_limit: float, first_op: float, last_done: float,
                 sim_gbps: float, order_digest: str, problems: List[str],
                 counters: Dict[str, float],
                 samples_wanted: Optional[int] = None):
        self.attempted = attempted
        #: Latency samples a fault-free run yields (one per op, or one
        #: per op and member on the multicast workloads); the shortfall
        #: counts as SLO misses.
        self.samples_wanted = (samples_wanted if samples_wanted is not None
                               else attempted)
        self.failed = failed
        self.completed = attempted - failed
        self.latencies = sorted(latencies)
        self.slo_limit = slo_limit
        self.first_op = first_op
        self.last_done = last_done
        self.sim_gbps = sim_gbps
        self.order_digest = order_digest
        self.problems = problems
        #: Public layer counters (``layer.name`` -> value), read after the run.
        self.counters = counters

    def raw(self) -> dict:
        """What :func:`summary.sim_metrics` pools across runs."""
        return {"attempted": self.attempted, "completed": self.completed,
                "span": self.last_done - self.first_op,
                "latencies": self.latencies, "slo_limit": self.slo_limit,
                "samples_wanted": self.samples_wanted,
                "sim_gbps": self.sim_gbps}

    def sim_metrics(self) -> Dict[str, float]:
        """The simulated end-to-end metrics (exact at a fixed seed)."""
        return sim_metrics([self.raw()])

    def identity(self) -> tuple:
        """Everything simulated that must repeat exactly at one seed."""
        return (self.attempted, self.failed, self.order_digest,
                tuple(sorted(self.sim_metrics().items())),
                tuple(sorted(self.counters.items())))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Common plumbing: the cluster and the shared layer counters."""

    name = ""
    cluster: Cluster

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def sized(self, n: int) -> int:
        """Scale a size knob (tests run tiny instances)."""
        return max(1, int(round(n * self.scale)))

    def run(self) -> None:
        self.cluster.run_to_quiescence(max_time=30.0)

    def layer_counters(self, ops: int, span: float) -> Dict[str, float]:
        """Per-layer counts read from the layers' public counters."""
        cluster = self.cluster
        fabric = cluster.fabric
        threads = [g.thread for _, g in sorted(cluster.groups.items())]
        busy = sum(t.busy_time for t in threads)
        post = sum(t.post_time for t in threads)
        evals_total = sum(t.evals_total for t in threads)
        evals_skipped = sum(t.evals_skipped for t in threads)
        batches = {"send": Counter(), "recv": Counter(), "deliver": Counter()}
        nulls = 0
        wait = 0.0
        senders = 0
        for _nid, group in sorted(cluster.groups.items()):
            for _sg, mc in sorted(group.multicasts.items()):
                stats = mc.stats
                batches["send"].update(stats.send_batches)
                batches["recv"].update(stats.receive_batches)
                batches["deliver"].update(stats.delivery_batches)
                nulls += stats.nulls_sent
                if stats.sent:
                    senders += 1
                    wait += stats.sender_wait_time

        def mean(hist):
            total = sum(hist.values())
            return (sum(s * c for s, c in hist.items()) / total
                    if total else 0.0)

        store = cluster.storage
        storage_bytes = sum(dev.billed_total
                            for dev in store.devices.values())
        return {
            "sim.events": cluster.sim.events_executed,
            "sim.peak_pending": cluster.sim.peak_pending_events,
            "rdma.writes_per_op": fabric.total_writes_posted() / ops,
            "rdma.bytes_per_op": fabric.total_bytes_posted() / ops,
            "rdma.drops": fabric.total_writes_dropped(),
            "predicates.evals_attempted": evals_total,
            "predicates.memo_hit_frac": (evals_skipped / evals_total
                                         if evals_total else 0.0),
            "predicates.busy_sim_s": busy,
            "predicates.post_frac": post / busy if busy else 0.0,
            "core.sender_wait_frac": (wait / (senders * span)
                                      if senders and span > 0 else 0.0),
            "core.batch_send": mean(batches["send"]),
            "core.batch_recv": mean(batches["recv"]),
            "core.batch_deliver": mean(batches["deliver"]),
            "core.nulls_per_op": nulls / ops,
            "storage.fsyncs_per_op": store.counters().get("fsyncs", 0) / ops,
            "storage.bytes_per_op": storage_bytes / ops,
        }


class _Mcast(Workload):
    """Closed-loop continuous senders in one subgroup over all nodes."""

    nodes = 0
    per_sender = 0
    config = staticmethod(SpindleConfig.optimized)
    size = 10240
    window = 100
    #: Seeded start offsets: each sender's first send waits U[0, this).
    max_start_offset = us(2.0)

    def setup(self) -> None:
        cluster = Cluster(self.nodes, config=self.config(), seed=CLUSTER_SEED)
        cluster.add_subgroup(window=self.window, message_size=self.size)
        cluster.build()
        self.cluster = cluster
        self.count = self.sized(self.per_sender)
        self.senders = list(cluster.view.subgroups[0].senders)
        #: (sender, index) -> simulated instant ``send`` returned.
        self.sent_at: Dict[Tuple[int, int], float] = {}
        self.first_send = float("inf")
        self.logs: Dict[int, List[Tuple[int, int]]] = {}
        self.latencies: List[float] = []
        rng = Random(self.seed)
        for nid in cluster.members_of(0):
            self.logs[nid] = []
            cluster.group(nid).on_delivery(0, self._on_delivery(nid))
        for nid in self.senders:
            offset = rng.random() * self.max_start_offset
            cluster.spawn_sender(self._sender(nid, offset),
                                 name=f"sender{nid}")

    def _sender(self, nid: int, offset: float):
        mc = self.cluster.mc(nid, 0)
        sim = self.cluster.sim
        yield offset
        self.first_send = min(self.first_send, sim.now)
        for k in range(self.count):
            yield from mc.send(self.size, struct.pack("<II", nid, k))
            self.sent_at[(nid, k)] = sim.now
        mc.mark_finished()

    def _on_delivery(self, member: int):
        log = self.logs[member]
        latencies = self.latencies
        sent_at = self.sent_at
        sim = self.cluster.sim

        def on_delivery(delivery) -> None:
            key = struct.unpack("<II", delivery.payload)
            log.append(key)
            latencies.append(sim.now - sent_at[key])

        return on_delivery

    def result(self) -> Result:
        cluster = self.cluster
        members = cluster.members_of(0)
        total = self.count * len(self.senders)
        last = max(cluster.group(m).stats(0).last_delivery_time or 0.0
                   for m in members)
        problems = check_mcast_logs(self.logs, self.senders, self.count)
        # A message counts as done once every member delivered it.
        delivered_everywhere = min(len(log) for log in self.logs.values())
        failed = total - min(delivered_everywhere, total)
        span = last - self.first_send
        return Result(
            attempted=total, failed=failed, latencies=self.latencies,
            slo_limit=SLO_LIMITS[self.name], first_op=self.first_send,
            last_done=last,
            sim_gbps=cluster.aggregate_throughput(0) / 1e9,
            order_digest=fingerprint(self.logs[members[0]]),
            problems=problems,
            counters=self.layer_counters(total - failed, span),
            samples_wanted=total * len(members))


class McastBatched(_Mcast):
    name = "mcast_batched"
    nodes = 16
    per_sender = 600
    config = staticmethod(SpindleConfig.optimized)


class McastUnbatched(_Mcast):
    name = "mcast_unbatched"
    nodes = 8
    per_sender = 80
    config = staticmethod(SpindleConfig.baseline)


class KvOpenLoop(Workload):
    """Open-loop Poisson clients against the sharded KV service."""

    name = "kv_open_loop"
    nodes = 8
    clients = 2
    total_rate = 200_000.0
    per_client = 1500
    keys = 4096

    def setup(self) -> None:
        from repro.analysis.linearize import HistoryRecorder

        cluster = Cluster(self.nodes, config=SpindleConfig.optimized(),
                          seed=CLUSTER_SEED)
        cluster.add_shards(num_shards=4, replication=2, num_subgroups=4,
                           window=16, message_size=512)
        cluster.build()
        self.cluster = cluster
        self.router = cluster.router(RouterConfig(queue_depth=128,
                                                  workers_per_shard=2))
        self.stats = SloStats()
        self.recorder = HistoryRecorder()
        self.count = self.sized(self.per_client)
        self.first_op = float("inf")
        self.last_done = 0.0
        #: Per-request lateness of the generator: start minus due instant.
        self.late = 0.0
        rate = self.total_rate / self.clients
        for c in range(self.clients):
            program = self._program(c)
            due = self._due_instants(c, rate)
            cluster.spawn_sender(
                open_loop_client(cluster.sim, self._request(c, program, due),
                                 rate=rate, count=self.count,
                                 rng=Random(self._gap_seed(c)),
                                 stats=self.stats, name=f"client{c}"),
                name=f"client{c}")

    def _gap_seed(self, c: int) -> int:
        return self.seed * 7919 + c

    def _due_instants(self, c: int, rate: float) -> List[float]:
        """The arrival instants ``open_loop_client`` will produce: the
        running sum of the same seeded exponential gaps."""
        rng = Random(self._gap_seed(c))
        t, due = 0.0, []
        for _ in range(self.count):
            t = t + rng.expovariate(rate)
            due.append(t)
        return due

    def _program(self, c: int) -> List[Tuple[str, bytes, bytes]]:
        rng = Random(self.seed * 104729 + 17 + c)
        program = []
        for k in range(self.count):
            key = b"k%d" % rng.randrange(self.keys)
            if rng.random() < 0.5:
                program.append(("get", key, b""))
            else:
                program.append(("put", key, b"c%d.%d" % (c, k)))
        return program

    def _request(self, c: int, program, due: List[float]):
        sim = self.cluster.sim
        router = self.router
        recorder = self.recorder

        def request(k: int):
            kind, key, value = program[k]
            now = sim.now
            self.late += max(0.0, now - due[k])
            self.first_op = min(self.first_op, now)
            op = recorder.invoke(c, kind, key,
                                 value if kind == "put" else None, now)
            outcome = yield from router.request(kind, key, value)
            if outcome.status == "ok":
                recorder.complete(op, sim.now, outcome.value)
                self.last_done = max(self.last_done, sim.now)
            elif outcome.status == "rejected":
                recorder.drop(op)
            return outcome

        return request

    def result(self) -> Result:
        stats = self.stats
        problems = check_kv(stats, self.router.verifier.check(),
                            self.recorder.history())
        failed = stats.submitted - stats.ok
        plan = self.cluster._shard_plan["subgroup_ids"]
        gbps = sum(self.cluster.aggregate_throughput(sg)
                   for sg in plan) / len(plan) / 1e9
        span = self.last_done - self.first_op
        counters = self.layer_counters(max(1, stats.ok), span)
        counters.update(router_counters(self.router))
        counters["workloads.gen_late_s"] = self.late
        return Result(
            attempted=stats.submitted, failed=failed,
            latencies=stats.latencies, slo_limit=SLO_LIMITS[self.name],
            first_op=self.first_op, last_done=self.last_done, sim_gbps=gbps,
            order_digest=fingerprint(
                (op.client, op.kind, op.key, op.value, op.invoked, op.returned)
                for op in self.recorder.history()),
            problems=problems, counters=counters)


def router_counters(router) -> Dict[str, float]:
    c = router.counters
    rejected = sum(c.rejected.values())
    offered = c.accepted + rejected
    return {"shard.rejected_frac": rejected / offered if offered else 0.0}


def zipf_cdf(n: int, s: float) -> Tuple[List[float], float]:
    """Cumulative Zipf(s) weights over ``n`` ranks."""
    cum, total = [], 0.0
    for i in range(n):
        total += 1.0 / (i + 1) ** s
        cum.append(total)
    return cum, total


class TxnContended(Workload):
    """Closed-loop clients running short contended OCC transactions."""

    name = "txn_contended"
    nodes = 5
    clients = 2
    per_client = 520
    keys = 1024
    zipf_s = 0.9
    txn_size = 4
    read_ratio = 0.5
    think = us(2.0)

    def setup(self) -> None:
        cluster = Cluster(num_nodes=self.nodes, seed=CLUSTER_SEED)
        cluster.add_shards(num_shards=4, replication=2, num_subgroups=2,
                           window=16)
        cluster.build()
        self.cluster = cluster
        self.plane = cluster.txn()
        #: A dedicated coordinator outside both subgroups.
        self.coordinator = self.nodes - 1
        self.count = self.sized(self.per_client)
        self.outcomes: List[tuple] = []
        self.latencies: List[float] = []
        self.first_op = float("inf")
        self.last_done = 0.0
        for c in range(self.clients):
            cluster.spawn_sender(self._client(c), name=f"txn-client-{c}")

    def _client(self, c: int):
        rng = Random(self.seed * 7919 + c)
        cum, total = zipf_cdf(self.keys, self.zipf_s)
        sim = self.cluster.sim
        programs = []
        for i in range(self.count):
            ops = []
            for _ in range(self.txn_size):
                key = b"k%d" % bisect.bisect_left(cum, rng.random() * total)
                if rng.random() < self.read_ratio:
                    ops.append(TxnOp("get", key))
                else:
                    ops.append(TxnOp("put", key, b"v%d.%d" % (c, i)))
            programs.append(ops)
        for ops in programs:
            start = sim.now
            self.first_op = min(self.first_op, start)
            out = yield from self.plane.run_txn(
                ops, coordinator_node=self.coordinator)
            self.outcomes.append((c, out.status, out.attempts, out.txn_id))
            if out.status == "committed":
                self.latencies.append(sim.now - start)
                self.last_done = max(self.last_done, sim.now)
            yield self.think

    def result(self) -> Result:
        plane = self.plane
        expected = self.count * self.clients
        problems = check_txn(self.outcomes, expected, plane.counters,
                             self.cluster.router().verifier.check())
        committed = plane.counters.committed
        failed = expected - committed
        plan = self.cluster._shard_plan["subgroup_ids"]
        gbps = sum(self.cluster.aggregate_throughput(sg)
                   for sg in plan) / len(plan) / 1e9
        ops = max(1, committed)
        span = self.last_done - self.first_op
        counters = self.layer_counters(ops, span)
        counters.update(router_counters(self.cluster.router()))
        pc = plane.counters
        counters["txn.attempts_per_commit"] = pc.attempts / ops
        counters["txn.fastpath_frac"] = pc.fastpath_commits / ops
        counters["txn.lock_waits"] = plane.lock_counters()["waits"]
        for stage, seconds in plane.stage_seconds().items():
            counters[f"txn.stage.{stage}_sim_s"] = seconds
        return Result(
            attempted=expected, failed=failed, latencies=self.latencies,
            slo_limit=SLO_LIMITS[self.name], first_op=self.first_op,
            last_done=self.last_done, sim_gbps=gbps,
            order_digest=fingerprint(self.outcomes), problems=problems,
            counters=counters)


WORKLOADS = {w.name: w for w in (McastBatched, McastUnbatched, KvOpenLoop,
                                 TxnContended)}
