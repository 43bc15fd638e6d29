"""Transaction-plane tests (docs/TRANSACTIONS.md).

Covers the cross-shard coordinator end to end: CC x ordering-backend
conformance, the single-shard fast path, replica-side dedup by
(txn_id, shard) slot, the reserved settle lane, wound-wait age
retention, WAL recovery, and a hypothesis sweep checking strict
serializability of randomized histories under fabric jitter.
"""

from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.linearize import (
    TxnHistoryRecorder,
    check_txn_recorder,
    txn_selftest,
)
from repro.core.config import SpindleConfig
from repro.shard.router import RouterConfig
from repro.sim import Simulator
from repro.sim.units import ms, us
from repro.txn import (
    LockTable,
    TxnAborted,
    TxnConfig,
    TxnHandle,
    TxnOp,
)
from repro.txn.records import (
    W_PUT,
    WAL_BEGIN,
    WAL_DECISION,
    PrepareRecord,
    SettleRecord,
    encode_prepare,
    encode_settle,
    encode_wal,
)
from repro.txn.recover import recover_txns
from repro.workloads import Cluster


def build(num_nodes=5, num_shards=4, num_subgroups=2, seed=3, cc="occ",
          backend=None, txn_config=None, router_config=None, window=8):
    cluster = Cluster(num_nodes, config=SpindleConfig.optimized(),
                      seed=seed, backend=backend)
    cluster.add_shards(num_shards=num_shards, replication=2,
                       num_subgroups=num_subgroups, window=window,
                       message_size=256)
    cluster.build()
    router = cluster.router(router_config)
    plane = cluster.txn(txn_config if txn_config is not None
                        else TxnConfig(cc=cc))
    return cluster, router, plane


def observed_reads(ops, read_values):
    """Externally-observed reads of a committed txn: pair get ops with
    their returned values, skipping reads served from the txn's own
    write buffer (those observe no pre-state). First read wins, to
    match the repeatable-read contract."""
    out = {}
    values = iter(read_values)
    written = set()
    for op in ops:
        if op.op == "get":
            value = next(values)
            if op.key not in written:
                out.setdefault(op.key, value)
        else:
            written.add(op.key)
    return out


def keys_in_shards(router, count, same_subgroup=None):
    """First ``count`` probe keys in distinct shards; optionally all
    hosted by the same / different subgroups."""
    found = {}
    for i in range(10000):
        key = b"probe.%d" % i
        shard = router.map.shard_of(key)
        if shard in found:
            continue
        found[shard] = key
        if same_subgroup is not None:
            sgs = {router.map.subgroup_of(s) for s in found}
            if same_subgroup and len(sgs) > 1:
                found.pop(shard)
                continue
            if not same_subgroup and len(sgs) < len(found):
                found.pop(shard)
                continue
        if len(found) == count:
            return [found[s] for s in sorted(found)]
    raise AssertionError("could not find suitable probe keys")


# --------------------------------------------------------------- conformance


@pytest.mark.parametrize("backend", [None, "paxos"])
@pytest.mark.parametrize("cc", ["occ", "2pl"])
def test_cc_conformance_across_backends(cc, backend):
    """Both CC protocols pass the same mixed workload under both
    ordering backends: everything commits or aborts cleanly, committed
    history is strictly serializable, replicas converge."""
    cluster, router, plane = build(cc=cc, backend=backend, seed=5)
    recorder = TxnHistoryRecorder()
    outcomes = []

    def client(c):
        rng = Random(40 + c)
        for i in range(6):
            ops = []
            for _ in range(3):
                key = b"c%d" % rng.randrange(12)
                if rng.random() < 0.5:
                    ops.append(TxnOp("get", key))
                else:
                    ops.append(TxnOp("put", key, b"v%d.%d" % (c, i)))
            txn_ref = recorder.invoke(c, cluster.sim.now)
            recorder.pending_writes(txn_ref, {
                op.key: op.value for op in ops if op.op == "put"})
            out = yield from plane.run_txn(ops, coordinator_node=4)
            outcomes.append(out)
            if out.status == "committed":
                recorder.complete(
                    txn_ref, cluster.sim.now,
                    reads=observed_reads(ops, out.reads),
                    writes={op.key: op.value for op in ops
                            if op.op == "put"})
            else:
                recorder.drop(txn_ref)
            yield us(3.0)

    for c in range(3):
        cluster.spawn_sender(client(c), name=f"cl{c}")
    # Paxos keeps heartbeat timers pending forever, so run a bounded
    # window instead of waiting for quiescence.
    cluster.sim.run(until=0.1)

    assert len(outcomes) == 18
    assert sum(1 for o in outcomes if o.status == "committed") >= 15
    # Final-state read: every committed write must be accounted for.
    state = {}
    for i in range(12):
        key = b"c%d" % i
        sg = router.map.subgroup_of_key(key)
        value = router.service.gateway_replica(sg).read(key)
        if value is not None:
            state[key] = value
    recorder.record_state_read(99, state, cluster.sim.now)
    report = check_txn_recorder(recorder)
    assert report.ok, report.violations
    assert router.verifier.check()
    for replica in router.service.replicas.values():
        assert not replica.txn_prepared
        assert not replica.txn_locks


# ----------------------------------------------------------------- fast path


def test_single_shard_fastpath_skips_wal_and_settle():
    cluster, router, plane = build()
    done = []

    def run():
        out = yield from plane.run_txn(
            [TxnOp("put", b"solo", b"v1"), TxnOp("get", b"solo")])
        done.append(out)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    out = done[0]
    assert out.status == "committed" and out.fastpath
    assert out.reads == [b"v1"]  # read-your-writes from the buffer
    c = plane.counters
    assert c.fastpath_commits == 1
    assert c.prepares_sent == 1
    assert c.settles_sent == 0
    assert c.wal_records == 0


def test_fastpath_disabled_by_config_still_commits():
    cluster, router, plane = build(txn_config=TxnConfig(fastpath=False))
    done = []

    def run():
        out = yield from plane.run_txn([TxnOp("put", b"solo", b"v1")])
        done.append(out)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    assert done[0].status == "committed" and not done[0].fastpath
    assert plane.counters.settles_sent == 1
    assert plane.counters.wal_records == 3  # BEGIN, DECISION, END


def test_pure_read_occ_txn_needs_no_wal():
    """A multi-shard read-only OCC txn certifies through validate-only
    slices: no WAL, no settle, one batched slice per read subgroup."""
    cluster, router, plane = build()
    key_a, key_b = keys_in_shards(router, 2, same_subgroup=False)
    done = []

    def run():
        out = yield from router.request("put", key_a, b"va")
        assert out.status == "ok"
        out = yield from router.request("put", key_b, b"vb")
        assert out.status == "ok"
        out = yield from plane.run_txn(
            [TxnOp("get", key_a), TxnOp("get", key_b)])
        done.append(out)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    assert done[0].status == "committed"
    assert done[0].reads == [b"va", b"vb"]
    assert plane.counters.wal_records == 0
    assert plane.counters.settles_sent == 0
    assert plane.counters.prepares_sent == 2  # one per read subgroup


# ------------------------------------------------- replica slots and dedup


def test_same_subgroup_two_shard_txn_applies_both_slices():
    """Regression: replica txn state is keyed by (txn_id, shard). One
    replica hosting two participant shards of the same txn must buffer
    and apply *both* per-shard prepare slices — txn-id-only dedup
    silently dropped the second slice's writes."""
    cluster, router, plane = build(cc="occ")
    key_a, key_b = keys_in_shards(router, 2, same_subgroup=True)
    assert router.map.shard_of(key_a) != router.map.shard_of(key_b)
    assert (router.map.subgroup_of_key(key_a)
            == router.map.subgroup_of_key(key_b))
    done = []

    def run():
        out = yield from plane.run_txn(
            [TxnOp("put", key_a, b"A"), TxnOp("put", key_b, b"B")])
        done.append(out)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    assert done[0].status == "committed"
    sg = router.map.subgroup_of_key(key_a)
    replica = router.service.gateway_replica(sg)
    assert replica.read(key_a) == b"A"
    assert replica.read(key_b) == b"B"
    assert not replica.txn_prepared


def test_duplicate_txn_req_returns_original_verdict():
    cluster, router, plane = build()
    key = keys_in_shards(router, 1)[0]
    shard = router.map.shard_of(key)
    rec = PrepareRecord(txn_id=501, shard=shard, cc="occ",
                        auto_commit=True, reads=(),
                        writes=((W_PUT, key, b"once"),))
    verdicts = []

    def run():
        for _ in range(2):
            out = yield from router.request(
                "txn_prepare", b"", value=encode_prepare(rec), shard=shard)
            verdicts.append(out.value)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    assert verdicts == ["yes", "yes"]  # replay answers with the original
    sg = router.map.subgroup_of(shard)
    replica = router.service.gateway_replica(sg)
    assert replica.txn_duplicates >= 1
    assert replica.read(key) == b"once"


def test_validate_slice_blocked_by_prepared_lock():
    """Lock-then-validate: a reader certifying a key another txn holds
    prepared-but-unsettled must vote no (it could otherwise observe
    that txn half-applied); after the settle it certifies fine."""
    cluster, router, plane = build()
    key = keys_in_shards(router, 1)[0]
    shard = router.map.shard_of(key)
    votes = []

    def run():
        writer = PrepareRecord(txn_id=601, shard=shard, cc="occ",
                               auto_commit=False, reads=(),
                               writes=((W_PUT, key, b"w"),))
        out = yield from router.request(
            "txn_prepare", b"", value=encode_prepare(writer), shard=shard)
        votes.append(out.value)
        reader = PrepareRecord(txn_id=602, shard=shard, cc="occ",
                               auto_commit=True,
                               reads=((key, None),), writes=())
        out = yield from router.request(
            "txn_prepare", b"", value=encode_prepare(reader), shard=shard)
        votes.append(out.value)  # blocked by 601's prepared lock
        settle = SettleRecord(txn_id=601, shard=shard, commit=True)
        yield from router.request(
            "txn_settle", b"", value=encode_settle(settle), shard=shard)
        reader2 = PrepareRecord(txn_id=603, shard=shard, cc="occ",
                                auto_commit=True,
                                reads=((key, b"w"),), writes=())
        out = yield from router.request(
            "txn_prepare", b"", value=encode_prepare(reader2), shard=shard)
        votes.append(out.value)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    assert votes == ["yes", "no", "yes"]


# ------------------------------------------------------- reserved settle lane


def test_settle_lane_skips_queue_bound():
    """queue_depth=0 rejects every normal op, but settles ride the
    reserved lane — a prepared txn can always be settled."""
    cluster, router, plane = build(
        router_config=RouterConfig(queue_depth=0, max_retries=1))
    results = []

    def run():
        out = yield from router.request("put", b"k", b"v")
        results.append(out.status)
        settle = SettleRecord(txn_id=700, shard=0, commit=True)
        out = yield from router.request(
            "txn_settle", b"", value=encode_settle(settle), shard=0)
        results.append(out.status)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    assert results == ["rejected", "ok"]
    assert router.counters.settle_reserved == 1


# ----------------------------------------------------------- wound-wait age


def test_wound_wait_age_retained_across_retries():
    """A retry keeps its first attempt's age, so against txns that
    arrived later it is the *older* party: it wounds and waits instead
    of aborting again. A fresh id per retry would make every retry the
    youngest txn in the system and starve it."""
    sim = Simulator(seed=0)
    table = LockTable(sim, shard=0, poll=us(1.0))
    granted = []

    def victim():
        young = TxnHandle(20)
        with pytest.raises(TxnAborted):
            # Youngest vs holder 10: immediate wound-wait abort.
            yield from table.acquire(young, b"k", True, us(0.1))
        yield us(10.0)  # backoff; meanwhile txn 30 takes the lock
        retry = TxnHandle(40, age=20)
        # Retained age 20 beats holder 30: wound it and wait. With a
        # fresh age (40) this acquire would abort again.
        yield from table.acquire(retry, b"k", True, us(0.1))
        granted.append(sim.now)
        table.release_all(retry)

    def owner():
        first = TxnHandle(10)
        yield from table.acquire(first, b"k", True, us(0.1))
        yield us(5.0)
        table.release_all(first)
        later = TxnHandle(30)
        yield from table.acquire(later, b"k", True, us(0.1))
        yield us(10.0)  # holds across the retry's arrival
        assert later.wounded
        table.release_all(later)

    sim.spawn(owner(), name="owner")
    sim.spawn(victim(), name="victim")
    sim.run(until=ms(1.0))
    assert granted, "retained-age retry never got the lock"
    counters = table.counters()
    assert counters["wait_aborts"] == 1
    assert counters["wounds"] >= 1
    assert counters["waits"] >= 1
    assert table.held() == 0


def test_lock_table_shared_then_upgrade_conflict():
    sim = Simulator(seed=0)
    table = LockTable(sim, shard=0, poll=us(1.0))
    a, b = TxnHandle(1), TxnHandle(2)

    def run():
        yield from table.acquire(a, b"k", False, 0.0)
        yield from table.acquire(b, b"k", False, 0.0)   # S + S coexist
        with pytest.raises(TxnAborted):
            yield from table.acquire(b, b"k", True, 0.0)  # younger upgrade
        table.release_all(b)
        yield from table.acquire(a, b"k", True, 0.0)      # sole holder
        table.release_all(a)

    sim.spawn(run(), name="locks")
    sim.run(until=ms(1.0))
    assert table.held() == 0


# -------------------------------------------------------------- WAL recovery


def test_recovery_presumed_abort_for_begin_only():
    cluster, router, plane = build()
    device = cluster.storage.device(4, plane.config.wal_device)
    device.write(encode_wal(WAL_BEGIN, 7, participants=(0, 2)))
    reports = []

    def run():
        yield from device.fsync()
        report = yield from recover_txns(plane, node=4)
        reports.append(report)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    report = reports[0]
    assert report.ok and report.scanned == 1
    assert report.presumed_abort == 1 and report.aborted == [7]
    assert plane.counters.recovered_settles == 2


def test_recovery_redrives_logged_commit():
    """DECISION(commit) without END: the recovery pass re-drives commit
    settles, and shards still holding buffered writes apply them."""
    cluster, router, plane = build()
    key_a, key_b = keys_in_shards(router, 2, same_subgroup=False)
    shard_a = router.map.shard_of(key_a)
    shard_b = router.map.shard_of(key_b)
    device = cluster.storage.device(4, plane.config.wal_device)
    reports = []

    def run():
        for shard, key, val in ((shard_a, key_a, b"RA"),
                                (shard_b, key_b, b"RB")):
            rec = PrepareRecord(txn_id=9, shard=shard, cc="occ",
                                auto_commit=False, reads=(),
                                writes=((W_PUT, key, val),))
            out = yield from router.request(
                "txn_prepare", b"", value=encode_prepare(rec), shard=shard)
            assert out.value == "yes"
        device.write(encode_wal(WAL_BEGIN, 9,
                                participants=(shard_a, shard_b)))
        device.write(encode_wal(WAL_DECISION, 9, commit=True))
        yield from device.fsync()
        # Coordinator "crashed" here: run the recovery pass directly.
        report = yield from recover_txns(plane, node=4)
        reports.append(report)
        # A second pass finds only the END record: nothing to do.
        report = yield from recover_txns(plane, node=4)
        reports.append(report)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    first, second = reports
    assert first.ok and first.redriven == 1 and first.committed == [9]
    assert second.ok and second.completed == 1 and second.redriven == 0
    for key, val in ((key_a, b"RA"), (key_b, b"RB")):
        sg = router.map.subgroup_of_key(key)
        assert router.service.gateway_replica(sg).read(key) == val
    for replica in router.service.replicas.values():
        assert not replica.txn_prepared
        assert not replica.txn_locks


# ------------------------------------------------------------ txn checker


def test_txn_checker_selftest():
    ok, torn_report = txn_selftest()
    assert ok
    assert not torn_report.ok  # the torn multi-key write is caught


# ------------------------------------------------------- chaos scenarios


@pytest.mark.parametrize("name", ["txn-coordinator-crash",
                                  "txn-rebalance-open"])
def test_txn_scenarios_pass_and_audit(name):
    from repro.workloads.scenarios import run_scenario
    for seed in (0, 5):
        result = run_scenario(name, seed)
        assert result.ok, (name, seed, result.problems)
        assert result.linearizability["ok"], (name, seed)


# ----------------------------------------------- randomized serializability


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       cc=st.sampled_from(["occ", "2pl"]))
def test_random_histories_strictly_serializable(seed, cc):
    """Committed transactions form a strictly serializable history (in
    particular: atomic — no torn multi-key writes) under contention and
    fabric jitter, for both CC protocols."""
    cluster, router, plane = build(cc=cc, seed=seed % 17)
    cluster.faults.jitter(until=ms(1.0), extra_latency=us(1.0),
                          jitter=us(2.0))
    recorder = TxnHistoryRecorder()
    rng = Random(seed)

    def client(c):
        for i in range(4):
            ops = []
            for _ in range(rng.randrange(2, 4)):
                key = b"h%d" % rng.randrange(6)
                if rng.random() < 0.45:
                    ops.append(TxnOp("get", key))
                else:
                    ops.append(TxnOp("put", key, b"%d.%d.%d" % (c, i, seed)))
            txn_ref = recorder.invoke(c, cluster.sim.now)
            recorder.pending_writes(txn_ref, {
                op.key: op.value for op in ops if op.op == "put"})
            out = yield from plane.run_txn(ops, coordinator_node=4)
            if out.status == "committed":
                recorder.complete(
                    txn_ref, cluster.sim.now,
                    reads=observed_reads(ops, out.reads),
                    writes={op.key: op.value for op in ops
                            if op.op == "put"})
            else:
                recorder.drop(txn_ref)
            yield us(2.0)

    for c in range(3):
        cluster.spawn_sender(client(c), name=f"cl{c}")
    cluster.run_to_quiescence(max_time=2.0)

    state = {}
    for i in range(6):
        key = b"h%d" % i
        sg = router.map.subgroup_of_key(key)
        value = router.service.gateway_replica(sg).read(key)
        if value is not None:
            state[key] = value
    recorder.record_state_read(99, state, cluster.sim.now)
    report = check_txn_recorder(recorder)
    assert report.ok, report.violations
    assert router.verifier.check()
