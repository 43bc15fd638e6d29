"""Sharded service plane: map determinism, router admission/retry,
rebalance hand-off, and chaos-schedule replay (docs/SHARDING.md).

The load-bearing claims pinned here:

* the shard map is a pure function of ``(seed, shards, subgroups)`` —
  two routers derive byte-identical placement with no coordination;
* ``with_assignment`` moves exactly the named shard (a flip that
  silently relocated others would strand their keys — regression for
  the capacity-greedy/override interaction);
* admission control rejects honestly (bounded queue, SST-window
  congestion) and the deadline path times out queued requests;
* a gateway crash mid-stream loses no accepted request: the router
  re-routes, replays idempotently, and rid dedup keeps the state
  transition exactly-once;
* the rebalance hand-off transfers with CRC validation and commits
  only on cross-replica checksum agreement;
* the two shard chaos scenarios replay identically from the imperative
  fault calls and from their serialized JSON schedule.
"""

import pytest

from repro.core.config import SpindleConfig
from repro.core.membership import SubgroupSpec, View
from repro.faults import FaultSchedule
from repro.workloads.scenarios import run_scenario
from repro.shard import RouterConfig, ShardMap, key_hash
from repro.sim.units import ms, us
from repro.workloads import Cluster, SloStats, open_loop_client


def make_view(view_id, members, subgroup_members):
    specs = tuple(
        SubgroupSpec.of(subgroup_id=i, members=m, window=8, message_size=256)
        for i, m in enumerate(subgroup_members))
    return View(view_id, tuple(members), specs)


# ===========================================================================
# ShardMap
# ===========================================================================


class TestShardMap:
    def test_same_inputs_identical_bytes(self):
        a = ShardMap(8, [0, 1, 2], seed=5)
        b = ShardMap(8, [2, 1, 0], seed=5)  # order-insensitive
        assert a.placement_bytes() == b.placement_bytes()
        assert a.digest() == b.digest()
        assert a.placement() == b.placement()

    def test_seed_reaches_both_hash_layers(self):
        a = ShardMap(8, [0, 1, 2], seed=1)
        b = ShardMap(8, [0, 1, 2], seed=2)
        assert a.digest() != b.digest()
        key = b"some-key"
        assert key_hash(key, 1) != key_hash(key, 2)

    def test_key_to_shard_ignores_membership(self):
        """Consistent-hash ring depends only on (seed, shards, vnodes):
        subgroup churn never moves a key between shards."""
        a = ShardMap(16, [0, 1, 2, 3], seed=9)
        b = ShardMap(16, [0, 7], seed=9)
        keys = [b"k%d" % i for i in range(200)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_placement_balanced(self):
        for seed in range(6):
            m = ShardMap(8, [0, 1, 2, 3], seed=seed)
            loads = {}
            for shard, sg in m.placement().items():
                loads[sg] = loads.get(sg, 0) + 1
            assert max(loads.values()) <= 2, (seed, loads)  # ceil(8/4)

    def test_lost_subgroup_movement_is_bounded(self):
        """A vanished subgroup's shards must move; the capacity rebound
        (ceil(8/4) -> ceil(8/3)) may displace a few survivors, but most
        of the map stays put (approximate minimal movement)."""
        for seed in range(8):
            full = ShardMap(8, [0, 1, 2, 3], seed=seed)
            shrunk = ShardMap(8, [0, 1, 3], seed=seed)
            moved = set(full.moved_shards(shrunk))
            lost = set(full.shards_of_subgroup(2))
            assert lost <= moved, (seed, moved, lost)
            assert len(moved) <= len(lost) + 2, (seed, moved, lost)
            assert 2 not in set(shrunk.placement().values())

    def test_with_assignment_moves_exactly_one_shard(self):
        """Regression: the capacity-bounded greedy must not let an
        override perturb the base placement of *other* shards."""
        m = ShardMap(6, [0, 1, 2], seed=0)
        for shard in range(6):
            for target in (0, 1, 2):
                flipped = m.with_assignment(shard, target)
                expected = [] if m.subgroup_of(shard) == target else [shard]
                assert m.moved_shards(flipped) == expected
                assert flipped.version == m.version + 1

    def test_rederive_pins_version_to_view_and_is_deterministic(self):
        m = ShardMap(8, [0, 1], seed=4)
        view = make_view(3, [0, 1, 2, 3], [[0, 1], [2, 3]])
        a, b = m.rederive(view), m.rederive(view)
        assert a.version == 3
        assert a.placement_bytes() == b.placement_bytes()

    def test_rederive_drops_vanished_subgroups_and_stale_overrides(self):
        m = ShardMap(8, [0, 1], seed=4).with_assignment(5, 1)
        view = make_view(2, [0, 1], [[0, 1]])  # subgroup 1 gone
        nxt = m.rederive(view)
        assert nxt.subgroup_ids == (0,)
        assert nxt.overrides == {}
        assert all(sg == 0 for sg in nxt.placement().values())

    def test_rederive_requires_a_serviceable_subgroup(self):
        m = ShardMap(4, [0], seed=0)
        view = make_view(1, [0, 1], [[0, 1]])
        with pytest.raises(ValueError):
            m.rederive(view, serviceable_ids=[])

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(0, [0])
        with pytest.raises(ValueError):
            ShardMap(4, [])
        with pytest.raises(ValueError):
            ShardMap(4, [0], overrides={9: 0})
        with pytest.raises(ValueError):
            ShardMap(4, [0], overrides={0: 5})


# ===========================================================================
# Router: admission control, deadlines, dedup
# ===========================================================================


def build_plane(num_nodes=4, num_shards=2, num_subgroups=2, seed=2,
                config=None, **shard_kw):
    cluster = Cluster(num_nodes, config=SpindleConfig.optimized(), seed=seed)
    cluster.add_shards(num_shards=num_shards, replication=2,
                       num_subgroups=num_subgroups, window=8,
                       message_size=256, **shard_kw)
    cluster.build()
    return cluster, cluster.router(config)


class TestRouterAdmission:
    def test_window_saturated_rejects_and_client_gives_up(self):
        cluster, router = build_plane(
            config=RouterConfig(congestion_threshold=0.0, max_retries=3))
        outcomes = []

        def client():
            out = yield from router.request("put", b"k", b"v")
            outcomes.append(out)

        cluster.spawn_sender(client())
        cluster.run_to_quiescence(max_time=1.0)
        assert outcomes[0].status == "rejected"
        assert outcomes[0].attempts == 4  # 1 + max_retries
        assert router.counters.rejected["window_saturated"] == 3
        assert router.counters.client_gaveup == 1
        assert router.counters.accepted == 0

    def test_queue_full_rejects_when_frozen(self):
        cluster, router = build_plane(
            config=RouterConfig(queue_depth=2, max_retries=1))
        shard = router.map.shard_of(b"k0")
        router.freeze(shard)
        outcomes = []

        def client(i):
            out = yield from router.request("put", b"k0", b"v%d" % i)
            outcomes.append((i, out.status))

        for i in range(4):
            cluster.spawn_sender(client(i))
        cluster.run(until=ms(1))
        statuses = sorted(s for _i, s in outcomes)
        assert statuses == ["rejected", "rejected"]  # beyond depth 2
        assert router.counters.rejected["queue_full"] >= 2
        router.unfreeze(shard)
        cluster.run_to_quiescence(max_time=1.0)
        assert sum(1 for _i, s in outcomes if s == "ok") == 2

    def test_deadline_expires_queued_requests(self):
        cluster, router = build_plane()
        shard = router.map.shard_of(b"k0")
        router.freeze(shard)
        outcomes = []

        def client():
            out = yield from router.request(
                "put", b"k0", b"v", deadline=cluster.sim.now + us(100))
            outcomes.append(out)

        def unfreezer():
            yield us(500)  # past the deadline
            router.unfreeze(shard)

        cluster.spawn_sender(client())
        cluster.spawn_sender(unfreezer())
        cluster.run_to_quiescence(max_time=1.0)
        assert outcomes[0].status == "timeout"
        assert router.counters.timeouts == 1

    def test_rid_dedup_applies_once(self):
        cluster, router = build_plane()
        service = router.service
        sg = router.map.subgroup_of_key(b"dup-key")
        replica = service.gateway_replica(sg)
        results = []

        def submitter():
            first = yield from replica.put_req(42, b"dup-key", b"v1")
            second = yield from replica.put_req(42, b"dup-key", b"v2")
            results.extend([first, second])

        cluster.spawn_sender(submitter())
        cluster.run_to_quiescence(max_time=1.0)
        assert results[1] == "duplicate"
        assert replica.duplicates_skipped == 1
        assert replica.data[b"dup-key"] == b"v1"  # applied exactly once

    def test_reads_and_stale_reads(self):
        cluster, router = build_plane()
        seen = {}

        def client():
            yield from router.request("put", b"rk", b"rv")
            out = yield from router.request("get", b"rk")
            seen["sync"] = out.value
            seen["stale"] = router.stale_read(b"rk")

        cluster.spawn_sender(client())
        cluster.run_to_quiescence(max_time=1.0)
        assert seen["sync"] == b"rv"
        assert seen["stale"] == b"rv"
        assert router.counters.stale_reads == 1


# ===========================================================================
# Rebalance hand-off
# ===========================================================================


class TestRebalance:
    def test_migration_crc_checksum_and_commit(self):
        cluster, router = build_plane(num_nodes=4, num_shards=4,
                                      num_subgroups=2, seed=1)
        service = router.service
        records = []

        def run():
            for i in range(30):
                yield from router.request("put", b"mk%d" % i, b"mv%d" % i)
            old_map = router.map
            src = old_map.subgroup_ids[0]
            shard = old_map.shards_of_subgroup(src)[0]
            target = old_map.subgroup_ids[1]
            before = service.shard_items(shard, old_map)
            rec = yield from router.rebalancer.migrate(shard, target)
            records.append((rec, old_map, shard, target, before))

        cluster.spawn_sender(run())
        cluster.run_to_quiescence(max_time=2.0)
        rec, old_map, shard, target, before = records[0]
        assert rec.ok and rec.crc_ok and rec.checksum_agree
        assert rec.keys_moved == len(before) > 0
        assert rec.chunks >= 1
        assert rec.error is None
        assert router.map.subgroup_of(shard) == target
        assert old_map.moved_shards(router.map) == [shard]
        assert router.map.version == rec.map_version == old_map.version + 1
        # Source replicas dropped the shard; the verifier is clean.
        for nid in cluster.members_of(old_map.subgroup_of(shard)):
            rep = service.replicas[(old_map.subgroup_of(shard), nid)]
            assert not any(router.map.shard_of(k) == shard
                           for k in rep.data)
        audit = router.verifier.check()
        assert audit.ok, audit.violations
        assert audit.keys_checked > 0

    def test_migration_to_same_subgroup_is_a_noop(self):
        cluster, router = build_plane(num_nodes=4, num_shards=2,
                                      num_subgroups=2)
        shard = 0
        sg = router.map.subgroup_of(shard)
        records = []

        def run():
            rec = yield from router.rebalancer.migrate(shard, sg)
            records.append(rec)

        cluster.spawn_sender(run())
        cluster.run_to_quiescence(max_time=1.0)
        assert records[0].ok and records[0].keys_moved == 0

    def test_migration_to_unknown_subgroup_fails_cleanly(self):
        cluster, router = build_plane(num_nodes=4, num_shards=2,
                                      num_subgroups=2)
        version = router.map.version
        records = []

        def run():
            rec = yield from router.rebalancer.migrate(0, 99)
            records.append(rec)

        cluster.spawn_sender(run())
        cluster.run_to_quiescence(max_time=1.0)
        assert not records[0].ok
        assert "unserviceable" in records[0].error
        assert router.map.version == version  # placement untouched


# ===========================================================================
# Failover: re-route + idempotent replay across a view change
# ===========================================================================


class TestFailover:
    def test_gateway_crash_loses_no_accepted_request(self):
        cluster = Cluster(6, config=SpindleConfig.optimized(), seed=5)
        cluster.add_shards(num_shards=4, replication=3, num_subgroups=2,
                           window=8, message_size=256)
        cluster.enable_membership(heartbeat_period=us(100),
                                  suspicion_timeout=us(500))
        cluster.build()
        cluster.enable_recovery()
        router = cluster.router(RouterConfig(max_retries=400))
        outcomes = []
        expected = {}

        def client(c):
            for i in range(15):
                key = b"f%d.%d" % (c, i)
                out = yield from router.request("put", key, b"val%d" % i)
                outcomes.append(out)
                if out.status == "ok":
                    expected[key] = b"val%d" % i
                yield us(50)

        for c in range(3):
            cluster.spawn_sender(client(c))
        cluster.faults.crash(0, at=us(400))  # gateway of subgroup 0
        cluster.run(until=ms(30))

        assert len(outcomes) == 45
        assert all(o.status == "ok" for o in outcomes)
        assert 0 not in cluster.view.members
        assert router.counters.gateway_changes >= 1
        assert router.counters.epoch_retries + router.counters.wedge_aborts >= 1
        for key, value in expected.items():
            assert router.stale_read(key) == value
        audit = router.verifier.check()
        assert audit.ok, audit.violations


# ===========================================================================
# Open-loop client + SLO accounting
# ===========================================================================


class TestOpenLoopClient:
    def test_poisson_arrivals_complete_with_slo_accounting(self):
        cluster, router = build_plane(num_shards=4, num_subgroups=2,
                                      num_nodes=8, seed=6)
        from random import Random

        stats = SloStats()
        cluster.spawn_sender(open_loop_client(
            cluster.sim,
            lambda k: router.request("put", b"ol%d" % k, b"v"),
            rate=50_000.0, count=40, rng=Random(99), stats=stats,
            deadline=ms(5)))
        cluster.run_to_quiescence(max_time=5.0)
        assert stats.submitted == stats.completed == 40
        assert stats.ok == 40
        assert stats.slo_misses == 0
        assert len(stats.latencies) == 40
        assert 0 < stats.p50() <= stats.p99()
        d = stats.to_dict()
        assert d["p99_latency"] == stats.p99()

    def test_open_loop_is_deterministic_in_the_seed(self):
        from random import Random

        def once():
            cluster, router = build_plane(num_shards=2, num_subgroups=2,
                                          seed=8)
            stats = SloStats()
            cluster.spawn_sender(open_loop_client(
                cluster.sim,
                lambda k: router.request("put", b"d%d" % k, b"v"),
                rate=100_000.0, count=25, rng=Random(4), stats=stats))
            cluster.run_to_quiescence(max_time=2.0)
            return stats.to_dict()

        assert once() == once()

    def test_rejected_and_timeout_outcomes_are_bucketed(self):
        stats = SloStats()
        stats.record("ok", 0.002, deadline_missed=True)
        stats.record("rejected", 0.0, attempts=5)
        stats.record("timeout", 0.0)
        assert stats.ok == 1 and stats.rejected == 1 and stats.timeouts == 1
        assert stats.slo_misses == 1
        assert stats.attempts == 7
        assert len(stats.latencies) == 1  # only ok completions measured


# ===========================================================================
# Chaos scenarios: determinism + JSON replay
# ===========================================================================


def sharded_chaotic_run(schedule_json=None, seed=13):
    """Shard-plane run under a mixed fault diet, imperative or replayed
    from a serialized schedule (the PR-2 chaotic_run pattern)."""
    cluster = Cluster(6, config=SpindleConfig.optimized(), seed=seed)
    cluster.add_shards(num_shards=4, replication=2, num_subgroups=3,
                       window=8, message_size=256)
    cluster.build()
    router = cluster.router()
    outcomes = []

    def client(c):
        for i in range(20):
            out = yield from router.request("put", b"c%d.%d" % (c, i), b"v")
            outcomes.append((c, i, out.status, out.attempts, out.shard))
            yield us(40)

    for c in range(3):
        cluster.spawn_sender(client(c))
    if schedule_json is None:
        cluster.faults.jitter(until=ms(5), extra_latency=us(1),
                              jitter=us(3), at=0.0)
        cluster.faults.stall(1, duration=us(300), at=ms(1))
    else:
        cluster.faults.apply(FaultSchedule.from_json(schedule_json))
    cluster.run(until=ms(20))
    digest = {sg: cluster.total_delivered(sg)
              for sg in cluster._shard_plan["subgroup_ids"]}
    return (outcomes, digest, router.counters.to_dict(),
            cluster.faults.counters(), cluster.faults.schedule.to_json())


class TestShardChaos:
    def test_shard_scenarios_pass_seeds_0_to_2(self):
        for name in ("shard-failover", "rebalance-under-load"):
            for seed in range(3):
                result = run_scenario(name, seed)
                assert result.ok, (name, seed, result.problems)

    def test_shard_scenarios_replay_identically(self):
        for name in ("shard-failover", "rebalance-under-load"):
            a = run_scenario(name, seed=1)
            b = run_scenario(name, seed=1)
            assert a.to_dict() == b.to_dict(), name

    def test_imperative_run_equals_json_replay(self):
        out1, digest1, router1, faults1, schedule = sharded_chaotic_run()
        out2, digest2, router2, faults2, round_trip = sharded_chaotic_run(
            schedule_json=schedule)
        assert out2 == out1
        assert digest2 == digest1
        assert router2 == router1
        assert faults2 == faults1
        assert round_trip == schedule
