"""Determinism regression: the same (cluster seed, fault schedule) pair
must reproduce a run byte-for-byte.

This is the property the whole chaos suite leans on: a failing CI seed
plus its schedule JSON artifact is a complete, exact reproducer. Two
independent executions must agree on the delivery-log digest, the trace
fingerprint (sha256 over every protocol event, timestamps included), the
drop accounting, and the fault-plane counters — and replaying through a
JSON round-trip of the schedule must change none of it."""

import pytest

from repro.core.config import SpindleConfig
from repro.faults import FaultSchedule
from repro.workloads.scenarios import SCENARIOS, run_scenario
from repro.analysis.trace import Tracer
from repro.sim.units import ms, us
from repro.workloads import Cluster, continuous_sender


class TestScenarioDeterminism:
    def test_every_scenario_replays_identically(self):
        for name in SCENARIOS:
            first = run_scenario(name, seed=7)
            second = run_scenario(name, seed=7)
            assert first.log_digest == second.log_digest, name
            assert first.trace_fingerprint == second.trace_fingerprint, name
            assert first.to_dict() == second.to_dict(), name

    def test_different_seeds_change_the_run(self):
        """Sanity: the seed actually reaches the randomness (a scenario
        with jitter samples must not be seed-invariant)."""
        a = run_scenario("jitter-storm", seed=1)
        b = run_scenario("jitter-storm", seed=2)
        assert a.trace_fingerprint != b.trace_fingerprint

    def test_scenario_result_embeds_replayable_schedule(self):
        result = run_scenario("partition-heal", seed=3)
        schedule = FaultSchedule.from_json(result.schedule_json)
        assert schedule.seed == 3
        assert len(schedule) == 1
        assert schedule.events[0].kind == "partition"


def chaotic_run(schedule_json=None, seed=11, backend="spindle"):
    """One cluster run with a mixed fault diet; returns its fingerprints.

    The fault diet (jitter, buffer-partition, stall) is backend-generic:
    it reaches the protocols through the fabric and through
    ``protocol_processes``, not through any Spindle internals. Only the
    membership plane is Spindle-specific (Paxos handles failures
    internally), so it is enabled for the spindle run alone.
    """
    cluster = Cluster(4, config=SpindleConfig.optimized(), seed=seed,
                      backend=backend)
    cluster.add_subgroup(message_size=512, window=8)
    if cluster.backend.view_synchronous:
        cluster.enable_membership(heartbeat_period=us(100),
                                  suspicion_timeout=us(500),
                                  confirmation_grace=us(700))
    cluster.build()
    logs = {nid: [] for nid in cluster.node_ids}
    for nid in cluster.node_ids:
        cluster.group(nid).on_delivery(
            0, lambda d, nid=nid: logs[nid].append((d.seq, d.sender)))
    tracer = Tracer(cluster)
    tracer.attach()
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=50, size=512))
    if schedule_json is None:
        cluster.faults.jitter(until=ms(10), extra_latency=us(1),
                              jitter=us(4), at=0.0)
        cluster.faults.partition([[0, 1], [2, 3]], at=ms(1),
                                 heal_at=ms(1.6), mode="buffer")
        cluster.faults.stall(2, duration=us(400), at=ms(2))
    else:
        cluster.faults.apply(FaultSchedule.from_json(schedule_json))
    cluster.run(until=ms(40))
    return (logs, tracer.fingerprint(), cluster.fabric.drops_by_reason(),
            cluster.faults.counters(), cluster.faults.schedule.to_json())


@pytest.mark.parametrize("backend", ["spindle", "paxos"])
class TestScheduleReplay:
    def test_imperative_run_equals_json_replay(self, backend):
        """Faults injected by hand, serialized, then replayed from JSON
        give the identical run — logs, trace, drops, counters — on
        every ordering backend."""
        logs1, fp1, drops1, counters1, schedule_json = chaotic_run(
            backend=backend)
        logs2, fp2, drops2, counters2, round_trip = chaotic_run(
            schedule_json=schedule_json, backend=backend)
        assert logs2 == logs1
        assert fp2 == fp1
        assert drops2 == drops1
        assert counters2 == counters1
        assert round_trip == schedule_json

    def test_repeated_json_replay_is_stable(self, backend):
        _, fp_a, _, _, schedule_json = chaotic_run(backend=backend)
        _, fp_b, _, _, _ = chaotic_run(schedule_json=schedule_json,
                                       backend=backend)
        _, fp_c, _, _, _ = chaotic_run(schedule_json=schedule_json,
                                       backend=backend)
        assert fp_a == fp_b == fp_c

    def test_backends_diverge_under_the_same_schedule(self, backend):
        """The parametrization is not vacuous: the two protocols trace
        differently under the identical fault schedule."""
        if backend != "spindle":
            pytest.skip("cross-backend check runs once")
        _, fp_spindle, _, _, schedule_json = chaotic_run(backend="spindle")
        _, fp_paxos, _, _, _ = chaotic_run(backend="paxos")
        assert fp_spindle != fp_paxos
