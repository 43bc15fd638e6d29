"""Runtime-half tests: the sanitizer must catch an injected violation of
each kind (§3.4 lock discipline, §2.2 monotonicity) and stay quiet on
compliant protocol code."""

import pytest

from repro.analysis.lint.sanitizer import (
    Sanitizer,
    SanitizerError,
    disable_global,
    enable_global,
    global_sanitizer,
)
from repro.analysis.trace import Tracer
from repro.core.config import SpindleConfig, TimingModel
from repro.predicates.framework import Predicate, PredicateThread
from repro.rdma.fabric import RdmaFabric
from repro.sim import Simulator
from repro.sst import SST, SSTLayout, wire_ssts


@pytest.fixture(autouse=True)
def _pause_global_sanitizer():
    """These tests assert on their *own* Sanitizer instances; pause any
    session-wide one (SPINDLE_SANITIZE=1) so hook ordering and violation
    counts are exact, then restore it."""
    was_active = global_sanitizer() is not None
    if was_active:
        disable_global()
    yield
    if was_active:
        enable_global(strict=True)


def build_pair(config):
    """Two wired nodes with one counter/one flag column and a predicate
    thread on node 0."""
    sim = Simulator()
    fabric = RdmaFabric(sim)
    nodes = [fabric.add_node() for _ in range(2)]

    def layout():
        lay = SSTLayout()
        lay.counter("count")
        lay.flag("done")
        return lay

    ssts = {
        n.node_id: SST(layout(), fabric, n, [0, 1]) for n in nodes
    }
    wire_ssts(ssts)
    thread = PredicateThread(sim, config.early_lock_release,
                             TimingModel().lock_op, name="pt0")
    return sim, fabric, ssts, thread


class FiresOnce(Predicate):
    """Trigger body supplied per-test; fires exactly once."""

    def __init__(self, body):
        self.body = body
        self.fired = False
        self.name = "fires-once"

    def evaluate(self):
        return 1e-7, (not self.fired,) if not self.fired else None

    def trigger(self, value):
        self.fired = True
        result = yield from self.body()
        return result


# ==========================================================================
# Lock discipline (§3.4)
# ==========================================================================


class TestLockDiscipline:
    def test_catches_post_under_lock_with_early_release(self):
        sim, fabric, ssts, thread = build_pair(SpindleConfig.optimized())
        san = Sanitizer(strict=True)
        san.watch_thread(thread)
        san.watch_sst(ssts[0])

        def evil_body():
            # Drives the posts inside trigger() — i.e. under the shared
            # lock — which §3.4 forbids when early_lock_release is on.
            ssts[0].set(0, 1)
            yield from ssts[0].push(0, 1)

        thread.register(FiresOnce(evil_body))
        thread.start()
        with pytest.raises(SanitizerError, match="lock-discipline"):
            sim.run(until=1.0)
        assert len(san.violations) == 1
        assert san.violations[0].kind == "sanitize.lock-discipline"

    def test_deferred_posts_are_compliant(self):
        sim, fabric, ssts, thread = build_pair(SpindleConfig.optimized())
        san = Sanitizer(strict=True)
        san.watch_thread(thread)
        san.watch_sst(ssts[0])

        def good_body():
            ssts[0].set(0, 1)
            if False:
                yield  # make this a generator
            # Return the un-started push generator: the thread drives it
            # after releasing the lock (the §3.4 pattern).
            return ssts[0].push(0, 1)

        pred = FiresOnce(good_body)
        thread.register(pred)
        thread.start()
        sim.run(until=1.0)
        assert pred.fired
        assert san.violations == []
        assert san.checks_run > 0

    def test_baseline_config_may_post_under_lock(self):
        """Posting under the lock IS the baseline behaviour pre-§3.4."""
        sim, fabric, ssts, thread = build_pair(SpindleConfig.baseline())
        san = Sanitizer(strict=True)
        san.watch_thread(thread)
        san.watch_sst(ssts[0])

        def body():
            ssts[0].set(0, 1)
            yield from ssts[0].push(0, 1)

        thread.register(FiresOnce(body))
        thread.start()
        sim.run(until=1.0)
        assert san.violations == []

    def test_nic_level_hook_catches_raw_posts(self):
        sim, fabric, ssts, thread = build_pair(SpindleConfig.optimized())
        san = Sanitizer(strict=True)
        san.watch_thread(thread)
        san.watch_fabric(fabric)   # NIC hook, not the SST hook

        def evil_body():
            ssts[0].set(0, 1)
            yield from ssts[0].push(0, 1)

        thread.register(FiresOnce(evil_body))
        thread.start()
        with pytest.raises(SanitizerError, match="lock-discipline"):
            sim.run(until=1.0)


# ==========================================================================
# Monotonicity across pushes (§2.2)
# ==========================================================================


class TestMonotonicity:
    def _push_once(self, sim, sst, lo=0, hi=1):
        done = []

        def proc():
            yield from sst.push(lo, hi)
            done.append(True)

        sim.spawn(proc())
        sim.run(until=sim.now + 1.0)
        assert done

    def test_catches_counter_regression_across_pushes(self):
        sim, fabric, ssts, _ = build_pair(SpindleConfig.optimized())
        san = Sanitizer(strict=True)
        san.watch_sst(ssts[0])
        ssts[0].set(0, 10)
        self._push_once(sim, ssts[0])
        # Inject the violation: bypass SST.set entirely, as buggy code
        # would, then publish the regressed value.
        ssts[0].rows[0].write_local(0, 4)  # spindle-lint: allow[sst-monotonic-write]
        with pytest.raises(SanitizerError, match="monotonicity"):
            self._push_once(sim, ssts[0])
        assert "regressed" in san.violations[0].detail

    def test_catches_flag_reset_across_pushes(self):
        sim, fabric, ssts, _ = build_pair(SpindleConfig.optimized())
        san = Sanitizer(strict=True)
        san.watch_sst(ssts[0])
        ssts[0].set(1, True)
        self._push_once(sim, ssts[0], 1, 2)
        ssts[0].rows[0].write_local(1, False)  # spindle-lint: allow[sst-monotonic-write]
        with pytest.raises(SanitizerError, match="monotonicity"):
            self._push_once(sim, ssts[0], 1, 2)

    def test_monotone_pushes_are_clean(self):
        sim, fabric, ssts, _ = build_pair(SpindleConfig.optimized())
        san = Sanitizer(strict=True)
        san.watch_sst(ssts[0])
        for value in (0, 3, 3, 7):
            ssts[0].set(0, value)
            self._push_once(sim, ssts[0])
        assert san.violations == []
        assert san.checks_run >= 4


# ==========================================================================
# Reporting model + global installation
# ==========================================================================


class TestReporting:
    def test_non_strict_records_through_tracer(self):
        sim, fabric, ssts, _ = build_pair(SpindleConfig.optimized())
        tracer = Tracer(cluster=None)
        san = Sanitizer(strict=False, tracer=tracer)
        san.watch_sst(ssts[0])
        ssts[0].set(0, 5)

        def proc():
            yield from ssts[0].push(0, 1)
            ssts[0].rows[0].write_local(0, 1)  # spindle-lint: allow[sst-monotonic-write]
            yield from ssts[0].push(0, 1)

        sim.spawn(proc())
        sim.run()
        assert len(san.violations) == 1
        events = tracer.select(kind="sanitize.monotonicity")
        assert len(events) == 1 and events[0].node == 0
        assert "sanitize" in san.report()


class TestGlobalInstall:
    def test_enable_watches_new_instances_and_disable_restores(self):
        assert global_sanitizer() is None
        san = enable_global(strict=True)
        try:
            assert global_sanitizer() is san
            assert enable_global() is san  # idempotent
            sim, fabric, ssts, thread = build_pair(SpindleConfig.optimized())
            # Instances created while enabled are auto-watched.
            assert san._on_sst_push in ssts[0].on_push
            assert thread in san._threads
            assert all(san._on_node_post in n.on_post
                       for n in fabric.nodes.values())
        finally:
            assert disable_global() is san
        assert global_sanitizer() is None
        sim2, fabric2, ssts2, thread2 = build_pair(SpindleConfig.optimized())
        assert ssts2[0].on_push == []
        assert thread2 not in san._threads

    def test_global_sanitizer_catches_injected_violation_end_to_end(self):
        san = enable_global(strict=True)
        try:
            sim, fabric, ssts, thread = build_pair(SpindleConfig.optimized())

            def evil_body():
                ssts[0].set(0, 1)
                yield from ssts[0].push(0, 1)

            thread.register(FiresOnce(evil_body))
            thread.start()
            with pytest.raises(SanitizerError):
                sim.run(until=1.0)
        finally:
            disable_global()
