"""Unit tests for the predicate-thread framework."""

import pytest

from repro.core.config import SpindleConfig, TimingModel
from repro.predicates import Predicate, PredicateThread
from repro.sim import Simulator
from repro.sim.units import us


class CountingPredicate(Predicate):
    """Fires ``fires`` times, then goes quiet; optionally defers posts."""

    def __init__(self, name, fires=1, eval_cost=us(0.05), body_cost=us(0.1),
                 post_cost=0.0, subgroup=None):
        self.name = name
        self.subgroup = subgroup
        self.remaining = fires
        self.eval_cost = eval_cost
        self.body_cost = body_cost
        self.post_cost = post_cost
        self.triggered = 0
        self.posted = 0

    def evaluate(self):
        return self.eval_cost, self.remaining > 0

    def trigger(self, value):
        self.remaining -= 1
        self.triggered += 1
        yield self.body_cost
        if self.post_cost > 0:
            return self._posts()
        return None

    def _posts(self):
        yield self.post_cost
        self.posted += 1


def make_thread(config=None):
    sim = Simulator()
    config = config or SpindleConfig.baseline()
    thread = PredicateThread(sim, config.early_lock_release,
                             TimingModel().lock_op)
    return sim, thread


def test_trigger_runs_when_predicate_true():
    sim, thread = make_thread()
    pred = CountingPredicate("p", fires=3)
    thread.register(pred)
    thread.start()
    sim.run(until=0.001)
    assert pred.triggered == 3


def test_thread_parks_when_no_work():
    sim, thread = make_thread()
    pred = CountingPredicate("p", fires=1)
    thread.register(pred)
    thread.start()
    sim.run()  # drains: thread must park on the doorbell
    assert pred.triggered == 1
    assert thread.idle_time == 0.0  # parked, not spinning
    assert thread.doorbell.waiting == 1


def test_doorbell_wakes_parked_thread():
    sim, thread = make_thread()
    pred = CountingPredicate("p", fires=1)
    thread.register(pred)
    thread.start()
    sim.run()
    assert pred.triggered == 1
    pred.remaining = 1  # new work appears...
    thread.doorbell.ring()  # ...and the doorbell announces it
    sim.run()
    assert pred.triggered == 2


def test_all_predicates_evaluated_fairly():
    sim, thread = make_thread()
    preds = [CountingPredicate(f"p{i}", fires=2) for i in range(5)]
    for p in preds:
        thread.register(p)
    thread.start()
    sim.run()
    assert all(p.triggered == 2 for p in preds)


def test_stop_terminates_loop():
    sim, thread = make_thread()
    thread.register(CountingPredicate("p", fires=10**9))
    thread.start()
    sim.call_after(us(50), thread.stop)
    sim.run()
    assert not thread.running


def test_double_start_rejected():
    sim, thread = make_thread()
    thread.start()
    with pytest.raises(RuntimeError):
        thread.start()


def test_unregister_removes_predicate():
    sim, thread = make_thread()
    pred = CountingPredicate("p", fires=100)
    thread.register(pred)
    thread.unregister(pred)
    thread.start()
    sim.run(until=us(10))
    assert pred.triggered == 0


def test_post_time_accounted():
    sim, thread = make_thread()
    pred = CountingPredicate("p", fires=4, post_cost=us(1.0))
    thread.register(pred)
    thread.start()
    sim.run()
    assert pred.posted == 4
    assert thread.post_time == pytest.approx(4 * us(1.0))
    assert thread.posts_run == 4


def test_posts_inside_lock_without_early_release():
    """Baseline: the lock is held while posts run, blocking contenders."""
    sim, thread = make_thread(SpindleConfig.baseline())
    pred = CountingPredicate("p", fires=1, post_cost=us(10))
    thread.register(pred)
    thread.start()
    acquired_at = {}

    def contender():
        yield us(0.01)  # let the thread grab the lock first
        yield thread.lock.acquire()
        acquired_at["t"] = sim.now
        thread.lock.release()

    sim.spawn(contender())
    sim.run()
    assert acquired_at["t"] >= us(10)  # had to wait out the posting


def test_posts_outside_lock_with_early_release():
    """§3.4: with early release, contenders get the lock while the
    thread is still posting."""
    sim, thread = make_thread(SpindleConfig.baseline().with_(early_lock_release=True))
    pred = CountingPredicate("p", fires=1, post_cost=us(10))
    thread.register(pred)
    thread.start()
    acquired_at = {}

    def contender():
        yield us(0.01)
        yield thread.lock.acquire()
        acquired_at["t"] = sim.now
        thread.lock.release()

    sim.spawn(contender())
    sim.run()
    assert acquired_at["t"] < us(10)


def test_subgroup_time_accounting():
    sim, thread = make_thread()
    active = CountingPredicate("a", fires=50, body_cost=us(1.0), subgroup=0)
    idle = CountingPredicate("b", fires=0, subgroup=1)
    thread.register(active)
    thread.register(idle)
    thread.start()
    sim.run()
    frac_active = thread.subgroup_time_fraction(0)
    frac_idle = thread.subgroup_time_fraction(1)
    assert frac_active > 0.8
    assert frac_active + frac_idle == pytest.approx(1.0)


def test_iteration_and_busy_counters_advance():
    sim, thread = make_thread()
    thread.register(CountingPredicate("p", fires=5))
    thread.start()
    sim.run()
    assert thread.iterations >= 5
    assert thread.busy_time > 0
