"""The predicate framework: Derecho's single polling thread (paper §2.4).

One :class:`PredicateThread` per node evaluates all registered
predicates in a loop, under a shared lock that application threads also
take when queueing sends. Its behaviour embodies two of the paper's
central observations:

* All subgroups' predicates are evaluated *fairly*, so inactive
  subgroups still cost evaluation time every iteration (§4.1.3 / Fig 8).
* Whether RDMA writes are posted while holding the lock (baseline) or
  after releasing it (§3.4) is decided here, uniformly for every
  trigger.

Protocol code supplies :class:`Predicate` objects:

* ``evaluate()`` returns ``(cpu_cost_seconds, value)`` and must be free
  of side effects. A falsy value means "nothing to do".
* ``trigger(value)`` is a generator that performs the body (yielding CPU
  costs as it goes) and *returns* an optional generator of deferred RDMA
  posts. The thread runs the posts inside or outside the lock depending
  on its ``early_lock_release`` flag, and accounts the time spent
  posting (the paper's ">30 % of predicate-thread time" metric).

When an iteration finds no work the thread parks on a doorbell, which is
rung by arriving remote writes and by local application sends — this is
the quiescence behaviour described at the end of §2.4.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..metrics.registry import null_registry
from ..metrics.stages import STAGE_OTHER_PREDICATE, STAGE_SST_POST, STAGE_TIME
from ..sim.engine import AtTime, Simulator
from ..sim.sync import Doorbell, Lock

__all__ = ["Predicate", "PredicateThread"]


class Predicate:
    """Base class for a monotonic predicate and its trigger."""

    #: Human-readable name (shows up in accounting).
    name = "predicate"
    #: Subgroup this predicate belongs to (None for membership-level).
    subgroup: Optional[int] = None
    #: Pipeline stage for the metrics profile (docs/METRICS.md):
    #: "send_predicate" / "receive_predicate" / "delivery_predicate";
    #: membership and durability predicates stay "other_predicate".
    stage: str = STAGE_OTHER_PREDICATE

    def evaluate(self) -> Tuple[float, Any]:
        """Return (cpu_cost, value); value truthy means run the trigger."""
        raise NotImplementedError

    def trigger(self, value: Any):
        """Generator: perform the body, yielding CPU costs; return an
        optional generator of deferred RDMA posts."""
        raise NotImplementedError

    def generation(self) -> Optional[Any]:
        """Memoization token covering *every* input of :meth:`evaluate`.

        Return a value that is guaranteed to change whenever evaluate()
        could return a different result — typically a tuple of local
        counters plus the sum of the watched SST rows' ``version``
        generation counters (monotone under the §2.2 write discipline).
        While the token is unchanged, the thread may reuse the last
        result instead of re-evaluating.  Return None (the default) to
        disable memoization for this predicate.
        """
        return None


class PredicateThread:
    """The per-node polling thread plus its shared lock and doorbell.

    ``early_lock_release`` (§3.4) posts a trigger's RDMA writes after
    releasing the lock instead of under it; ``lock_op`` is the simulated
    cost of one lock acquire or release.
    """

    def __init__(
        self,
        sim: Simulator,
        early_lock_release: bool,
        lock_op: float,
        name: str = "predicates",
        metrics: Optional[Any] = None,
    ):
        self.sim = sim
        self.early_lock_release = early_lock_release
        self.lock_op = lock_op
        self.name = name
        self.lock = Lock(sim, name=f"{name}.lock")
        self.doorbell = Doorbell(sim, name=f"{name}.bell")
        self.predicates: List[Predicate] = []
        self._running = False
        self._process = None
        #: True when this thread runs the folded fast path (optimized
        #: engine): uncontended lock grabs skip the scheduler round-trip
        #: and falsy passes fold their fixed-cost sleeps into one wake.
        #: Timestamps and observable state transitions are identical to
        #: the reference loop either way.
        self.fastpath = getattr(sim, "engine_mode", "optimized") != "reference"
        #: Last falsy evaluation per predicate: token -> (cost, value).
        #: Sound per the §2.2 monotonicity argument in docs/ENGINE.md:
        #: an unchanged generation token implies an unchanged result.
        self._memo: Dict[Predicate, Tuple[Any, float, Any]] = {}
        # -- accounting --------------------------------------------------------
        self.iterations = 0
        #: Predicate passes, and the subset answered from the memo cache
        #: without calling evaluate() (bench: predicate-eval savings).
        self.evals_total = 0
        self.evals_skipped = 0
        self.busy_time = 0.0
        self.idle_time = 0.0
        self.post_time = 0.0
        self.posts_run = 0
        #: time spent evaluating + triggering, per subgroup id (§4.1.3).
        self.subgroup_time: Dict[Optional[int], float] = {}
        # -- metrics plane (docs/METRICS.md) -----------------------------------
        #: A (usually node-scoped) registry view; the null registry makes
        #: every instrument below a shared no-op.
        self.metrics = metrics if metrics is not None else null_registry()
        self._stage_timers: Dict[str, Any] = {}
        self._post_timers = {
            phase: self.metrics.timer(
                STAGE_TIME, "RDMA posting time by lock phase (§3.4)",
                stage=STAGE_SST_POST, lock_phase=phase)
            for phase in ("prelock", "postlock")
        }
        self._iterations_counter = self.metrics.counter(
            "spindle_predicate_iterations_total",
            "polling-loop iterations")
        self._busy_gauge = self.metrics.gauge(
            "spindle_predicate_busy_seconds",
            "total simulated time the polling thread was busy")
        self._idle_gauge = self.metrics.gauge(
            "spindle_predicate_idle_seconds",
            "total simulated time parked on the doorbell")
        self._triggers_counter = self.metrics.counter(
            "spindle_predicate_triggers_total", "trigger bodies run")

    # -------------------------------------------------------------- lifecycle

    def register(self, predicate: Predicate) -> None:
        """Add a predicate; evaluation order is registration order."""
        self.predicates.append(predicate)
        self.doorbell.ring()

    def unregister(self, predicate: Predicate) -> None:
        self.predicates.remove(predicate)

    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError("predicate thread already started")
        self._running = True
        loop = self._run_fast() if self.fastpath else self._run()
        self._process = self.sim.spawn(loop, name=self.name)

    def stop(self) -> None:
        """Ask the loop to exit at its next idle check."""
        self._running = False
        self.doorbell.ring()

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------- main loop

    def _run(self):
        lock_op = self.lock_op
        while self._running:
            self.iterations += 1
            self._iterations_counter.inc()
            progressed = False
            iter_start = self.sim.now
            for predicate in tuple(self.predicates):
                # Everything from here to the final release is billed to
                # this predicate's stage, minus any posting time (billed
                # to sst_post by lock phase) — together the stage timers
                # partition busy_time exactly (docs/METRICS.md).
                pass_start = self.sim.now
                post_before = self.post_time
                yield self.lock.acquire()
                yield lock_op
                pred_start = self.sim.now
                self.evals_total += 1
                cost, value = predicate.evaluate()
                yield cost
                if value:
                    progressed = True
                    self._triggers_counter.inc()
                    posts = yield from predicate.trigger(value)
                    self._account(predicate, self.sim.now - pred_start)
                    if self.early_lock_release:
                        yield lock_op
                        self.lock.release()
                        if posts is not None:
                            yield from self._run_posts(posts, "postlock")
                    else:
                        if posts is not None:
                            yield from self._run_posts(posts, "prelock")
                        yield lock_op
                        self.lock.release()
                else:
                    self._account(predicate, self.sim.now - pred_start)
                    yield lock_op
                    self.lock.release()
                self._profile_stage(
                    predicate,
                    (self.sim.now - pass_start)
                    - (self.post_time - post_before),
                )
            self.busy_time += self.sim.now - iter_start
            self._busy_gauge.set(self.busy_time)
            if not progressed:
                idle_start = self.sim.now
                yield self.doorbell.wait()
                self.idle_time += self.sim.now - idle_start
                self._idle_gauge.set(self.idle_time)

    def _run_fast(self):
        """The folded polling loop (optimized engine).

        Produces bit-identical timestamps and state transitions to
        :meth:`_run` with fewer scheduler turns per pass
        (docs/ENGINE.md has the full soundness argument):

        * An uncontended pass grabs the lock synchronously
          (:meth:`Lock.acquire_nowait`) and folds the acquire wake plus
          the ``lock_op`` sleep into ONE absolute-time wake at
          ``t_a = pass_start + lock_op`` — exactly the instant the
          reference loop evaluates at, computed by the same chain of
          float additions.
        * The evaluate/memo decision happens AT ``t_a``, never earlier:
          an SST write landing in ``(pass_start, t_a)`` is visible to
          this pass, exactly as in the reference loop.
        * A falsy result folds the ``cost`` sleep and the trailing
          ``lock_op`` sleep into one wake at ``t_c = (t_a + cost) +
          lock_op`` (falsy passes mutate nothing and release at
          ``t_c``, so nobody can observe the difference).
        * Truthy passes run the trigger body verbatim — trigger
          mutations must become visible at the reference instants.

        Contended passes (lock already held) fall back to the reference
        sequence wholesale.

        Note the release at ``t_c`` is real, never folded away: holding
        the lock across consecutive falsy passes would move the next
        wake's *scheduling instant* from ``t_c`` back to ``t_a``, and
        when symmetric float chains on different nodes collide at the
        same timestamp, the (time, seq) tie-break would then order the
        colliding turns differently than the reference loop
        (docs/ENGINE.md, "why falsy runs are not folded further").
        """
        sim = self.sim
        lock = self.lock
        lock_op = self.lock_op
        while self._running:
            self.iterations += 1
            self._iterations_counter.inc()
            progressed = False
            iter_start = sim.now
            for predicate in tuple(self.predicates):
                pass_start = sim.now
                post_before = self.post_time
                if lock.acquire_nowait(self._process):
                    t_a = pass_start + lock_op
                    yield AtTime(t_a)
                    cost, value = self._decide(predicate)
                    if value:
                        progressed = True
                        self._triggers_counter.inc()
                        yield cost
                        posts = yield from predicate.trigger(value)
                        self._account(predicate, sim.now - t_a)
                        if self.early_lock_release:
                            yield lock_op
                            lock.release()
                            if posts is not None:
                                yield from self._run_posts(posts, "postlock")
                        else:
                            if posts is not None:
                                yield from self._run_posts(posts, "prelock")
                            yield lock_op
                            lock.release()
                    else:
                        t_c = (t_a + cost) + lock_op
                        self._account(predicate, (t_a + cost) - t_a)
                        yield AtTime(t_c)
                        lock.release()
                else:
                    # Contended: reference pass, verbatim.
                    yield lock.acquire()
                    yield lock_op
                    pred_start = sim.now
                    cost, value = self._decide(predicate)
                    yield cost
                    if value:
                        progressed = True
                        self._triggers_counter.inc()
                        posts = yield from predicate.trigger(value)
                        self._account(predicate, sim.now - pred_start)
                        if self.early_lock_release:
                            yield lock_op
                            lock.release()
                            if posts is not None:
                                yield from self._run_posts(posts, "postlock")
                        else:
                            if posts is not None:
                                yield from self._run_posts(posts, "prelock")
                            yield lock_op
                            lock.release()
                    else:
                        self._account(predicate, sim.now - pred_start)
                        yield lock_op
                        lock.release()
                self._profile_stage(
                    predicate,
                    (sim.now - pass_start)
                    - (self.post_time - post_before),
                )
            self.busy_time += sim.now - iter_start
            self._busy_gauge.set(self.busy_time)
            if not progressed:
                idle_start = sim.now
                yield self.doorbell.wait()
                self.idle_time += sim.now - idle_start
                self._idle_gauge.set(self.idle_time)

    def _decide(self, predicate: Predicate) -> Tuple[float, Any]:
        """Memo-or-evaluate at the current instant (the reference eval
        point): reuse the cached result while the generation token is
        unchanged, else evaluate and cache falsy results.

        Both callers hold ``self.lock`` here; the fast path acquires it
        via ``acquire_nowait``, which the static lockset pass does not
        model as an acquire."""
        self.evals_total += 1  # spindle-lint: allow[lockset-unprotected-write]
        token = predicate.generation()
        if token is not None:
            entry = self._memo.get(predicate)
            if entry is not None and entry[0] == token:
                self.evals_skipped += 1
                return entry[1], entry[2]
        cost, value = predicate.evaluate()
        if token is not None and not value:
            self._memo[predicate] = (token, cost, value)
        return cost, value

    def _run_posts(self, posts: Generator[float, None, Any],
                   phase: str = "postlock"):
        """Drive a deferred-post generator, accounting the time as
        'time spent posting RDMA writes' (§3.2 metric). ``phase`` is
        the §3.4 lock phase: "prelock" (posted while holding the shared
        lock, baseline) or "postlock" (after early release)."""
        start = self.sim.now
        result = yield from posts
        elapsed = self.sim.now - start
        self.post_time += elapsed
        self.posts_run += 1
        self._post_timers[phase].add(elapsed)
        return result

    def _profile_stage(self, predicate: Predicate, elapsed: float) -> None:
        """Bill one predicate pass (minus posting) to its stage timer."""
        stage = predicate.stage
        timer = self._stage_timers.get(stage)
        if timer is None:
            timer = self.metrics.timer(
                STAGE_TIME, "predicate-thread time by pipeline stage",
                stage=stage)
            self._stage_timers[stage] = timer
        # Clamp float fuzz: elapsed is a difference of sums of tiny
        # costs, so it can come out at -1e-19 when the pass was all
        # posting time.
        timer.add(elapsed if elapsed > 0 else 0.0)

    def _account(self, predicate: Predicate, elapsed: float) -> None:
        key = predicate.subgroup
        self.subgroup_time[key] = self.subgroup_time.get(key, 0.0) + elapsed

    # ------------------------------------------------------------- reporting

    def subgroup_time_fraction(self, subgroup: int) -> float:
        """Fraction of accounted predicate time spent on one subgroup."""
        total = sum(self.subgroup_time.values())
        if total == 0:
            return 0.0
        return self.subgroup_time.get(subgroup, 0.0) / total
