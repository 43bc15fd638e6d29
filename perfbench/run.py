"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload mcast_batched --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout. Each repeat of a workload runs in a
fresh process (perfbench/worker.py), so set-up time includes importing
``repro``. One result pools ``POOL`` runs at the seeds
``subseed(seed, 0..POOL-1)``.

* ``--trace 0`` cycles through the pooled seeds until ``--seconds``
  have passed (at least ``MIN_REPEATS`` repeats), checks that a repeat
  at one seed reproduces every simulated metric exactly, and reports
  every end-to-end metric: host metrics as medians over the repeats,
  simulated metrics pooled over the ``POOL`` seeds.
* ``--trace 1`` runs the first pooled seed twice untraced and once
  traced and profiled, and reports every per-layer metric. All three
  must agree exactly on every simulated metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a report with quartiles over repeats, sample counts and the
seeds used. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("mcast_batched", "mcast_unbatched", "kv_open_loop",
             "txn_contended")

#: Gain claims made on any seed must also hold on this one, which no
#: tuning of the benchmark used.
HELDOUT_SEED = 424242

#: Runs pooled into one result, at seeds ``subseed(seed, 0..POOL-1)``:
#: one closed-loop multicast trajectory depends strongly on its start
#: offsets, and pooling narrows the run-to-run spread.
POOL = 3
#: One more than POOL, so that every run repeats a seed at least once.
MIN_REPEATS = POOL + 1
#: No repeat starts after this many host seconds of one run.
LAST_START_S = 120.0
WORKER_TIMEOUT_S = 170.0

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("host_ops_per_s", "ops/s", "higher"),
    ("host_peak_rss_mb", "MB", "lower"),
    ("sim_ops_per_s", "ops/s", "higher"),
    ("sim_gbps", "GB/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("slo_met_frac", "fraction", "higher"),
    ("ok_frac", "fraction", "higher"),
)

_SELF = ("sim", "rdma", "sst", "smc", "predicates", "core", "ordering",
         "shard", "txn", "storage", "metrics", "workloads", "other")
_TXN_STAGES = ("execute", "validate_or_lock", "prepare", "settle")

#: (name, unit, better) of every per-layer metric.
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.peak_pending", "count", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("rdma.writes_per_op", "writes/op", "lower"),
    ("rdma.bytes_per_op", "B/op", "lower"),
    ("rdma.drops", "count", "lower"),
    ("sst.reads", "count", "lower"),
    ("sst.sets", "count", "lower"),
    ("sst.pushes", "count", "lower"),
    ("smc.slot_writes", "count", "lower"),
    ("smc.slot_reads", "count", "lower"),
    ("predicates.evals", "count", "lower"),
    ("predicates.memo_hit_frac", "fraction", "higher"),
    ("predicates.busy_sim_s", "s", "lower"),
    ("predicates.post_frac", "fraction", "lower"),
    ("core.sender_wait_frac", "fraction", "lower"),
    ("core.batch_send", "msgs", "higher"),
    ("core.batch_recv", "msgs", "higher"),
    ("core.batch_deliver", "msgs", "higher"),
    ("core.nulls_per_op", "nulls/op", "lower"),
    ("shard.queue_wait_p50_us", "us", "lower"),
    ("shard.queue_wait_p99_us", "us", "lower"),
    ("shard.service_p50_us", "us", "lower"),
    ("shard.rejected_frac", "fraction", "lower"),
    ("txn.attempts_per_commit", "attempts/op", "lower"),
    ("txn.fastpath_frac", "fraction", "higher"),
    ("txn.lock_waits", "count", "lower"),
) + tuple((f"txn.stage.{stage}_sim_s", "s", "lower")
          for stage in _TXN_STAGES) + (
    ("storage.fsyncs_per_op", "fsyncs/op", "lower"),
    ("storage.fsync_sim_s", "s", "lower"),
    ("storage.bytes_per_op", "B/op", "lower"),
    ("workloads.gen_late_s", "s", "lower"),
) + tuple((f"{layer}.host_self_s", "s", "lower") for layer in _SELF) + (
    ("trace.overhead_x", "x", "lower"),
)

#: Span names whose call counts are per-layer metrics.
_CALL_COUNTS = {
    "sst.reads": "SST.read",
    "sst.sets": "SST.set",
    "sst.pushes": "SST.push",
    "smc.slot_writes": "SMC.write_slot",
    "smc.slot_reads": "SMC.read_slot",
    "predicates.evals": "Predicate.evaluate",
}


class BenchError(Exception):
    """A workload process failed: no result can be reported."""


def run_worker(workload: str, seed: int, trace: bool = False,
               trace_file=None) -> dict:
    """One workload repeat in a fresh process; returns its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
        if trace_file:
            cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} seed {seed} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_metrics(report: dict) -> dict:
    return {"setup_s": report["setup_s"],
            "host_ops_per_s": report["completed"] / report["run_s"],
            "host_peak_rss_mb": report["rss_mb"]}


def subseed(seed: int, k: int) -> int:
    """The workload seed of the k-th run pooled into one result."""
    return seed * POOL + k


def measure(workload: str, seed: int, seconds: float):
    """Untraced repeats: every end-to-end metric."""
    # Host wall clock budgets the run; it never feeds the simulation.
    start = time.perf_counter()  # spindle-lint: allow[nondet-wall-clock]
    reports = []
    while True:
        # Wall clock again, for the same budget.
        elapsed = time.perf_counter() - start  # spindle-lint: allow[nondet-wall-clock]
        if len(reports) >= MIN_REPEATS and (elapsed >= seconds
                                            or elapsed >= LAST_START_S):
            break
        k = len(reports) % POOL
        reports.append(run_worker(workload, subseed(seed, k)))
    host = [host_metrics(r) for r in reports]
    metrics, spread = {}, {}
    for name in ("setup_s", "host_ops_per_s", "host_peak_rss_mb"):
        q1, q2, q3 = statistics.quantiles([h[name] for h in host], n=4)
        metrics[name] = q2
        spread[name] = {"q1": q1, "median": q2, "q3": q3}
    pooled = reports[:POOL]
    metrics.update(summary.sim_metrics([r["raw"] for r in pooled]))
    problems = [p for r in reports for p in r["problems"]]
    # A repeat of a sub-seed must reproduce it exactly.
    problems += [f"repeat {i} differs from repeat {i - POOL} at one seed"
                 for i in range(POOL, len(reports))
                 if reports[i]["identity"] != reports[i - POOL]["identity"]]
    outcome = {"attempted": sum(r["attempted"] for r in pooled),
               "failed": sum(r["failed"] for r in pooled)}
    detail = {"repeats": len(reports), "host_quartiles": spread,
              "latency_samples": sum(r["samples"] for r in pooled),
              "seeds": [subseed(seed, k) for k in range(POOL)]}
    return outcome, metrics, problems, detail


def measure_layers(workload: str, seed: int):
    """Two untraced runs and one traced run at the first pooled seed:
    every per-layer metric."""
    first = subseed(seed, 0)
    plain = [run_worker(workload, first) for _ in range(2)]
    trace_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, f"trace-{workload}-{first}.json")
    traced = run_worker(workload, first, trace=True, trace_file=trace_file)
    problems = [p for r in plain + [traced] for p in r["problems"]]
    problems += [f"{name} run differs from the first untraced run"
                 for name, r in (("second untraced", plain[1]),
                                 ("traced", traced))
                 if r["identity"] != plain[0]["identity"]]

    run_s = statistics.median(r["run_s"] for r in plain)
    counters = traced["counters"]
    calls = traced["calls"]
    metrics = {}
    for name, _unit, _better in PER_LAYER:
        metrics[name] = float(counters.get(name, 0.0))
    for name, span in _CALL_COUNTS.items():
        metrics[name] = float(calls.get(span, 0))
    metrics["sim.host_us_per_event"] = (
        run_s / counters["sim.events"] * 1e6 if counters["sim.events"]
        else 0.0)
    metrics["shard.queue_wait_p50_us"] = traced["queue_wait_p50_us"]
    metrics["shard.queue_wait_p99_us"] = traced["queue_wait_p99_us"]
    metrics["shard.service_p50_us"] = traced["service_p50_us"]
    metrics["storage.fsync_sim_s"] = traced["fsync_sim_s"]
    for layer in _SELF:
        metrics[f"{layer}.host_self_s"] = traced["self_s"][layer]
    # The profiler clocks wall time, so the self times are checked
    # against, and the overhead taken from, wall-clock run times.
    wall = traced["wall_run_s"]
    plain_wall = statistics.median(r["wall_run_s"] for r in plain)
    metrics["trace.overhead_x"] = wall / plain_wall
    self_sum = sum(traced["self_s"].values())
    if abs(self_sum - wall) > 0.05 * wall:
        problems.append(f"layer self times sum to {self_sum:.3f} s, traced "
                        f"run took {wall:.3f} s")
    outcome = {"attempted": traced["attempted"], "failed": traced["failed"]}
    detail = {"traced_wall_s": wall, "untraced_wall_s": plain_wall,
              "self_time_sum_s": self_sum,
              "spans_stored": traced["spans_stored"], "calls": calls,
              "trace_file": os.path.relpath(trace_file, ROOT),
              "seeds": [first]}
    return outcome, metrics, problems, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under src/ — run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            outcome, metrics, problems, detail = measure_layers(
                args.workload, args.seed)
            specs = PER_LAYER
        else:
            outcome, metrics, problems, detail = measure(
                args.workload, args.seed, args.seconds)
            specs = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    detail.update({"workload": args.workload, "seed": args.seed,
                   "heldout_seed": HELDOUT_SEED, "problems": problems[:10]})
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _better in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
