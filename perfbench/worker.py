"""One workload process: set up, run, check, and report one JSON line.

    python3 perfbench/worker.py --workload kv_open_loop --seed 1 [--trace]

Run from the root of a checkout. Host times are CPU seconds of this
process, which other processes on the host do not inflate the way they
inflate wall time: ``setup_s`` runs from the start of the process
(interpreter start-up, importing ``repro``, building the cluster and
starting its planes) to the first simulated event, ``run_s`` covers the
run phase only. Wall-clock run time is reported beside it. Output checks
run after timing stops. With ``--trace`` the run phase is profiled and
traced (perfbench/tracing.py).
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file", default=None,
                        help="write the traced run's spans here")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    tracer = profile = None
    if args.trace:
        import cProfile

        from tracing import SpanTracer

        tracer = SpanTracer(workload.cluster.sim).install()
        profile = cProfile.Profile()
        profile.enable()
    # Host clocks are the measurand here; they never feed the simulation.
    cpu_start = time.process_time()  # spindle-lint: allow[nondet-wall-clock]
    wall_start = time.perf_counter()  # spindle-lint: allow[nondet-wall-clock]
    workload.run()
    wall_end = time.perf_counter()  # spindle-lint: allow[nondet-wall-clock]
    cpu_end = time.process_time()  # spindle-lint: allow[nondet-wall-clock]
    if profile is not None:
        profile.disable()
        tracer.uninstall()

    result = workload.result()
    report = {
        "setup_s": cpu_start,
        "run_s": cpu_end - cpu_start,
        "wall_run_s": wall_end - wall_start,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": result.attempted,
        "failed": result.failed,
        "completed": result.completed,
        "samples": len(result.latencies),
        "sim": result.sim_metrics(),
        "raw": result.raw(),
        "counters": result.counters,
        "identity": repr(result.identity()),
        "problems": list(result.problems),
    }
    if tracer is not None:
        from summary import percentile
        from tracing import self_time_by_layer

        def percentile_us(values, p):
            return percentile(sorted(values), p) * 1e6

        report["self_s"] = self_time_by_layer(profile)
        report["calls"] = dict(tracer.calls)
        report["spans_stored"] = tracer.stored()
        report["queue_wait_p50_us"] = percentile_us(tracer.queue_waits, 50)
        report["queue_wait_p99_us"] = percentile_us(tracer.queue_waits, 99)
        report["service_p50_us"] = percentile_us(tracer.service_times, 50)
        report["fsync_sim_s"] = tracer.fsync_seconds
        report["problems"] += trace_problems(workload, tracer)
        if args.trace_file:
            tracer.write_chrome_trace(args.trace_file)
    print(json.dumps(report, sort_keys=True))
    return 0


def trace_problems(workload, tracer):
    """The wrappers must have seen every call the layers counted."""
    problems = []
    cluster = workload.cluster
    posts = tracer.calls.get("QueuePair.post_write", 0)
    if posts != cluster.fabric.total_writes_posted():
        problems.append(f"traced {posts} RDMA posts, fabric counted "
                        f"{cluster.fabric.total_writes_posted()}")
    threads = [g.thread for g in cluster.groups.values()]
    evals = sum(t.evals_total - t.evals_skipped for t in threads)
    traced = tracer.calls.get("Predicate.evaluate", 0)
    if traced != evals:
        problems.append(f"traced {traced} predicate evaluations, "
                        f"threads counted {evals}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
