"""The benchmark's own tests: tiny workloads, metric specs, output checks.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.workloads import SloStats  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Small enough for a unit test, big enough to exercise every stage.
TINY = {"mcast_batched": 0.05, "mcast_unbatched": 0.1,
        "kv_open_loop": 0.05, "txn_contended": 0.03}


def run_tiny(name, seed=1, traced=False):
    w = workloads.WORKLOADS[name](seed, TINY[name])
    w.setup()
    tracer = None
    if traced:
        tracer = tracing.SpanTracer(w.cluster.sim).install()
    try:
        w.run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return w, w.result(), tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_is_correct_and_deterministic(name):
    _w, first, _ = run_tiny(name)
    assert first.problems == []
    assert first.failed == 0
    assert first.latencies
    metrics = first.sim_metrics()
    assert all(value > 0 for value in metrics.values()), metrics
    _w, again, _ = run_tiny(name)
    assert again.identity() == first.identity()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reproduces_untraced_run(name):
    _w, plain, _ = run_tiny(name)
    w, traced, tracer = run_tiny(name, traced=True)
    assert traced.identity() == plain.identity()
    assert tracer.calls["QueuePair.post_write"] == \
        w.cluster.fabric.total_writes_posted()
    assert tracer.calls["SubgroupMulticast.send"] > 0
    assert tracer.stored() > 0
    # Every wrapper was taken off again.
    from repro.sst.table import SST
    assert SST.read.__qualname__ == "SST.read"


def test_spans_link_replica_work_to_router_requests():
    _w, result, tracer = run_tiny("kv_open_loop", traced=True)
    requests = tracer.calls["ShardRouter.request"]
    assert requests == result.attempted
    assert len(tracer.queue_waits) == requests
    replica = tracer._name_ids["ShardReplica.put_req"]
    for i in range(tracer.stored()):
        if tracer.span_name[i] == replica:
            parent = tracer.span_parent[i]
            assert tracer.names[tracer.span_name[parent]] == \
                "ShardRouter.request"
            assert tracer.span_op[i] == tracer.span_op[parent] >= 0
            break
    else:
        pytest.fail("no replica put span recorded")


def test_txn_run_traces_storage_and_txn_layers():
    _w, result, tracer = run_tiny("txn_contended", traced=True)
    assert tracer.calls["TxnPlane.run_txn"] == result.attempted
    # Every prepare/settle found the router request it serves.
    assert len(tracer.queue_waits) == tracer.calls["ShardRouter.request"]
    assert not any(tracer._waiting.values())
    assert tracer.calls["StorageDevice.fsync"] > 0
    assert tracer.fsync_seconds > 0
    assert result.counters["txn.attempts_per_commit"] >= 1.0


def test_self_time_is_grouped_by_layer():
    import cProfile

    w = workloads.WORKLOADS["mcast_unbatched"](1, TINY["mcast_unbatched"])
    w.setup()
    profile = cProfile.Profile()
    profile.enable()
    w.run()
    profile.disable()
    by_layer = tracing.self_time_by_layer(profile)
    assert set(by_layer) == set(tracing.LAYERS) | {"other"}
    for layer in ("sim", "rdma", "sst", "core", "predicates"):
        assert by_layer[layer] > 0, layer


# ---------------------------------------------------------------------------
# The output checks fire on corrupted results
# ---------------------------------------------------------------------------


def test_mcast_check_catches_a_reordered_delivery_log():
    w, result, _ = run_tiny("mcast_batched")
    assert result.problems == []
    logs = {m: list(log) for m, log in w.logs.items()}
    member = sorted(logs)[1]
    log = logs[member]
    i = next(i for i in range(len(log) - 1) if log[i][0] != log[i + 1][0])
    log[i], log[i + 1] = log[i + 1], log[i]
    problems = workloads.check_mcast_logs(logs, w.senders, w.count)
    assert any("differ across members" in p for p in problems)


def test_mcast_check_catches_a_missing_delivery():
    w, _result, _ = run_tiny("mcast_unbatched")
    logs = {m: list(log) for m, log in w.logs.items()}
    logs[sorted(logs)[0]].pop()
    problems = workloads.check_mcast_logs(logs, w.senders, w.count)
    assert any("delivered" in p for p in problems)


def test_kv_check_catches_a_dropped_completion():
    w, result, _ = run_tiny("kv_open_loop")
    assert result.problems == []
    stats = SloStats(**{k: getattr(w.stats, k) for k in (
        "submitted", "completed", "ok", "rejected", "timeouts")})
    stats.ok -= 1
    problems = workloads.check_kv(stats, w.router.verifier.check(),
                                  w.recorder.history())
    assert any("submitted" in p for p in problems)


def test_kv_check_catches_a_stale_read():
    w, _result, _ = run_tiny("kv_open_loop")
    history = w.recorder.history()
    put = next(op for op in history if op.kind == "put"
               and op.returned is not None)
    from repro.analysis.linearize import Op
    stale = Op(99, "get", put.key, b"never-written", put.returned + 1.0,
               put.returned + 2.0)
    problems = workloads.check_kv(w.stats, w.router.verifier.check(),
                                  history + [stale])
    assert any("linearization" in p for p in problems)


def test_txn_check_catches_a_missing_outcome():
    w, result, _ = run_tiny("txn_contended")
    assert result.problems == []
    problems = workloads.check_txn(w.outcomes[:-1], len(w.outcomes),
                                   w.plane.counters,
                                   w.cluster.router().verifier.check())
    assert problems


# ---------------------------------------------------------------------------
# Metric specs and the command contract
# ---------------------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_metric_has_a_valid_name_unit_and_direction():
    for name, unit, better in run.END_TO_END + run.PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert better in ("lower", "higher")
    names = [m[0] for m in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_runner():
    spec = load_spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    # run.py names the layers and txn stages without importing repro.
    assert run._SELF == tracing.LAYERS + ("other",)
    from repro.metrics.stages import TXN_STAGES
    assert run._TXN_STAGES == tuple(TXN_STAGES)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_runner_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv_open_loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
