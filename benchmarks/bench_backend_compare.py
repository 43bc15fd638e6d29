"""Backend comparison: Spindle's SST multicast vs the Multi-Paxos
baseline on identical workloads (docs/ORDERING.md).

The paper's argument is architectural — replacing leader-mediated
quorum rounds with one-sided SST counter pushes removes both the
leader's fan-in/fan-out bottleneck and the per-message handler CPU.
This bench quantifies that on the simulated fabric: the fig03/fig04/
fig16-style single-subgroup loads run unchanged on both backends (only
``backend=`` differs), and the Paxos chaos scenarios re-run to pin
that the baseline stays correct while losing.

Gated scalars: fig16-style throughput for both backends and their
ratio (``fig16_speedup`` must stay > 1 — Spindle beats Paxos), the
fig04-style delivery rates, and chaos health.
"""

from _common import emit, emit_bench_json, pick, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig
from repro.workloads.scenarios import run_scenario
from repro.workloads import single_subgroup

BACKENDS = ["spindle", "paxos"]
CHAOS = ["paxos-leader-crash", "paxos-partition-heal",
         "paxos-crash-restart-rejoin"]


def bench_backend_compare(benchmark):
    n = pick(8, 4)
    count = pick(120, 40)
    window = pick(64, 32)

    def experiment():
        out = {}
        for backend in BACKENDS:
            # fig16-style headline: 10 KB, all senders, optimized stack.
            out[(backend, "fig16")] = single_subgroup(
                n, "all", SpindleConfig.optimized(), message_size=10240,
                count=count, window=window, backend=backend)
            # fig03-style: the one-sender pattern (leader-bound for
            # Paxos only when the sender is not the leader's node).
            out[(backend, "fig03_one")] = single_subgroup(
                n, "one", SpindleConfig.optimized(), message_size=10240,
                count=count, window=window, backend=backend)
            # fig04-style: small messages, delivery *rate* not bytes.
            out[(backend, "fig04")] = single_subgroup(
                n, "all", SpindleConfig.optimized(), message_size=1024,
                count=count, window=window, backend=backend)
        out["chaos"] = {name: run_scenario(name, seed=7) for name in CHAOS}
        return out

    results = run_once(benchmark, experiment)

    rows = []
    for load, metric in [("fig16", "GB/s"), ("fig03_one", "GB/s"),
                         ("fig04", "Mmsg/s")]:
        row = [load]
        for backend in BACKENDS:
            r = results[(backend, load)]
            row.append(gbps(r.throughput) if metric == "GB/s"
                       else f"{r.message_rate / 1e6:.2f}")
        spindle = results[("spindle", load)]
        paxos = results[("paxos", load)]
        row.append(f"{spindle.throughput / paxos.throughput:.2f}x")
        rows.append(row)
    chaos = results["chaos"]
    text = figure_banner(
        "Backend compare",
        f"Spindle vs Multi-Paxos, {n} nodes (quick={count <= 40})",
        "same fabric, same workload; only the ordering protocol differs",
    ) + "\n" + format_table(
        ["load", "spindle", "paxos", "spindle/paxos"], rows,
    ) + "\nchaos: " + ", ".join(
        f"{name}={'ok' if chaos[name].ok else 'FAIL'}" for name in CHAOS)
    emit("backend_compare", text)

    for name in CHAOS:
        assert chaos[name].ok, (name, chaos[name].problems)

    fig16_spindle = results[("spindle", "fig16")].throughput
    fig16_paxos = results[("paxos", "fig16")].throughput
    speedup = fig16_spindle / fig16_paxos
    # The architectural claim, as a hard floor: the SST multicast must
    # beat the quorum baseline on the headline load.
    assert speedup > 1.0, (fig16_spindle, fig16_paxos)
    benchmark.extra_info["fig16_speedup"] = speedup

    emit_bench_json("backend_compare", {
        "fig16_spindle_gbps": fig16_spindle / 1e9,
        "fig16_paxos_gbps": fig16_paxos / 1e9,
        "fig16_speedup": speedup,
        "fig03_one_spindle_gbps":
            results[("spindle", "fig03_one")].throughput / 1e9,
        "fig03_one_paxos_gbps":
            results[("paxos", "fig03_one")].throughput / 1e9,
        "fig04_spindle_mrps":
            results[("spindle", "fig04")].message_rate / 1e6,
        "fig04_paxos_mrps":
            results[("paxos", "fig04")].message_rate / 1e6,
        "fig16_spindle_latency_us":
            (results[("spindle", "fig16")].latency_us, False),
        "fig16_paxos_latency_us":
            (results[("paxos", "fig16")].latency_us, False),
        "chaos_ok": float(all(chaos[name].ok for name in CHAOS)),
    }, extra={
        "nodes": n, "count": count, "window": window,
        "chaos_scenarios": CHAOS,
        "chaos_fingerprints": {
            name: chaos[name].trace_fingerprint for name in CHAOS},
    })
