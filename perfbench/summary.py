"""Simulated end-to-end metrics of one or more workload runs.

Kept free of ``repro`` imports so that the runner can pool the outcomes
of several workload processes without importing the program.
"""

from typing import Dict, List, Sequence


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]


def sim_metrics(runs: List[dict]) -> Dict[str, float]:
    """Pool runs into the simulated end-to-end metrics.

    Each run is a dict with ``attempted``, ``completed``, ``span`` (first
    op to last completion, simulated seconds), ``latencies`` (simulated
    seconds), ``samples_wanted`` (latency samples a fault-free run
    yields; the shortfall counts as SLO misses), ``slo_limit`` and
    ``sim_gbps``. Rates pool as total ops over total span, latencies as
    one sample set.
    """
    latencies = sorted(x for run in runs for x in run["latencies"])
    met = sum(1 for run in runs for x in run["latencies"]
              if x <= run["slo_limit"])
    completed = sum(run["completed"] for run in runs)
    span = sum(run["span"] for run in runs)
    return {
        "sim_ops_per_s": completed / span if span > 0 else 0.0,
        "sim_gbps": sum(run["sim_gbps"] for run in runs) / len(runs),
        "latency_p50_us": percentile(latencies, 50.0) * 1e6,
        "latency_p99_us": percentile(latencies, 99.0) * 1e6,
        "slo_met_frac": met / sum(run["samples_wanted"] for run in runs),
        "ok_frac": completed / sum(run["attempted"] for run in runs),
    }
