"""Result formatting: paper-style tables for the benchmark harness and
the CLI (the §4.1.1 per-stage profile table).

Every benchmark prints the same rows/series the paper plots, through
these helpers, so EXPERIMENTS.md entries can be regenerated verbatim.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

from ..metrics.stages import (NESTED_STAGES, PARTITION_STAGES,
                              STAGE_NULL_SEND_ANNOUNCE, STAGE_SST_POST)

__all__ = ["format_table", "format_stage_profile", "figure_banner", "gbps",
           "usec", "ratio"]


def gbps(bytes_per_second: float) -> str:
    """Format a throughput in the paper's GB/s units."""
    return f"{bytes_per_second / 1e9:.2f}"


def usec(seconds: float) -> str:
    """Format a latency in microseconds."""
    value = seconds * 1e6
    if value >= 1000:
        return f"{value:.0f}"
    return f"{value:.1f}"


def ratio(a: float, b: float) -> str:
    """Format a speedup ratio a/b."""
    if b == 0:
        return "inf"
    return f"{a / b:.1f}x"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render an ASCII table with right-aligned numeric-ish columns."""
    rows = [[str(c) for c in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return " | ".join(cell.rjust(w) for cell, w in zip(row, widths))
    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_stage_profile(profile: Dict[str, Any]) -> str:
    """Render the §4.1.1-style per-stage breakdown
    (:func:`~repro.metrics.stages.stage_profile`) as a table."""
    stages = profile["stages"]
    busy = profile["predicate_busy"]
    rows: List[List[str]] = []

    def row(label: str, seconds: float, spans: Any) -> List[str]:
        share = f"{seconds / busy * 100:5.1f}%" if busy else "    -"
        return [label, f"{seconds * 1e3:10.3f}", share, f"{spans}"]

    for stage in PARTITION_STAGES:
        entry = stages.get(stage)
        if entry is None:
            continue
        rows.append(row(stage, entry["seconds"], int(entry["spans"])))
        if stage == STAGE_SST_POST:
            for phase, seconds in sorted(profile["post_phases"].items()):
                rows.append(["  . " + phase, f"{seconds * 1e3:10.3f}", "", ""])
    rows.append(["stage total", f"{profile['partition_total'] * 1e3:10.3f}",
                 "", ""])
    rows.append(["predicate busy", f"{busy * 1e3:10.3f}", "", ""])
    for stage in NESTED_STAGES:
        entry = stages.get(stage)
        if entry is None:
            continue
        rows.append(row(f"{stage} (nested)", entry["seconds"],
                        int(entry["spans"])))
    rows.append([STAGE_NULL_SEND_ANNOUNCE, "-", "",
                 f"{int(profile['nulls_announced'])} nulls / "
                 f"{int(profile['null_announce_pushes'])} pushes"])
    return format_table(["stage", "time (ms)", "share", "events"], rows)


def figure_banner(figure: str, title: str, paper_claim: str) -> str:
    """Header printed above each benchmark's table."""
    bar = "=" * 72
    return (f"\n{bar}\n{figure}: {title}\n"
            f"paper: {paper_claim}\n{bar}")
