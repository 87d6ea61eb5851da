"""Run reports: a JSON artifact summarising one profiled execution.

A *run report* is the machine-readable record a simulation leaves
behind: per-kernel spans (the Table-2 rows), the stall-cause breakdown,
per-FU utilization heatmap data, the CGA/VLIW mode timeline and the
full activity counters.  Benchmarks write one per run so per-PR
trajectories stay comparable; ``benchmarks/run_report.schema.json``
freezes the format.

Build one with :func:`build_run_report` (generic) or
:func:`build_receiver_report` (from a
:class:`~repro.modem.receiver.ReceiverOutput`); render it with
:func:`render_report` or from the command line::

    python -m repro.trace.report runs/report.json

which prints the human-readable summary: top stall causes, FU
occupancy and a Table-2-style kernel table.

Inputs are duck-typed (profiles need ``name``/``stats``/``mode``/
``ipc``/``cycles``; stats need ``as_dict()``) so this module does not
import the simulator.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple, Union

from repro.trace.events import ALL_STALL_CAUSES
from repro.trace.tracer import Tracer

#: Format identifier embedded in (and checked against) every report.
RUN_REPORT_SCHEMA = "repro.run_report/v1"


def _stall_breakdown(stats) -> dict:
    data = stats.as_dict()
    causes = data.get("stall_causes", {})
    return {cause.value: int(causes.get(cause.value, 0)) for cause in ALL_STALL_CAUSES}


def _kernel_row(phase: str, profile) -> dict:
    stats = profile.stats
    return {
        "phase": phase,
        "kernel": profile.name,
        "mode": profile.mode,
        "ipc": round(profile.ipc, 3),
        "cycles": int(profile.cycles),
        "ii": profile.ii,
        "stall_cycles": int(stats.stall_cycles),
        "stall_breakdown": _stall_breakdown(stats),
    }


def build_run_report(
    name: str,
    profiles: Sequence[Union[Tuple[str, object], object]],
    stats,
    tracer: Optional[Tracer] = None,
    meta: Optional[dict] = None,
    n_units: int = 16,
) -> dict:
    """Assemble the run-report dict for one profiled execution.

    *profiles* entries are either ``(phase, profile)`` pairs or bare
    profile objects (phase defaults to ``""``); *stats* is the
    aggregate over all of them.
    """
    data = stats.as_dict()
    counters = data["counters"]
    kernels = []
    for entry in profiles:
        phase, profile = entry if isinstance(entry, tuple) else ("", entry)
        kernels.append(_kernel_row(phase, profile))

    total_cycles = int(stats.total_cycles)
    fu_rows = [
        {
            "fu": fu,
            "ops": int(ops),
            "ops_per_cycle": round(ops / total_cycles, 4) if total_cycles else 0.0,
        }
        for fu, ops in sorted(data.get("fu_ops", {}).items())
    ]
    timeline = []
    trace_info = {"events": 0, "dropped": 0}
    if tracer is not None:
        for event in tracer.events:
            if event.cat == "mode" and event.kind == "X":
                timeline.append(
                    {
                        "name": event.name,
                        "mode": "CGA" if event.name.startswith("cga") else "VLIW",
                        "t0": event.ts,
                        "dur": event.dur,
                    }
                )
        trace_info = {"events": len(tracer), "dropped": tracer.dropped}

    return {
        "schema": RUN_REPORT_SCHEMA,
        "name": name,
        "meta": dict(meta or {}),
        "totals": {
            "total_cycles": total_cycles,
            "vliw_cycles": int(stats.vliw_cycles),
            "cga_cycles": int(stats.cga_cycles),
            "sleep_cycles": int(stats.sleep_cycles),
            "stall_cycles": int(stats.stall_cycles),
            "total_ops": int(stats.total_ops),
            "ipc": round(stats.ipc, 4),
            "cga_fraction": round(stats.cga_fraction, 4),
        },
        "stall_breakdown": _stall_breakdown(stats),
        "counters": {k: int(v) for k, v in sorted(counters.items())},
        "kernels": kernels,
        "fu_utilization": fu_rows,
        "n_units": n_units,
        "mode_timeline": timeline,
        "trace": trace_info,
    }


def build_receiver_report(
    output,
    tracer: Optional[Tracer] = None,
    name: str = "mimo_ofdm_rx",
    meta: Optional[dict] = None,
    n_units: int = 16,
) -> dict:
    """Run report for a :class:`~repro.modem.receiver.ReceiverOutput`."""
    profiles = [("preamble", r.profile) for r in output.preamble_regions]
    profiles += [("data", r.profile) for r in output.data_regions]
    return build_run_report(
        name, profiles, output.stats, tracer=tracer, meta=meta, n_units=n_units
    )


def save_run_report(report: dict, path: str) -> None:
    """Write *report* as indented JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=False)


def load_run_report(path: str) -> dict:
    """Load a report, checking the format identifier."""
    with open(path) as fh:
        report = json.load(fh)
    if report.get("schema") != RUN_REPORT_SCHEMA:
        raise ValueError(
            "%s: not a %s document (schema=%r)"
            % (path, RUN_REPORT_SCHEMA, report.get("schema"))
        )
    return report


# ----------------------------------------------------------------------
# Human-readable rendering (the CLI).
# ----------------------------------------------------------------------


def _bar(fraction: float, width: int = 30) -> str:
    filled = int(round(min(max(fraction, 0.0), 1.0) * width))
    return "#" * filled + "." * (width - filled)


def render_stalls(report: dict, top: int = 10) -> str:
    """Top stall causes as a ranked table."""
    totals = report["totals"]
    stall_total = max(totals["stall_cycles"], 1)
    cycle_total = max(totals["total_cycles"], 1)
    rows = sorted(report["stall_breakdown"].items(), key=lambda kv: -kv[1])[:top]
    lines = ["%-16s %10s %9s %9s" % ("stall cause", "cycles", "% stalls", "% cycles")]
    lines.append("-" * 48)
    for cause, cycles in rows:
        lines.append(
            "%-16s %10d %8.1f%% %8.1f%%"
            % (cause, cycles, 100.0 * cycles / stall_total, 100.0 * cycles / cycle_total)
        )
    lines.append(
        "%-16s %10d %8s %8.1f%%"
        % ("total", totals["stall_cycles"], "", 100.0 * totals["stall_cycles"] / cycle_total)
    )
    return "\n".join(lines)


def render_fu_heatmap(report: dict) -> str:
    """Per-FU occupancy as text bars (the utilization heatmap)."""
    rows = report.get("fu_utilization", [])
    lines = ["%-5s %10s %8s  %s" % ("FU", "ops", "ops/cyc", "occupancy")]
    lines.append("-" * 60)
    peak = max((r["ops_per_cycle"] for r in rows), default=0.0) or 1.0
    for row in rows:
        lines.append(
            "fu%-3d %10d %8.3f  %s"
            % (row["fu"], row["ops"], row["ops_per_cycle"], _bar(row["ops_per_cycle"] / peak))
        )
    return "\n".join(lines)


def render_kernels(report: dict) -> str:
    """Table-2-style kernel table with stall columns."""
    lines = [
        "%-9s %-26s %-25s %6s %8s %8s %-16s"
        % ("phase", "kernel", "mode", "IPC", "cycles", "stalls", "top cause")
    ]
    lines.append("-" * 105)
    for row in report["kernels"]:
        breakdown = row.get("stall_breakdown", {})
        top_cause = max(breakdown, key=breakdown.get) if any(breakdown.values()) else ""
        lines.append(
            "%-9s %-26s %-25s %6.2f %8d %8d %-16s"
            % (
                row["phase"],
                row["kernel"],
                row["mode"],
                row["ipc"],
                row["cycles"],
                row["stall_cycles"],
                top_cause,
            )
        )
    return "\n".join(lines)


def render_report(report: dict, top: int = 10) -> str:
    """The full human-readable summary of a run report."""
    totals = report["totals"]
    head = [
        "run report: %s" % report.get("name", "?"),
    ]
    for key, value in sorted(report.get("meta", {}).items()):
        head.append("  %s: %s" % (key, value))
    head.append(
        "  cycles %d (VLIW %d / CGA %d / sleep %d), ops %d, IPC %.2f, CGA share %.0f%%"
        % (
            totals["total_cycles"],
            totals["vliw_cycles"],
            totals["cga_cycles"],
            totals["sleep_cycles"],
            totals["total_ops"],
            totals["ipc"],
            100.0 * totals["cga_fraction"],
        )
    )
    trace = report.get("trace", {})
    if trace.get("events"):
        head.append(
            "  trace: %d events (%d dropped)" % (trace["events"], trace.get("dropped", 0))
        )
    sections = [
        "\n".join(head),
        "-- stall attribution --\n%s" % render_stalls(report, top=top),
        "-- FU utilization --\n%s" % render_fu_heatmap(report),
    ]
    if report.get("kernels"):
        sections.append("-- kernels --\n%s" % render_kernels(report))
    return "\n\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.report",
        description="Render a saved run report as a human-readable summary.",
    )
    parser.add_argument("report", help="path to a run-report JSON file")
    parser.add_argument(
        "--top", type=int, default=10, help="stall causes to list (default 10)"
    )
    args = parser.parse_args(argv)
    try:
        report = load_run_report(args.report)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(render_report(report, top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
