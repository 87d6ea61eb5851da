"""Uniform benchmark result files: one JSON per bench, one format.

Every ``bench_*.py`` writes its result through :func:`write_bench_report`
so per-PR trajectories stay machine-comparable: the commit that produced
the number, the wall time, the simulated cycle counts and the per-cause
stall breakdown all land in ``BENCH_<name>.json`` under the output
directory (``--trace-out`` when given, else ``$REPRO_BENCH_OUT``, else
``benchmarks/out/``).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from datetime import datetime, timezone
from typing import Optional

# Shared latency math (nearest-rank percentiles) lives with the fabric
# report code and repro.obs.window; every bench runs with src/ on the
# path, so re-exporting it here keeps one implementation for benches and
# the serving layer alike.
from repro.fabric.report import latency_percentiles
from repro.obs.window import percentile

__all__ = [
    "BENCH_REPORT_SCHEMA",
    "BenchClock",
    "build_bench_report",
    "default_out_dir",
    "git_commit",
    "latency_percentiles",
    "percentile",
    "write_bench_report",
]

#: Format identifier embedded in every benchmark report.  v2 added the
#: batched compiled tier to ``extra.tiers`` (``batch`` width and
#: ``warm_wall_s_per_packet`` per batched entry in ``bench_sim_speed``).
BENCH_REPORT_SCHEMA = "repro.bench_report/v2"

_HERE = os.path.dirname(os.path.abspath(__file__))


def default_out_dir() -> str:
    """Where reports land when no ``--trace-out`` was given."""
    return os.environ.get("REPRO_BENCH_OUT") or os.path.join(_HERE, "out")


def git_commit() -> Optional[str]:
    """The current commit hash, or ``None`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_HERE,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def build_bench_report(
    name: str,
    wall_s: Optional[float] = None,
    stats=None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble the uniform benchmark-report dict.

    *stats* is duck-typed (``total_cycles``, ``stall_cycles``,
    ``stall_breakdown()`` — an :class:`~repro.sim.stats.ActivityStats`);
    benches without a simulated run leave it ``None``.

    ``host_cycles_per_sec`` — simulated cycles retired per host-side
    wall second — is derived whenever both a wall time and a cycle count
    are known; it is the simulator-speed trajectory tracked across PRs
    (see ``bench_sim_speed.py``).
    """
    report = {
        "schema": BENCH_REPORT_SCHEMA,
        "name": name,
        "commit": git_commit(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_s": round(wall_s, 6) if wall_s is not None else None,
        "cycles": None,
        "stall_cycles": None,
        "stall_breakdown": {},
        "host_cycles_per_sec": None,
    }
    if stats is not None:
        report["cycles"] = int(stats.total_cycles)
        report["stall_cycles"] = int(stats.stall_cycles)
        report["stall_breakdown"] = {
            cause: int(cycles) for cause, cycles in stats.stall_breakdown().items()
        }
        if wall_s:
            report["host_cycles_per_sec"] = round(int(stats.total_cycles) / wall_s, 3)
    if extra:
        report["extra"] = dict(extra)
    return report


def write_bench_report(
    name: str,
    out_dir: Optional[str] = None,
    wall_s: Optional[float] = None,
    stats=None,
    extra: Optional[dict] = None,
) -> str:
    """Write ``BENCH_<name>.json`` into *out_dir*; returns the path."""
    out_dir = out_dir or default_out_dir()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_%s.json" % name)
    with open(path, "w") as fh:
        json.dump(build_bench_report(name, wall_s, stats, extra), fh, indent=1)
        fh.write("\n")
    return path


class BenchClock:
    """Wall-clock for one bench: started at fixture setup."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0
