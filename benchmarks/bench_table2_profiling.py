"""Table 2 — kernel-by-kernel profiling of the MIMO-OFDM program.

Regenerates the measured mode/IPC/cycles rows next to the paper's and
checks the qualitative shape: CGA kernels reach high IPC, the paper's
VLIW copy rows are fused into their consumers (zero cycles, marked),
the program is CGA-dominated, and the packet decodes.

It also records the checked-in ``BENCH_table2.json`` at the repo root:
per Table 2 row the cycles, IPC and stalls by cause; per linked kernel
its II next to ResMII/RecMII, its stage count and the placement
attempts its loop body's modulo search made; and the attempts summed
over the distinct loop bodies (``search_attempts``: the cold set-up's
search effort, which, unlike its wall time, repeats exactly).  The
``--check`` mode re-measures and fails if any row's cycles, any phase
total, any kernel's II or the summed attempts rise against that file:

    PYTHONPATH=src python benchmarks/bench_table2_profiling.py --check
    PYTHONPATH=src python benchmarks/bench_table2_profiling.py --write
"""

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from repro.eval import run_reference_modem, table2_report
from repro.modem.profile import table2_rows

#: The checked-in record, regenerated by the pytest bench and ``--write``.
BASELINE = os.path.join(os.path.dirname(_HERE), "BENCH_table2.json")
SCHEMA = "repro.bench_table2/v1"

#: The paper's VLIW copy rows and the consumer each is fused into.
FUSED_ROWS = {
    "sample ordering": "acorr",
    "sample reordering": "fshift",
    "remove zero carriers": "SDM processing",
}


def _region_label(rid) -> str:
    name, key = rid[0], rid[1:]
    return "%s[%s]" % (name, key[0]) if key and isinstance(key[0], str) else name


def table2_record(run) -> dict:
    """The ``BENCH_table2.json`` content for one reference run."""
    rows, seen = [], {}
    for phase, regions in (
        ("preamble", run.output.preamble_regions),
        ("data", run.output.data_regions),
    ):
        for region in regions:
            occurrence = seen.get((phase, region.name), 0)
            seen[(phase, region.name)] = occurrence + 1
            stats = region.profile.stats
            rows.append({
                "phase": phase,
                "kernel": region.name,
                "occurrence": occurrence,
                "mode": region.profile.mode,
                "cycles": region.profile.cycles,
                "ipc": round(region.profile.ipc, 3),
                "stall_cycles": stats.stall_cycles,
                "stalls": stats.stall_breakdown(),
            })
    kernels, plans = [], {}
    for rid, record in run.receiver.regions.items():
        for index, result in enumerate(record.kernels):
            plans[id(result.plan)] = result.plan
            kernels.append({
                "region": _region_label(rid),
                "index": index,
                "kernel": result.kernel.name,
                "ii": result.ii,
                "res_mii": result.res_mii,
                "rec_mii": result.rec_mii,
                "stages": result.stage_count,
                "attempts": result.plan.attempts,
            })
    return {
        "schema": SCHEMA,
        "workload": "run_reference_modem(seed=42, cfo_hz=50e3)",
        "totals": {
            "preamble": run.output.preamble_cycles,
            "data": run.output.data_cycles,
        },
        "rows": rows,
        "kernels": kernels,
        "search_attempts": sum(plan.attempts for plan in plans.values()),
    }


def regressions(record: dict, baseline: dict) -> list:
    """Rows, totals, kernel IIs or search attempts of *record* that rose
    against *baseline* (a baseline without attempts checks the rest)."""
    problems = []
    for phase, cycles in record["totals"].items():
        if cycles > baseline["totals"][phase]:
            problems.append("%s total: %d > %d cycles"
                            % (phase, cycles, baseline["totals"][phase]))
    attempts = baseline.get("search_attempts")
    if attempts is not None and record["search_attempts"] > attempts:
        problems.append("search attempts: %d > %d"
                        % (record["search_attempts"], attempts))

    def keyed(entries, fields):
        return {tuple(e[f] for f in fields): e for e in entries}

    checks = (
        ("rows", ("phase", "kernel", "occurrence"), "cycles"),
        ("kernels", ("region", "index", "kernel"), "ii"),
    )
    for section, fields, metric in checks:
        base = keyed(baseline[section], fields)
        for key, entry in keyed(record[section], fields).items():
            if key not in base:
                problems.append("%s %s: not in the checked-in record "
                                "(regenerate it with --write)" % (section, key))
            elif entry[metric] > base[key][metric]:
                problems.append("%s %s: %s %d > %d"
                                % (section, key, metric, entry[metric], base[key][metric]))
    return problems


def write_record(record: dict, path: str = BASELINE) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def test_table2_profile(benchmark, reference_run, reference_wall_s, capsys, bench_report):
    rows = benchmark.pedantic(
        table2_rows, args=(reference_run.output,), rounds=1, iterations=1
    )
    with capsys.disabled():
        print("\n=== Table 2: MIMO-OFDM kernel profiling (measured vs paper) ===")
        print(table2_report(reference_run))

    by_name = {}
    for row in rows:
        by_name.setdefault((row.phase, row.kernel), row)

    # Shape checks -- who is fast, who is slow.
    stats = reference_run.output.stats
    cga_ipc = stats.cga_ops / stats.cga_cycles
    vliw_ipc = stats.vliw_ops / stats.vliw_cycles
    assert cga_ipc > 3 * vliw_ipc  # the paper's 10.31 vs 1.94
    assert stats.cga_fraction > 0.5  # CGA-mode dominated, like 60-72%

    # High-IPC CGA kernels.
    for key in [("data", "SDM processing"), ("data", "comp")]:
        assert by_name[key].ipc > 5, key
    # The paper's VLIW copy rows run as part of their consumers: each
    # keeps its row, marked, with zero cycles and zero IPC.
    for kernel, into in FUSED_ROWS.items():
        row = by_name[("preamble", kernel)]
        assert row.mode == "fused into %s" % into, kernel
        assert row.cycles == 0 and row.ipc == 0.0 and row.stall_cycles == 0, kernel
    # The decoded packet is error-free at the evaluated operating point.
    assert reference_run.ber == 0.0
    write_record(table2_record(reference_run))
    bench_report(
        "table2_profiling",
        stats=stats,
        wall_s=reference_wall_s,
        extra={
            "cga_ipc": round(cga_ipc, 3),
            "vliw_ipc": round(vliw_ipc, 3),
            "cga_fraction": round(stats.cga_fraction, 3),
            "ber": reference_run.ber,
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="fail if cycles, a kernel's II or the search attempts "
                      "rose against %s" % BASELINE)
    mode.add_argument("--write", action="store_true", help="regenerate %s" % BASELINE)
    args = parser.parse_args(argv)
    run = run_reference_modem(seed=42, cfo_hz=50e3)
    record = table2_record(run)
    if args.write:
        write_record(record)
        print("wrote %s" % BASELINE)
        return 0
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    problems = regressions(record, baseline)
    print("preamble %d cycles (checked in %d), data %d (checked in %d), "
          "search attempts %d (checked in %s)"
          % (record["totals"]["preamble"], baseline["totals"]["preamble"],
             record["totals"]["data"], baseline["totals"]["data"],
             record["search_attempts"], baseline.get("search_attempts", "none")))
    for problem in problems:
        print("REGRESSION: %s" % problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
