#!/usr/bin/env python
"""One-command serving and cold-start benchmark.

Drives seeded traffic through the real serving path — ``repro.ingest``
(TCP or UDP) into a 2-worker batch-drain ``repro.fabric`` running the
batched compiled ``repro.runtime`` / ``repro.sim`` tier — prints every
end-to-end metric by name with its unit, checks the outputs, and prints
one JSON result object as its last line.  ``--trace 1`` runs the same
workload with layer spans and prints the per-layer metrics instead.
Workloads, metrics and measured noise: ``benchmarks/suite/README.md``.

Run:  python benchmarks/suite/run.py [--workload W ...] [--seed N]
          [--seconds S] [--trace 0|1] [--out DIR] [--smoke]

Several workloads run one after another, each in a fresh interpreter.
Exit status: 0 when every check passed; 1 on a correctness violation
(the result line is still printed, with ``"correct": false``); 2 when
the source tree is missing (nothing is printed).

No process the run started outlives it: on Linux the command adopts
its orphaned descendants and, on every way out, kills and reaps any
that are left (:func:`end_children`).
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("cold_start", "steady_mixed")
#: Measured seconds per workload in ``--smoke`` mode.
SMOKE_SECONDS = 2.0
#: prctl(2) option: orphaned descendants are reparented to this process.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt this process's orphaned descendants (Linux; else a no-op)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def _children() -> list:
    """Pids whose parent is this process, zombies included."""
    me, kids = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return kids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry))
    return kids


def end_children() -> None:
    """Kill and reap every child, adopted orphans included, until none is left.

    A clean run has joined all of them already and this finds none.
    """
    while True:
        kids = _children()
        if not kids:
            return
        for pid in kids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in kids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _default_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=1, help="traffic seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured serving seconds (default: BENCHMARK.json run_seconds; "
        "part of the result file name, and compare.py refuses to mix lengths)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: record layer spans and print per-layer metrics",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="result files and traces (default benchmarks/out/suite)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="%gs per workload and a single set-up" % SMOKE_SECONDS,
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no source tree at %s" % os.path.join(ROOT, "src", "repro"),
              file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    if len(workloads) > 1:
        code = 0
        for name in workloads:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(args.trace)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            if args.out is not None:
                cmd += ["--out", args.out]
            if args.smoke:
                cmd.append("--smoke")
            code = max(code, subprocess.run(cmd).returncode)
        return code

    import harness

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    if seconds is None:
        seconds = _default_seconds()
    return harness.run_workload(
        workloads[0],
        seed=args.seed,
        seconds=seconds,
        trace=bool(args.trace),
        out_dir=args.out or harness.DEFAULT_OUT,
        smoke=args.smoke,
    )


if __name__ == "__main__":
    become_subreaper()
    try:
        status = main()
    finally:
        end_children()
    sys.exit(status)
