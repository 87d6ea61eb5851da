#!/usr/bin/env python
"""Compare two sets of benchmark result files, workload by metric.

Each side is a directory of ``result-*.json`` files written by
``run.py`` (or a list of such files).  Runs pair up by seed.  For every
workload and metric present on both sides this prints each side's
median and quartiles, the change in the median, the paired wins, and a
verdict:

``better``
    the change wins at least nine tenths of the pairs (ties count for
    neither side) and the medians differ by more than the base's
    quartile spread — or every change run beats every base run;
``worse``
    an end-to-end metric whose median got worse by more than its
    ``BENCHMARK.json`` bound; for a per-layer metric (no bound), the
    mirror of ``better``;
``unresolved``
    an end-to-end metric whose run-to-run spread (quartile distance
    over median, either side) exceeds its bound: "unchanged" cannot be
    told from noise;
``same``
    none of the above.

Only full runs count: smoke runs, runs that failed a correctness check
and runs whose generator ran late (``meta.client.valid`` false) are left
out, and how many per side is printed.  Both sides must have the same
run length, and a second run of one workload and seed on one side is an
error.  Failed packets are compared too: a higher share of failed
packets on the change side is ``worse``, whatever the metrics say.

Run:  python benchmarks/suite/compare.py BASE CHANGE [--trace]

Exit status 1 when any end-to-end metric is ``worse``, when the change
side fails more packets, or when any change run failed a correctness
check; 2 when the two sides cannot be compared.
"""

import argparse
import glob
import json
import os
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _gains(pairs: Sequence[Tuple[float, float]], sign: int) -> int:
    """Pairs the change side wins; *sign* +1 when higher is better."""
    return sum(1 for base, change in pairs if sign * (change - base) > 0)


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float] = None,
    pairs: Optional[Sequence[Tuple[float, float]]] = None,
) -> str:
    """The verdict for one metric (see the module docstring).

    *pairs* are (base, change) values of matched runs; by default the
    two lists pair up by position.
    """
    sign = 1 if better == "higher" else -1
    pairs = list(pairs) if pairs is not None else list(zip(base, change))
    base_q1, base_med, base_q3 = quartiles(base)
    change_med = quartiles(change)[1]
    diff = abs(change_med - base_med)
    beats_all = min(change) > max(base) if sign > 0 else max(change) < min(base)
    if beats_all:
        return "better"
    if bound is not None and max(spread(base), spread(change)) > bound:
        return "unresolved"
    wins = _gains(pairs, sign)
    losses = _gains(pairs, -sign)
    if pairs and wins >= WIN_SHARE * len(pairs) and diff > base_q3 - base_q1:
        return "better"
    if bound is not None:
        worse_by = -sign * (change_med - base_med) / abs(base_med) if base_med else 0.0
        return "worse" if worse_by > bound else "same"
    if pairs and losses >= WIN_SHARE * len(pairs) and diff > base_q3 - base_q1:
        return "worse"
    return "same"


@dataclass
class RunSet:
    """The comparable runs of one side."""

    #: workload -> seed -> metric name -> value.
    metrics: Dict[str, Dict[int, Dict[str, float]]] = field(default_factory=dict)
    #: workload -> [failed, attempted], summed over the runs kept.
    packets: Dict[str, List[int]] = field(default_factory=dict)
    #: Why runs were left out -> how many.
    skipped: Counter = field(default_factory=Counter)
    #: Measured seconds of the runs kept.
    seconds: set = field(default_factory=set)


def load_results(paths: Sequence[str], trace: bool) -> RunSet:
    """The comparable runs in directories or result files.

    Raises :class:`ValueError` on a second run of one workload and seed.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(os.path.join(path, "result-*.json"))))
        else:
            files.append(path)
    runs = RunSet()
    origin: Dict[Tuple[str, int], str] = {}
    for name in files:
        with open(name) as fh:
            record = json.load(fh)
        if bool(record["trace"]) != trace:
            continue
        meta = record["meta"]
        if meta["smoke"]:
            runs.skipped["smoke"] += 1
            continue
        if not record["correct"]:
            runs.skipped["failed a correctness check"] += 1
            continue
        if not meta["client"]["valid"]:
            runs.skipped["generator ran late"] += 1
            continue
        key = (record["workload"], meta["seed"])
        if key in origin:
            raise ValueError(
                "%s and %s are both %s seed %d" % (origin[key], name, key[0], key[1])
            )
        origin[key] = name
        runs.metrics.setdefault(key[0], {})[key[1]] = {
            k: v["value"] for k, v in record["metrics"].items()
        }
        counts = runs.packets.setdefault(key[0], [0, 0])
        counts[0] += record["failed"]
        counts[1] += record["attempted"]
        runs.seconds.add(meta["seconds"])
    return runs


def declared_metrics(trace: bool) -> Dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    return {m["name"]: m for m in declared["per_layer" if trace else "end_to_end"]}


def compare(base: Dict[str, Dict[int, dict]], change: Dict[str, Dict[int, dict]],
            declared: Dict[str, dict]) -> List[dict]:
    """One row per workload x metric; takes :attr:`RunSet.metrics` of each side."""
    rows = []
    for workload in sorted(set(base) & set(change)):
        seeds = sorted(set(base[workload]) & set(change[workload]))
        for name, spec in declared.items():
            b = [m[name] for m in base[workload].values() if name in m]
            c = [m[name] for m in change[workload].values() if name in m]
            if not b or not c:
                continue
            pairs = [
                (base[workload][s][name], change[workload][s][name])
                for s in seeds if name in base[workload][s] and name in change[workload][s]
            ]
            sign = 1 if spec["better"] == "higher" else -1
            b_q, c_q = quartiles(b), quartiles(c)
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": spec["unit"],
                "base": b_q,
                "change": c_q,
                "delta": (c_q[1] - b_q[1]) / abs(b_q[1]) if b_q[1] else 0.0,
                "wins": "%d/%d" % (_gains(pairs, sign), len(pairs)),
                "verdict": verdict(b, c, spec["better"], spec.get("bound"), pairs),
            })
    return rows


def failure_rows(base: RunSet, change: RunSet) -> List[dict]:
    """Per workload: failed/attempted packets per side; ``worse`` when
    the change side fails a larger share."""
    rows = []
    for workload in sorted(set(base.packets) & set(change.packets)):
        (bf, ba), (cf, ca) = base.packets[workload], change.packets[workload]
        rows.append({
            "workload": workload,
            "base": (bf, ba),
            "change": (cf, ca),
            "verdict": "worse" if cf / ca > bf / ba else "same",
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="directory (or result file) of the base runs")
    parser.add_argument("change", help="directory (or result file) of the changed runs")
    parser.add_argument("--trace", action="store_true", help="compare per-layer (traced) runs")
    args = parser.parse_args(argv)
    declared = declared_metrics(args.trace)
    try:
        base = load_results([args.base], args.trace)
        change = load_results([args.change], args.trace)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for side, runs in (("base", base), ("change", change)):
        for reason, n in sorted(runs.skipped.items()):
            print("%s: %d run(s) left out: %s" % (side, n, reason))
    lengths = base.seconds | change.seconds
    if len(lengths) > 1:
        print("error: runs of different lengths (%s s) cannot be compared"
              % ", ".join("%g" % s for s in sorted(lengths)), file=sys.stderr)
        return 2
    rows = compare(base.metrics, change.metrics, declared)
    if not rows:
        print("no workload has comparable results on both sides", file=sys.stderr)
        return 2
    print("%-14s %-34s %-32s %-32s %8s %6s  %s"
          % ("workload", "metric", "base median [q1, q3]", "change median [q1, q3]",
             "delta", "wins", "verdict"))
    for row in rows:
        b, c = row["base"], row["change"]
        print("%-14s %-34s %10.4g [%8.4g, %8.4g] %10.4g [%8.4g, %8.4g] %+7.1f%% %6s  %s"
              % (row["workload"], row["metric"], b[1], b[0], b[2], c[1], c[0], c[2],
                 100 * row["delta"], row["wins"], row["verdict"]))
    failures = failure_rows(base, change)
    for row in failures:
        print("%-14s %-34s %32s %32s %15s  %s"
              % (row["workload"], "failed packets", "%d of %d" % row["base"],
                 "%d of %d" % row["change"], "", row["verdict"]))
    worse = [r for r in rows if r["verdict"] == "worse"] if not args.trace else []
    worse += [r for r in failures if r["verdict"] == "worse"]
    return 1 if worse or change.skipped["failed a correctness check"] else 0


if __name__ == "__main__":
    sys.exit(main())
