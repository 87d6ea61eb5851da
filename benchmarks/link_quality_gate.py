#!/usr/bin/env python
"""CI gate: scenario-matrix BER regression check + fabric scenario smoke.

The pytest bench (``bench_link_quality.py``) sweeps the full grid; this
standalone script is the fast CI teeth.  It validates the checked-in
reference curves against ``link_quality.schema.json``, re-measures the
golden modem on the gated operating points (``--quick`` keeps only the
two highest SNRs per scenario) and fails loudly on any BER above its
gate.  Results land in ``BENCH_link_quality.json`` through
``reporting.write_bench_report`` with per-scenario BER extras.

``--fabric-smoke`` additionally serves a seeded mixed-scenario Poisson
stream (``repro.fabric.mixed_scenario_stream``) through a 2-worker
:class:`~repro.fabric.Fabric` and checks the per-scenario accounting
(``repro.fabric.scenario_accounting``): every accepted packet must
complete, the clean baseline packets must decode error-free, and each
impaired scenario must stay under a sanity BER cap for the simulated
tier (whose simpler fixed-point sync is honestly worse than the golden
modem under large CFO — the caps encode that, they do not hide it).

``--measure`` prints the measured matrix as JSON (gates = measured plus
margin are then hand-rounded into ``link_quality_reference.json``).

Run:  PYTHONPATH=src python benchmarks/link_quality_gate.py \\
          [--quick] [--scenarios a,b] [--fabric-smoke] [--packets N] \\
          [--cache DIR] [--out DIR] [--measure]
"""

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

import numpy as np

import reporting
from repro.phy.scenario import get_scenario, scenario_link
from repro.trace import schema_errors

#: Sanity BER caps for the fabric smoke at 45 dB SNR, per scenario.  The
#: fabric workers run the *simulated* fixed-point receiver, not the
#: golden modem; its simpler sync degrades hard on deep fades and large
#: CFO (the golden modem's fixed estimators are not back-ported to the
#: Q15 kernel tiers — their cross-tier bit-identity is pinned by the
#: differential suite).  These are smoke caps — "the serving path
#: decodes and accounts sanely" — not link-quality gates; the real
#: gates run on the golden modem above.
FABRIC_SMOKE_DEFAULT_CAP = 0.45
FABRIC_SMOKE_MAX_BER = {
    "baseline": 0.01,
    "awgn": 0.02,
}


def load_reference():
    with open(os.path.join(_HERE, "link_quality_reference.json")) as fh:
        reference = json.load(fh)
    with open(os.path.join(_HERE, "link_quality.schema.json")) as fh:
        schema = json.load(fh)
    errors = schema_errors(reference, schema)
    if errors:
        raise SystemExit("link_quality_reference.json invalid: " + "; ".join(errors))
    return reference


def measure_matrix(reference, names, quick=False):
    """Seed-averaged golden-modem BER for every gated operating point."""
    seeds = reference["meta"]["seeds"]
    n_symbols = reference["meta"]["n_symbols"]
    matrix = {}
    for name in names:
        entry = reference["scenarios"][name]
        points = list(zip(entry["snr_db"], entry["max_ber"]))
        if quick:
            points = points[-2:]
        preset = get_scenario(name)
        rows = []
        for snr, max_ber in points:
            bers = [
                scenario_link(preset, snr_db=snr, seed=s, n_symbols=n_symbols)[2]
                for s in seeds
            ]
            rows.append((snr, float(np.mean(bers)), max_ber))
        matrix[name] = rows
    return matrix


def check_matrix(matrix):
    failures = []
    for name, rows in sorted(matrix.items()):
        for snr, ber, max_ber in rows:
            status = "ok" if ber <= max_ber else "FAIL"
            print(
                "%-20s %5.1f dB  ber %.4f  gate %.4f  %s"
                % (name, snr, ber, max_ber, status)
            )
            if ber > max_ber:
                failures.append(
                    "%s at %.1f dB: BER %.4f > gate %.4f" % (name, snr, ber, max_ber)
                )
    return failures


def fabric_smoke(args):
    """Mixed-scenario stream through a 2-worker fabric, accounting checked."""
    from repro.fabric import (
        DEFAULT_SCENARIO_MIX,
        Fabric,
        mixed_scenario_stream,
        run_stream,
        scenario_accounting,
        stream_truth,
    )
    from repro.runtime import ModemRuntime

    template = ModemRuntime(cache_dir=args.cache)
    events = list(
        mixed_scenario_stream(
            rate_hz=1e4,
            n_packets=args.packets,
            base_seed=7,
            scenarios=DEFAULT_SCENARIO_MIX,
            snr_choices=(45.0,),
        )
    )
    template.run_packet(events[0].case.rx)
    fab = Fabric(
        workers=2,
        template_runtime=template,
        cache_dir=args.cache,
        queue_depth=max(4, args.packets),
        name="link-quality-smoke",
    )
    with fab:
        offered = run_stream(fab, events)
        results = fab.drain(timeout=600)
    truth = stream_truth(offered)
    accounting = scenario_accounting(results, truth)

    failures = []
    if len(results) != len(truth):
        failures.append(
            "completed %d of %d accepted packets" % (len(results), len(truth))
        )
    for name, bucket in sorted(accounting.items()):
        cap = FABRIC_SMOKE_MAX_BER.get(name, FABRIC_SMOKE_DEFAULT_CAP)
        status = "ok" if bucket["ber"] <= cap and not bucket["errors"] else "FAIL"
        print(
            "fabric %-18s packets %2d  ber %.4f  cap %.2f  errors %d  %s"
            % (name, bucket["packets"], bucket["ber"], cap, bucket["errors"], status)
        )
        if bucket["errors"]:
            failures.append("%s: %d packets errored" % (name, bucket["errors"]))
        if bucket["ber"] > cap:
            failures.append(
                "%s: fabric BER %.4f > smoke cap %.2f" % (name, bucket["ber"], cap)
            )
    return accounting, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="gate only the two highest SNRs per scenario")
    parser.add_argument("--scenarios", default=None, metavar="a,b",
                        help="comma-separated subset (default: all in reference)")
    parser.add_argument("--fabric-smoke", action="store_true",
                        help="also run the mixed-scenario fabric smoke")
    parser.add_argument("--packets", type=int, default=10,
                        help="packets for the fabric smoke (default 10)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="schedule-cache directory for the fabric smoke")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="report directory (default benchmarks/out/)")
    parser.add_argument("--measure", action="store_true",
                        help="print the measured matrix JSON and exit 0")
    args = parser.parse_args(argv)

    clock = reporting.BenchClock()
    reference = load_reference()
    names = sorted(reference["scenarios"])
    if args.scenarios:
        names = [n.strip() for n in args.scenarios.split(",") if n.strip()]
        unknown = [n for n in names if n not in reference["scenarios"]]
        if unknown:
            raise SystemExit("unknown scenarios: %s" % ", ".join(unknown))

    matrix = measure_matrix(reference, names, quick=args.quick and not args.measure)
    if args.measure:
        print(json.dumps(
            {name: {"snr_db": [s for s, _b, _g in rows],
                    "ber": [b for _s, b, _g in rows]}
             for name, rows in matrix.items()},
            indent=1, sort_keys=True,
        ))
        return 0

    failures = check_matrix(matrix)
    extra = {
        "reference_schema": reference["schema"],
        "quick": bool(args.quick),
        "scenarios": {
            name: {"%.1f" % snr: ber for snr, ber, _gate in rows}
            for name, rows in matrix.items()
        },
    }
    if args.fabric_smoke:
        accounting, smoke_failures = fabric_smoke(args)
        failures.extend(smoke_failures)
        extra["fabric"] = accounting

    path = reporting.write_bench_report(
        "link_quality_gate", out_dir=args.out, wall_s=clock.elapsed(), extra=extra
    )
    print("wrote %s" % path)
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("link-quality gates passed (%d scenarios%s)" % (
        len(names), " + fabric smoke" if args.fabric_smoke else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
