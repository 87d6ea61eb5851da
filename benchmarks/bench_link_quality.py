"""Link-quality sweep — the workload the paper's introduction motivates.

Runs the golden (bit-accurate fixed-point + float) modem across an SNR
sweep over the multipath channel and prints the BER waterfall for the
64-QAM 2x2 configuration — the operating regime in which the processor
must deliver its 100 Mbps+.  (Golden models only: the full simulated
receiver covers one operating point in bench_table2; a warm
:class:`repro.runtime.ModemRuntime` simulates a packet in ~15–30 ms.)

Every operating point is gated against the checked-in reference curves
in ``link_quality_reference.json`` (schema ``repro.link_quality/v1``):
a regression in sync, channel estimation or equalisation shows up as a
per-SNR gate failure, not just a vibe shift in the printed table.  The
scenario matrix sweeps the named impairment presets of
:mod:`repro.phy.scenario` over the same grid.
"""

import json
import os

import numpy as np

from repro.phy.channel import MimoChannel
from repro.phy.modem_ref import run_link
from repro.phy.params import PARAMS_20MHZ_2X2
from repro.phy.scenario import get_scenario, scenario_link
from repro.trace import validate_json

_HERE = os.path.dirname(os.path.abspath(__file__))


def load_reference():
    """The schema-validated link-quality reference gates."""
    with open(os.path.join(_HERE, "link_quality_reference.json")) as fh:
        reference = json.load(fh)
    with open(os.path.join(_HERE, "link_quality.schema.json")) as fh:
        validate_json(reference, json.load(fh))
    return reference


def waterfall_point(snr_db, seeds, n_symbols=2):
    """Seed-averaged BER over the historical multipath channel draw."""
    bers = []
    for seed in seeds:
        chan = MimoChannel(seed=100 + seed)
        _tx, _res, ber = run_link(
            n_symbols=n_symbols, snr_db=snr_db, channel=chan, seed=seed
        )
        bers.append(ber)
    return float(np.mean(bers))


def scenario_point(name, snr_db, seeds, n_symbols=2):
    """Seed-averaged BER for one preset at one SNR."""
    preset = get_scenario(name)
    bers = [
        scenario_link(preset, snr_db=snr_db, seed=seed, n_symbols=n_symbols)[2]
        for seed in seeds
    ]
    return float(np.mean(bers))


def test_ber_waterfall(benchmark, capsys, bench_report):
    reference = load_reference()
    gate = reference["waterfall"]
    seeds = reference["meta"]["seeds"]
    snrs = gate["snr_db"]

    def sweep():
        return [(snr, waterfall_point(snr, seeds)) for snr in snrs]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n=== Link quality: 64-QAM 2x2 over multipath (golden modem) ===")
        print("%8s %10s %10s" % ("SNR dB", "BER", "gate"))
        for (snr, ber), max_ber in zip(rows, gate["max_ber"]):
            print("%8.1f %10.4f %10.4f" % (snr, ber, max_ber))

    bers = [ber for _snr, ber in rows]
    # Per-SNR regression gates from the checked-in reference curve.  The
    # high-SNR point doubles as the sync/equalisation acceptance bar:
    # after the timing/CSD/CFO fixes the uncoded 64-QAM BER at 45 dB is
    # 0.0 over these channel draws (the old defects floored it near 7%).
    for (snr, ber), max_ber in zip(rows, gate["max_ber"]):
        assert ber <= max_ber, "BER %.4f at %.1f dB exceeds gate %.4f" % (
            ber, snr, max_ber,
        )
    assert bers[-1] <= 0.005
    assert bers[0] > gate["min_ber_low_snr"]
    # Monotone waterfall.
    assert all(b1 >= b2 - 1e-9 for b1, b2 in zip(bers, bers[1:]))
    # The rate math behind the 100 Mbps+ title.
    assert PARAMS_20MHZ_2X2.coded_rate_bps > 100e6
    bench_report(
        "link_quality",
        extra={"ber_by_snr_db": {"%.1f" % snr: ber for snr, ber in rows}},
    )


def test_scenario_matrix(benchmark, capsys, bench_report):
    reference = load_reference()
    seeds = reference["meta"]["seeds"]
    scenarios = reference["scenarios"]

    def sweep():
        matrix = {}
        for name in sorted(scenarios):
            snrs = scenarios[name]["snr_db"]
            matrix[name] = [(snr, scenario_point(name, snr, seeds)) for snr in snrs]
        return matrix

    matrix = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n=== Scenario matrix: BER vs SNR per impairment preset ===")
        for name, rows in sorted(matrix.items()):
            print(
                "%-20s %s"
                % (name, "  ".join("%4.1fdB:%.4f" % (snr, ber) for snr, ber in rows))
            )

    failures = []
    for name, rows in matrix.items():
        for (snr, ber), max_ber in zip(rows, scenarios[name]["max_ber"]):
            if ber > max_ber:
                failures.append(
                    "%s at %.1f dB: BER %.4f > gate %.4f" % (name, snr, ber, max_ber)
                )
        bers = [ber for _snr, ber in rows]
        assert all(
            b1 >= b2 - 1e-9 for b1, b2 in zip(bers, bers[1:])
        ), "%s waterfall not monotone: %r" % (name, bers)
    assert not failures, "; ".join(failures)
    bench_report(
        "link_quality_scenarios",
        extra={
            "scenarios": {
                name: {"%.1f" % snr: ber for snr, ber in rows}
                for name, rows in matrix.items()
            }
        },
    )
