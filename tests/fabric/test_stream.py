"""Poisson stream driver: reproducibility, bounds, traffic mixing."""

import numpy as np
import pytest

from repro.fabric import (
    DEFAULT_SCENARIO_MIX,
    mixed_scenario_stream,
    poisson_stream,
    scenario_accounting,
)
from repro.fabric.report import fabric_prometheus_text, latency_percentiles
from repro.obs.window import percentile
from repro.phy.scenario import get_scenario
from repro.runtime.workload import PacketCase


def test_stream_is_reproducible():
    kwargs = dict(
        rate_hz=100.0,
        n_packets=6,
        base_seed=7,
        cfo_choices=(30e3, 50e3),
        snr_choices=(None, 25.0),
        pad_choices=(0, 64),
    )
    a = list(poisson_stream(**kwargs))
    b = list(poisson_stream(**kwargs))
    assert len(a) == len(b) == 6
    for ea, eb in zip(a, b):
        assert ea.time_s == eb.time_s
        assert ea.seq == eb.seq
        assert ea.case.cfo_hz == eb.case.cfo_hz
        assert ea.case.snr_db == eb.case.snr_db
        assert np.array_equal(ea.case.rx, eb.case.rx)
        assert np.array_equal(ea.case.bits, eb.case.bits)


def test_stream_arrival_times_increase_and_respect_duration():
    events = list(poisson_stream(rate_hz=50.0, duration_s=0.5, base_seed=3))
    assert events, "expected at least one arrival in 0.5s at 50 Hz"
    times = [e.time_s for e in events]
    assert times == sorted(times)
    assert all(0 < t < 0.5 for t in times)
    # Rough rate sanity for a fixed seed: 50 Hz over 0.5 s ~ 25 packets.
    assert 5 <= len(events) <= 60


def test_stream_n_packets_bound_and_distinct_payloads():
    events = list(poisson_stream(rate_hz=1000.0, n_packets=4, base_seed=0))
    assert [e.seq for e in events] == [0, 1, 2, 3]
    payloads = {tuple(e.case.bits) for e in events}
    assert len(payloads) == 4


def test_stream_mixes_declared_traffic_only():
    cfos = (30e3, 50e3)
    pads = (0, 64)
    events = list(
        poisson_stream(
            rate_hz=1000.0, n_packets=24, base_seed=11, cfo_choices=cfos, pad_choices=pads
        )
    )
    seen_cfo = {e.case.cfo_hz for e in events}
    seen_len = {e.case.rx.shape[1] for e in events}
    assert seen_cfo <= set(cfos)
    assert len(seen_cfo) == 2, "both CFO choices should appear in 24 draws"
    assert len(seen_len) == 2, "both shapes should appear in 24 draws"
    lens = sorted(seen_len)
    assert lens[1] - lens[0] == 64


def test_singleton_scenario_choice_keeps_classic_stream_identical():
    """Adding scenario_choices=(None,) must not consume extra RNG draws:
    existing callers replay byte-identical streams."""
    a = list(poisson_stream(rate_hz=500.0, n_packets=5, base_seed=19))
    b = list(
        poisson_stream(
            rate_hz=500.0, n_packets=5, base_seed=19, scenario_choices=(None,)
        )
    )
    for ea, eb in zip(a, b):
        assert ea.time_s == eb.time_s
        assert np.array_equal(ea.case.rx, eb.case.rx)
        assert ea.case.scenario is None


def test_mixed_scenario_stream_draws_declared_presets_reproducibly():
    a = list(mixed_scenario_stream(rate_hz=1000.0, n_packets=20, base_seed=9))
    b = list(mixed_scenario_stream(rate_hz=1000.0, n_packets=20, base_seed=9))
    for ea, eb in zip(a, b):
        assert ea.case.scenario == eb.case.scenario
        assert np.array_equal(ea.case.rx, eb.case.rx)
    names = {e.case.scenario for e in a}
    declared = {name for name in DEFAULT_SCENARIO_MIX}
    assert names <= declared
    assert len(names) >= 3, "20 draws should mix several presets"


def test_scenario_packets_record_preset_cfo_truth():
    events = list(
        mixed_scenario_stream(
            rate_hz=1000.0, n_packets=16, base_seed=5, scenarios=("cfo_stress",)
        )
    )
    preset = get_scenario("cfo_stress")
    for event in events:
        assert event.case.scenario == "cfo_stress"
        assert event.case.cfo_hz == preset.packet_cfo_hz(event.case.seed)


def test_scenario_accounting_buckets_and_ber():
    bits = np.array([0, 1, 1, 0], dtype=np.int64)

    class _Result:
        def __init__(self, decoded):
            self.bits = decoded

    def case(scenario):
        return PacketCase(
            seed=0, cfo_hz=0.0, snr_db=None, bits=bits,
            rx=np.zeros((2, 1)), scenario=scenario,
        )

    truth = {1: case("awgn"), 2: case("awgn"), 3: case(None), 4: case("cfo_stress")}
    results = {
        1: _Result(bits.copy()),                      # clean decode
        2: _Result(np.array([1, 1, 1, 0])),           # 1 bit error
        3: _Result(bits.copy()),
        # task 4 missing: crashed / never completed -> errors bucket
    }
    acct = scenario_accounting(results, truth)
    assert acct["awgn"] == {
        "packets": 2, "bits": 8, "bit_errors": 1, "ber": 0.125, "errors": 0,
    }
    assert acct["baseline"]["ber"] == 0.0
    assert acct["cfo_stress"]["errors"] == 1
    assert acct["cfo_stress"]["bits"] == 0


def test_stream_argument_validation():
    with pytest.raises(ValueError, match="rate_hz"):
        list(poisson_stream(rate_hz=0.0, n_packets=1))
    with pytest.raises(ValueError, match="bound the stream"):
        list(poisson_stream(rate_hz=1.0))


# ----------------------------------------------------------------------
# Percentile helpers (the shared latency math).
# ----------------------------------------------------------------------


def test_percentile_nearest_rank():
    samples = [10.0, 20.0, 30.0, 40.0]
    assert percentile(samples, 50) == 20.0
    assert percentile(samples, 95) == 40.0
    assert percentile(samples, 0) == 10.0
    assert percentile(samples, 100) == 40.0
    assert percentile([5.0], 99) == 5.0


def test_percentile_validation():
    with pytest.raises(ValueError, match="empty"):
        percentile([], 50)
    with pytest.raises(ValueError, match="outside"):
        percentile([1.0], 101)


def test_latency_percentiles():
    samples = list(range(1, 101))  # 1..100
    p = latency_percentiles(samples)
    assert p == {"p50": 50.0, "p95": 95.0, "p99": 99.0}


def test_prometheus_quantile_labels_are_fractional():
    """Summary quantile labels follow the Prometheus convention
    (quantile="0.5"), not the p50/p95/p99 report keys."""
    report = {
        "counters": {"completed": 3},
        "workers": 1,
        "latency_s": {"count": 3, "p50": 0.1, "p95": 0.2, "p99": 0.3},
        "per_worker": [],
    }
    text = fabric_prometheus_text(report)
    assert 'repro_fabric_latency_seconds{quantile="0.5"} 0.1' in text
    assert 'repro_fabric_latency_seconds{quantile="0.95"} 0.2' in text
    assert 'repro_fabric_latency_seconds{quantile="0.99"} 0.3' in text
    assert 'quantile="50"' not in text
