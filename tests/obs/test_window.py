"""Rolling-window aggregation under a fake clock: eviction, rates,
empty-window percentile shapes, the event ring."""

import pytest

from repro.obs import (
    EventLog,
    MetricsWindow,
    WindowedCounter,
    WindowedSeries,
    percentile,
    window_summary,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestPercentile:
    def test_nearest_rank_returns_observed_samples(self):
        samples = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert percentile(samples, 50) == 0.3
        assert percentile(samples, 95) == 0.5
        assert percentile(samples, 0) == 0.1
        assert percentile(samples, 100) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError, match="outside"):
            percentile([1.0], 101)

    def test_summary_of_empty_window_is_zero_filled(self):
        # The scrape contract: an idle fabric still renders numbers.
        assert window_summary([]) == {
            "count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0,
        }
        # ... and the same shape, filled, summarises a non-empty one.
        summary = window_summary(list(range(1, 101)))  # 1..100
        assert summary == {
            "count": 100, "p50": 50.0, "p95": 95.0, "p99": 99.0,
            "mean": pytest.approx(50.5), "max": 100.0,
        }


class TestWindowedCounter:
    def test_old_entries_evict_at_the_horizon(self):
        clock = FakeClock()
        counter = WindowedCounter(horizon_s=60.0, clock=clock)
        counter.add(5)
        clock.advance(59.0)
        counter.add(1)
        assert counter.total() == 6.0
        clock.advance(2.0)  # first entry is now 61s old
        assert counter.total() == 1.0
        clock.advance(60.0)
        assert counter.total() == 0.0

    def test_rate_divides_by_age_before_a_full_horizon(self):
        clock = FakeClock()
        counter = WindowedCounter(horizon_s=60.0, clock=clock)
        clock.advance(10.0)
        counter.add(20)
        assert counter.rate() == pytest.approx(2.0)  # 20 events / 10s alive

    def test_rate_divides_by_horizon_after_it(self):
        clock = FakeClock()
        counter = WindowedCounter(horizon_s=60.0, clock=clock)
        clock.advance(120.0)
        counter.add(30)
        assert counter.rate() == pytest.approx(0.5)  # 30 / 60s window

    def test_max_entries_bounds_memory(self):
        clock = FakeClock()
        counter = WindowedCounter(horizon_s=60.0, clock=clock, max_entries=8)
        for _ in range(100):
            counter.add(1)
        assert counter.total() == 8.0

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            WindowedCounter(horizon_s=0.0)


class TestWindowedSeries:
    def test_summary_follows_eviction(self):
        clock = FakeClock()
        series = WindowedSeries(horizon_s=10.0, clock=clock)
        series.observe(1.0)
        clock.advance(5.0)
        series.observe(3.0)
        assert series.summary()["max"] == 3.0
        assert series.summary()["count"] == 2
        clock.advance(6.0)  # the 1.0 sample ages out
        summary = series.summary()
        assert summary["count"] == 1
        assert summary["p50"] == 3.0
        clock.advance(20.0)
        assert series.summary()["count"] == 0

    def test_values_in_order(self):
        clock = FakeClock()
        series = WindowedSeries(horizon_s=10.0, clock=clock)
        for v in (3.0, 1.0, 2.0):
            series.observe(v)
        assert series.values() == [3.0, 1.0, 2.0]


class TestMetricsWindow:
    def test_snapshot_shape_when_empty(self):
        window = MetricsWindow(horizon_s=60.0, clock=FakeClock())
        snap = window.snapshot()
        assert snap["window_s"] == 60.0
        assert snap["counts"]["completed"] == 0
        assert snap["throughput_pps"] == 0.0
        assert snap["shed"] == 0
        assert snap["latency_s"]["count"] == 0
        assert snap["queue_depth"] == {"mean": 0.0, "max": 0.0, "samples": 0}

    def test_counts_and_rates_evict(self):
        clock = FakeClock()
        window = MetricsWindow(horizon_s=60.0, clock=clock)
        clock.advance(30.0)
        for _ in range(6):
            window.count("completed")
        window.count("dropped", 2)
        window.count("rejected")
        snap = window.snapshot()
        assert snap["counts"]["completed"] == 6
        assert snap["shed"] == 3
        assert snap["throughput_pps"] == pytest.approx(6 / 30.0)
        clock.advance(61.0)
        snap = window.snapshot()
        assert snap["counts"]["completed"] == 0
        assert snap["shed"] == 0

    def test_unknown_count_names_are_ignored(self):
        window = MetricsWindow(horizon_s=60.0, clock=FakeClock())
        window.count("not_a_real_counter")  # must not raise or appear
        assert "not_a_real_counter" not in window.snapshot()["counts"]

    def test_latency_percentiles_are_windowed(self):
        clock = FakeClock()
        window = MetricsWindow(horizon_s=10.0, clock=clock)
        window.observe_latency(9.0)  # an ancient outlier
        clock.advance(11.0)
        for v in (0.1, 0.2, 0.3):
            window.observe_latency(v)
        latency = window.snapshot()["latency_s"]
        assert latency["count"] == 3
        assert latency["max"] == 0.3, "the 9s outlier must have aged out"
        assert latency["p50"] == 0.2


class TestEventLog:
    def test_ring_keeps_the_newest(self):
        log = EventLog(capacity=3, clock=FakeClock(100.0))
        for i in range(5):
            log.append("event_%d" % i, {"i": i})
        events = log.snapshot()
        assert [e["event"] for e in events] == ["event_2", "event_3", "event_4"]
        assert [e["seq"] for e in events] == [3, 4, 5]
        assert log.total == 5

    def test_entries_carry_ts_and_args(self):
        log = EventLog(capacity=4, clock=FakeClock(7.5))
        log.append("worker_crash", {"slot": 1})
        (event,) = log.snapshot()
        assert event["ts"] == 7.5
        assert event["args"] == {"slot": 1}

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            EventLog(capacity=0)
