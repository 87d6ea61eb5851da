"""The live telemetry plane over a real (stub-runner) fabric: heartbeats
arriving through the result-pipe multiplexing, /healthz verdicts over
HTTP, SIGSTOP detection, watchdog escalation into crash recovery."""

import json
import os
import signal
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.fabric import Fabric
from repro.runtime import BatchPacketResult


class _StubRunner:
    #: Seconds each packet takes.
    delay_s = 0.0

    def run_batch_results(self, rxs, n_symbols=2, detect_hint=None):
        time.sleep(self.delay_s * len(rxs))
        return [BatchPacketResult(output={"sum": float(np.sum(rx.real)), "pid": os.getpid()})
                for rx in rxs]


def _factory():
    return _StubRunner()


def _packets(n):
    return [np.full((2, 400), float(k + 1)) for k in range(n)]


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


def _pump_until(fab, predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        fab.poll(0.05)
        if predicate():
            return True
    return False


def test_heartbeats_flow_and_report_carries_them():
    fab = Fabric(workers=2, runner_factory=_factory, heartbeat_s=0.1)
    with fab:
        ids = [fab.offer(rx).task_id for rx in _packets(4)]
        fab.drain(timeout=30)
        assert _pump_until(
            fab,
            lambda: all(w["heartbeats"] >= 2 for w in fab.report()["per_worker"]),
        ), "every worker should beat repeatedly at 0.1s intervals"
        report = fab.report()
        assert report["counters"]["heartbeats"] >= 4
        assert report["heartbeat_s"] == 0.1
        for worker in report["per_worker"]:
            assert worker["last_heartbeat_age_s"] is not None
            assert worker["task_seq"] is not None
            assert worker["rss_bytes"] > 0
            assert worker["health"] == "pass"
        assert len(ids) == 4


def test_window_snapshot_tracks_recent_completions():
    fab = Fabric(workers=1, runner_factory=_factory, heartbeat_s=0.0, window_s=30.0)
    with fab:
        for rx in _packets(5):
            fab.offer(rx)
        fab.drain(timeout=30)
        window = fab.report()["window"]
    assert window["window_s"] == 30.0
    assert window["counts"]["submitted"] == 5
    assert window["counts"]["completed"] == 5
    assert window["latency_s"]["count"] == 5
    assert window["throughput_pps"] > 0


def test_healthz_over_http_reports_sigstopped_worker_within_two_intervals():
    """The ISSUE acceptance bar: a SIGSTOPped worker turns /healthz red
    within two heartbeat intervals."""
    interval = 0.2
    fab = Fabric(
        workers=2,
        runner_factory=_factory,
        heartbeat_s=interval,
        watchdog_intervals=1000,  # detection only: no escalation today
        obs_port=0,
    )
    with fab:
        fab.offer(np.ones((2, 400)))
        fab.drain(timeout=30)
        assert _pump_until(
            fab, lambda: all(w["heartbeats"] > 0 for w in fab.report()["per_worker"])
        )
        status, body = _get(fab.obs_url + "/healthz")
        assert status == 200 and json.loads(body)["status"] == "pass"

        victim = fab.worker_pids()[0]
        os.kill(victim, signal.SIGSTOP)
        try:
            t0 = time.monotonic()
            assert _pump_until(
                fab,
                lambda: json.loads(_get(fab.obs_url + "/healthz")[1])["status"] == "fail",
                timeout_s=10 * interval,
            ), "a stopped worker must fail /healthz"
            elapsed = time.monotonic() - t0
            # Silence is detected at 2 intervals; allow pump/scrape slack.
            assert elapsed < 6 * interval
            status, body = _get(fab.obs_url + "/healthz")
            assert status == 503
            health = json.loads(body)
            failed = [
                k for k, (c,) in health["checks"].items()
                if k.startswith("worker:") and c["status"] == "fail"
            ]
            assert len(failed) == 1
            (check,) = health["checks"][failed[0]]
            assert check["observedValue"] >= 2 * interval
        finally:
            os.kill(victim, signal.SIGCONT)
        assert _pump_until(
            fab,
            lambda: json.loads(_get(fab.obs_url + "/healthz")[1])["status"] == "pass",
        ), "a resumed worker must recover"


def test_watchdog_escalation_converts_stuck_into_crash_recovery():
    """escalate=True: the watchdog SIGKILLs a silent worker, and the
    existing salvage/requeue/respawn path finishes the work."""
    class _Slow(_StubRunner):
        delay_s = 0.15

    interval = 0.1
    fab = Fabric(
        workers=2,
        runner_factory=_Slow,
        heartbeat_s=interval,
        watchdog_intervals=3,
        watchdog_escalate=True,
        queue_depth=8,
    )
    with fab:
        ids = [fab.offer(rx).task_id for rx in _packets(6)]
        # SIGSTOP a busy worker: tasks are in flight, only the beat stops.
        victim = fab.worker_pids()[0]
        os.kill(victim, signal.SIGSTOP)
        assert _pump_until(
            fab, lambda: fab.report()["counters"]["watchdog_kills"] >= 1
        ), "the watchdog should escalate a silent worker to SIGKILL"
        assert _pump_until(
            fab, lambda: fab.report()["counters"]["respawns"] >= 1
        ), "the SIGKILL must land in the crash-recovery path"
        results = fab.drain(timeout=30)
        report = fab.report()
    assert sorted(results) == sorted(ids), "no packet lost across escalation"
    assert report["counters"]["watchdog_flags"] >= 1
    assert report["counters"]["worker_crashes"] >= 1
    assert report["counters"]["respawns"] >= 1
    events = [e["event"] for e in fab.events()]
    assert "watchdog_flag" in events
    assert "worker_crash" in events
    assert "worker_respawn" in events


def test_health_degrades_to_warn_when_nobody_pumps():
    """Heartbeats ride the pump; a stale pump makes worker silence
    unattributable, so verdicts cap at warn with a fabric:pump check."""
    interval = 0.1
    fab = Fabric(workers=1, runner_factory=_factory, heartbeat_s=interval)
    with fab:
        fab.offer(np.ones((2, 400)))
        fab.drain(timeout=30)
        fab.poll(0.05)  # a fresh pump timestamp
        time.sleep(6 * interval)  # nobody pumps: beats pile up unread
        health = fab.health()
        assert health["status"] == "warn", health
        assert health["checks"]["fabric:pump"][0]["status"] == "warn"
        worker_statuses = [
            c["status"] for k, (c,) in health["checks"].items()
            if k.startswith("worker:")
        ]
        assert "fail" not in worker_statuses


def test_events_endpoint_and_shed_accounting():
    class _Slow(_StubRunner):
        delay_s = 0.2

    fab = Fabric(
        workers=1,
        runner_factory=_Slow,
        queue_depth=1,
        backpressure="drop",
        heartbeat_s=0.0,
        obs_port=0,
    )
    with fab:
        ids = [fab.offer(rx).task_id for rx in _packets(5)]
        dropped = ids.count(None)
        assert dropped >= 3
        fab.drain(timeout=30)
        status, body = _get(fab.obs_url + "/events.json")
        events = json.loads(body)
        window = fab.report()["window"]
    assert status == 200
    assert sum(1 for e in events if e["event"] == "packet_dropped") == dropped
    assert window["counts"]["dropped"] == dropped
    assert window["shed"] == dropped


def test_obs_server_lifecycle_follows_the_fabric():
    fab = Fabric(workers=1, runner_factory=_factory, heartbeat_s=0.0, obs_port=0)
    with fab:
        url = fab.obs_url
        assert url is not None
        assert _get(url + "/metrics")[0] == 200
    assert fab.obs_url is None, "shutdown must stop the server"
    with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
        urllib.request.urlopen(url + "/metrics", timeout=2)


def test_heartbeats_disabled_leaves_plain_liveness():
    fab = Fabric(workers=1, runner_factory=_factory, heartbeat_s=0.0)
    with fab:
        fab.offer(np.ones((2, 400)))
        fab.drain(timeout=30)
        report = fab.report()
        health = fab.health()
    assert report["counters"]["heartbeats"] == 0
    assert report["watchdog"] is None
    assert health["status"] == "pass", "alive workers pass without beats"


def test_metrics_text_lints_clean_with_live_data():
    from repro.obs import lint_exposition

    fab = Fabric(workers=2, runner_factory=_factory, heartbeat_s=0.1)
    with fab:
        for rx in _packets(4):
            fab.offer(rx)
        fab.drain(timeout=30)
        _pump_until(
            fab, lambda: all(w["heartbeats"] > 0 for w in fab.report()["per_worker"])
        )
        page = fab.metrics_text()
    assert lint_exposition(page) == []
    assert "repro_fabric_worker_heartbeat_age_seconds" in page
    assert 'repro_fabric_worker_healthy{' in page
    assert 'repro_fabric_cache_events{cache="schedule",event="misses"}' in page
