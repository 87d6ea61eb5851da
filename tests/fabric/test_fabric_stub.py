"""Fabric mechanics under a cheap stub runner: backpressure, crash
recovery, graceful shutdown.  The stub keeps these tests fast and
scheduling-free; the real-modem behaviour (bit-identity, warm forks) is
covered by ``test_fabric_modem.py``.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.fabric import (
    DeadlineExceeded,
    Fabric,
    FabricClosed,
    FabricTaskError,
    SubmitTimeout,
)
from repro.runtime import BatchPacketResult


class _StubRunner:
    """Pretends to be a ModemRuntime: checksums instead of simulation."""

    def __init__(self, delay_s=0.0):
        self.delay_s = delay_s

    def run_batch_results(self, rxs):
        return [self._one(rx) for rx in rxs]

    def _one(self, rx):
        if float(rx[0, 0].real) == -1.0:
            return BatchPacketResult(error=ValueError("poison packet"))
        if self.delay_s:
            time.sleep(self.delay_s)
        return BatchPacketResult(
            output={"sum": float(np.sum(rx.real)), "n": int(rx.shape[1]), "pid": os.getpid()})


def _fast_factory():
    return _StubRunner(0.0)


def _slow_factory():
    return _StubRunner(0.25)


def _packets(n, base_len=400):
    return [np.full((2, base_len + 16 * (k % 2)), float(k + 1)) for k in range(n)]


def test_submit_drain_results_and_counters():
    fab = Fabric(workers=2, runner_factory=_fast_factory, queue_depth=4)
    with fab:
        packets = _packets(6)
        ids = [fab.offer(rx).task_id for rx in packets]
        results = fab.drain(timeout=30)
    assert sorted(results) == sorted(ids)
    for task_id, rx in zip(ids, packets):
        assert results[task_id]["sum"] == float(np.sum(rx.real))
    report = fab.report()
    assert report["counters"]["submitted"] == 6
    assert report["counters"]["completed"] == 6
    assert report["counters"]["dropped"] == 0
    assert report["counters"]["duplicates"] == 0
    assert report["latency_s"]["count"] == 6
    assert sum(w["completed"] for w in report["per_worker"]) == 6


def test_both_workers_share_the_load():
    fab = Fabric(workers=2, runner_factory=_slow_factory, queue_depth=4)
    with fab:
        ids = [fab.offer(rx).task_id for rx in _packets(4)]
        results = fab.drain(timeout=30)
    pids = {results[i]["pid"] for i in ids}
    assert len(pids) == 2, "round-robin should use both workers"


def test_drop_backpressure_sheds_with_accounting():
    fab = Fabric(
        workers=1, runner_factory=_slow_factory, queue_depth=1, backpressure="drop"
    )
    with fab:
        ids = [fab.offer(rx).task_id for rx in _packets(5)]
        accepted = [i for i in ids if i is not None]
        dropped = ids.count(None)
        assert dropped >= 3, ids  # depth 1 + one in flight at most
        results = fab.drain(timeout=30)
    assert sorted(results) == sorted(accepted)
    report = fab.report()
    assert report["counters"]["dropped"] == dropped
    assert report["counters"]["submitted"] == len(accepted)
    assert report["counters"]["completed"] == len(accepted)


def test_deadline_backpressure_rejects_late_packets():
    fab = Fabric(
        workers=1,
        runner_factory=_slow_factory,
        queue_depth=1,
        backpressure="deadline",
        deadline_s=0.05,
    )
    with fab:
        ids = [fab.offer(rx).task_id for rx in _packets(4)]
        accepted = [i for i in ids if i is not None]
        assert ids[0] is not None
        assert None in ids, "a 0.05s deadline cannot absorb 4 x 0.25s packets"
        results = fab.drain(timeout=30)
    report = fab.report()
    assert report["counters"]["rejected"] == ids.count(None)
    assert sorted(results) == sorted(accepted)


def test_deadline_expiry_in_queue_leaves_a_sentinel_result():
    """An *accepted* packet whose deadline lapses while queued must still
    resolve in results() — as a DeadlineExceeded sentinel — so a caller
    indexing the id offer() accepted never KeyErrors."""
    fab = Fabric(
        workers=1,
        runner_factory=_slow_factory,
        queue_depth=2,
        backpressure="deadline",
        deadline_s=0.1,
    )
    with fab:
        first = fab.offer(np.ones((2, 400))).task_id  # dispatched immediately
        # Accepted (queue has room) but stuck behind the 0.25s packet in
        # flight, so its 0.1s deadline expires before it can dispatch.
        second = fab.offer(np.ones((2, 400))).task_id
        assert first is not None and second is not None
        results = fab.drain(timeout=30)
    assert results[first]["sum"] == float(np.sum(np.ones((2, 400))))
    assert isinstance(results[second], DeadlineExceeded)
    assert results[second].task_id == second
    report = fab.report()
    assert report["counters"]["rejected"] == 1
    assert report["counters"]["completed"] == 1


def test_block_backpressure_completes_everything():
    fab = Fabric(
        workers=2,
        runner_factory=_slow_factory,
        queue_depth=1,
        backpressure="block",
    )
    with fab:
        packets = _packets(6)
        ids = [fab.offer(rx).task_id for rx in packets]
        assert None not in ids
        results = fab.drain(timeout=30)
    assert len(results) == 6
    report = fab.report()
    assert report["counters"]["dropped"] == 0
    assert report["counters"]["rejected"] == 0


def test_block_backpressure_times_out(monkeypatch):
    monkeypatch.setattr("repro.fabric.fabric.SUBMIT_TIMEOUT_S", 0.2)
    fab = Fabric(
        workers=1,
        runner_factory=_slow_factory,
        queue_depth=1,
        backpressure="block",
    )
    with fab:
        fab.offer(np.ones((2, 400)))  # occupies the only queue slot
        # The worker needs 0.25s per packet but submission only waits
        # 0.2s, so the second offer must time out.
        with pytest.raises(SubmitTimeout, match="no queue space"):
            fab.offer(np.ones((2, 400)))
        fab.drain(timeout=30)


def test_worker_crash_requeues_respawns_and_loses_nothing():
    fab = Fabric(workers=2, runner_factory=_slow_factory, queue_depth=4)
    with fab:
        packets = _packets(6)
        ids = [fab.offer(rx).task_id for rx in packets]
        time.sleep(0.3)  # let worker 0 get busy mid-stream
        victim = fab.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        results = fab.drain(timeout=30)
        report = fab.report()  # before shutdown marks every slot stopped
    assert sorted(results) == sorted(ids), "no packet lost"
    for task_id, rx in zip(ids, packets):
        assert results[task_id]["sum"] == float(np.sum(rx.real))
    assert report["counters"]["worker_crashes"] == 1
    assert report["counters"]["respawns"] == 1
    assert report["counters"]["requeued"] >= 1
    assert report["counters"]["duplicates"] == 0
    assert report["counters"]["completed"] == 6
    crashed = [w for w in report["per_worker"] if w["crashes"] == 1]
    assert len(crashed) == 1 and crashed[0]["alive"], "slot respawned"


def test_respawned_slot_serves_traffic():
    """An idle worker killed between packets is respawned, and the new
    incarnation (the only slot) serves the next packet."""
    fab = Fabric(workers=1, runner_factory=_fast_factory, queue_depth=4)
    with fab:
        fab.offer(np.ones((2, 400)))
        fab.drain(timeout=30)
        victim = fab.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 10
        while fab._counters["respawns"] == 0 and time.time() < deadline:
            fab.poll(0.05)
        assert fab._counters["respawns"] == 1
        task_id = fab.offer(np.ones((2, 400))).task_id
        results = fab.drain(timeout=30)
    assert results[task_id]["sum"] == float(np.sum(np.ones((2, 400))))
    assert results[task_id]["pid"] != victim


def test_task_error_is_recorded_and_worker_survives():
    fab = Fabric(workers=1, runner_factory=_fast_factory, queue_depth=4)
    with fab:
        poison = np.full((2, 400), -1.0)
        good = np.ones((2, 400))
        bad_id = fab.offer(poison).task_id
        good_id = fab.offer(good).task_id
        results = fab.drain(timeout=30)
    assert isinstance(results[bad_id], FabricTaskError)
    assert "poison packet" in str(results[bad_id])
    assert results[good_id]["sum"] == float(np.sum(good.real))
    report = fab.report()
    assert report["counters"]["task_errors"] == 1
    assert report["counters"]["worker_crashes"] == 0


def test_graceful_shutdown_drains_then_stops_workers():
    fab = Fabric(workers=2, runner_factory=_slow_factory, queue_depth=4)
    fab.start()
    ids = [fab.offer(rx).task_id for rx in _packets(4)]
    fab.shutdown(drain=True, timeout=30)
    results = fab.results()
    assert sorted(results) == sorted(ids)
    assert all(not w.proc.is_alive() for w in fab._workers)
    with pytest.raises(FabricClosed):
        fab.offer(np.ones((2, 400)))


def test_lifecycle_and_config_validation():
    with pytest.raises(ValueError, match="at least one worker"):
        Fabric(workers=0)
    with pytest.raises(ValueError, match="backpressure"):
        Fabric(backpressure="shed")
    with pytest.raises(ValueError, match="queue_depth"):
        Fabric(queue_depth=0)
    with pytest.raises(ValueError, match="deadline"):
        Fabric(backpressure="deadline")
    with pytest.raises(ValueError, match="heartbeat_s"):
        Fabric(heartbeat_s=0)
    fab = Fabric(workers=1, runner_factory=_fast_factory)
    with pytest.raises(FabricClosed, match="not started"):
        fab.offer(np.ones((2, 400)))
