"""Batch-drain dispatch mechanics under stub runners.

Covers the opportunistic coalescing path: same-shape queued tasks are
drained into one dispatch message (up to the fabric's ``batch`` width),
workers with a batched runner execute the whole group in one call, and
the per-slot occupancy accounting (``batches`` / ``batched_tasks`` /
``batch_occupancy``) lands in the report, the JSON schema and the
Prometheus rendering.  Real-modem bit-identity through the batched
runtime is covered by the differential suite and the batched smoke
benchmark.
"""

import json
import os
import time

import numpy as np

from repro.fabric import Fabric, FabricTaskError
from repro.obs.prom import lint_exposition
from repro.trace import schema_errors

_SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "fabric_report.schema.json"
)


class _LaneResult:
    """Duck-typed BatchPacketResult: exactly one of output/error set."""

    __slots__ = ("output", "error")

    def __init__(self, output=None, error=None):
        self.output = output
        self.error = error


class _BatchStub:
    """Batched stub runner: tags each result with its dispatch width so
    the parent-side test can prove coalescing happened in the child."""

    def __init__(self, delay_s=0.05):
        self.delay_s = delay_s

    def _one(self, rx, width):
        if float(rx[0, 0].real) == -1.0:
            raise ValueError("poison packet")
        return {"sum": float(np.sum(rx.real)), "width": width, "pid": os.getpid()}

    def run_batch_results(self, rxs, n_symbols=2, detect_hint=None):
        time.sleep(self.delay_s)
        out = []
        for rx in rxs:
            try:
                out.append(_LaneResult(output=self._one(rx, len(rxs))))
            except Exception as exc:
                out.append(_LaneResult(error=exc))
        return out


def _batched_factory():
    return _BatchStub()


def _packets(n, base_len=400):
    return [np.full((2, base_len), float(k + 1)) for k in range(n)]


def test_batch_drain_coalesces_and_reports_occupancy():
    fab = Fabric(
        workers=1, batch=4, queue_depth=16, runner_factory=_batched_factory
    )
    with fab:
        packets = _packets(9)
        ids = [fab.offer(rx).task_id for rx in packets]
        results = fab.drain(timeout=30)
    assert sorted(results) == sorted(ids)
    widths = []
    for task_id, rx in zip(ids, packets):
        assert results[task_id]["sum"] == float(np.sum(rx.real))
        widths.append(results[task_id]["width"])
    # The first dispatch goes out alone, but once the worker is busy the
    # queue backs up and later dispatches must coalesce.
    assert max(widths) > 1, widths
    assert all(w <= 4 for w in widths), widths

    report = fab.report()
    assert report["batch"] == 4
    worker = report["per_worker"][0]
    assert worker["batched_tasks"] == 9
    # Each task reports its dispatch width, so the dispatch count is the
    # sum of 1/width over tasks — and must match the slot's accounting.
    assert worker["batches"] == round(sum(1.0 / w for w in widths))
    assert worker["batches"] < len(ids), "coalescing must cut dispatches"
    assert worker["batch_occupancy"] == round(9 / (worker["batches"] * 4), 4)
    with open(_SCHEMA_PATH) as fh:
        schema = json.load(fh)
    assert schema_errors(report, schema) == []
    text = fab.metrics_text()
    assert lint_exposition(text) == []
    assert "repro_fabric_worker_batch_occupancy" in text
    assert "repro_fabric_batch 4" in text


def test_batched_dispatch_reports_per_task_errors():
    fab = Fabric(
        workers=1, batch=4, queue_depth=16, runner_factory=_batched_factory
    )
    with fab:
        packets = _packets(6)
        packets[3] = np.full((2, 400), -1.0)  # poison one mid-batch lane
        ids = [fab.offer(rx).task_id for rx in packets]
        results = fab.drain(timeout=30)
    assert sorted(results) == sorted(ids)
    for k, task_id in enumerate(ids):
        if k == 3:
            assert isinstance(results[task_id], FabricTaskError)
            assert "poison packet" in str(results[task_id])
        else:
            assert results[task_id]["sum"] == float(np.sum(packets[k].real))
    report = fab.report()
    assert report["counters"]["task_errors"] == 1
    assert report["counters"]["completed"] == 6


def test_mixed_shapes_never_share_a_dispatch():
    fab = Fabric(
        workers=1, batch=4, queue_depth=16, runner_factory=_batched_factory
    )
    with fab:
        # Alternating shapes: coalescing must break at every boundary.
        packets = [
            np.full((2, 400 + 16 * (k % 2)), float(k + 1)) for k in range(8)
        ]
        ids = [fab.offer(rx).task_id for rx in packets]
        results = fab.drain(timeout=30)
    for task_id, rx in zip(ids, packets):
        out = results[task_id]
        assert out["sum"] == float(np.sum(rx.real))
        assert out["width"] == 1, "different shapes must not coalesce"


def test_offer_many_accounting_matches_per_packet_semantics():
    fab = Fabric(
        workers=1,
        batch=2,
        queue_depth=2,
        backpressure="drop",
        runner_factory=_batched_factory,
    )
    with fab:
        outcomes = fab.offer_many(_packets(8))
        accepted = [o.task_id for o in outcomes if o.accepted]
        shed = [o for o in outcomes if not o.accepted]
        assert accepted and shed
        assert all(o.reason == "dropped" for o in shed)
        results = fab.drain(timeout=30)
    assert sorted(results) == sorted(accepted)
    report = fab.report()
    assert report["counters"]["submitted"] == len(accepted)
    assert report["counters"]["dropped"] == len(shed)
    assert report["counters"]["completed"] == len(accepted)
