"""Typed submission outcomes: shed reasons without string matching."""

import time

import numpy as np
import pytest

from repro.fabric import Fabric, SubmitOutcome, SubmitTimeout
from repro.runtime import BatchPacketResult


class _SlowRunner:
    def run_batch_results(self, rxs):
        time.sleep(0.25 * len(rxs))
        return [BatchPacketResult(output={"n": int(rx.shape[1])}) for rx in rxs]


def _slow_factory():
    return _SlowRunner()


def test_offer_returns_accepted_outcome():
    fab = Fabric(workers=1, runner_factory=_slow_factory, queue_depth=4)
    with fab:
        outcome = fab.offer(np.ones((2, 400)))
        assert isinstance(outcome, SubmitOutcome)
        assert outcome.accepted
        assert outcome.reason is None
        results = fab.drain(timeout=30)
    assert outcome.task_id in results


def test_offer_names_the_drop_shed_path():
    fab = Fabric(
        workers=1, runner_factory=_slow_factory, queue_depth=1, backpressure="drop"
    )
    with fab:
        outcomes = [fab.offer(np.ones((2, 400))) for _ in range(5)]
        shed = [o for o in outcomes if not o.accepted]
        assert shed, "depth-1 drop fabric must shed some of 5 instant offers"
        assert all(o.reason == "dropped" for o in shed)
        assert all(o.task_id is None for o in shed)
        fab.drain(timeout=30)
    assert fab.report()["counters"]["dropped"] == len(shed)


def test_offer_names_the_deadline_shed_path():
    fab = Fabric(
        workers=1,
        runner_factory=_slow_factory,
        queue_depth=1,
        backpressure="deadline",
        deadline_s=0.05,
    )
    with fab:
        outcomes = [fab.offer(np.ones((2, 400))) for _ in range(4)]
        shed = [o for o in outcomes if not o.accepted]
        assert shed, "a 0.05s deadline cannot absorb 4 x 0.25s packets"
        assert all(o.reason == "rejected" for o in shed)
        fab.drain(timeout=30)
    assert fab.report()["counters"]["rejected"] >= len(shed)


def test_submit_timeout_carries_structured_fields(monkeypatch):
    monkeypatch.setattr("repro.fabric.fabric.SUBMIT_TIMEOUT_S", 0.2)
    fab = Fabric(
        workers=1,
        runner_factory=_slow_factory,
        queue_depth=1,
        backpressure="block",
    )
    with fab:
        fab.offer(np.ones((2, 400)))
        with pytest.raises(SubmitTimeout) as exc:
            fab.offer(np.ones((2, 400)))
        fab.drain(timeout=30)
    err = exc.value
    assert err.timeout_s == 0.2
    assert err.workers == 1
    assert err.outstanding >= 1
    # The human-readable message survives unchanged.
    assert "no queue space" in str(err)


def test_offer_task_id_is_plain_id_or_none():
    """``offer().task_id`` — what every caller reads — is an int id or
    None, never an outcome."""
    fab = Fabric(
        workers=1, runner_factory=_slow_factory, queue_depth=1, backpressure="drop"
    )
    with fab:
        ids = [fab.offer(np.ones((2, 400))).task_id for _ in range(4)]
        assert any(i is None for i in ids)
        assert all(i is None or isinstance(i, int) for i in ids)
        fab.drain(timeout=30)
