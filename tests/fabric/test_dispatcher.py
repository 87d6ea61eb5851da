"""Dispatcher policy unit tests: pure WorkerState bookkeeping, no processes."""

import pytest

from repro.fabric import Dispatcher, FabricTask, WorkerState


def _task(task_id):
    return FabricTask(task_id, None, submit_t=0.0)


def _workers(n, queue_depth=2):
    return [WorkerState(i, queue_depth) for i in range(n)]


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown dispatch policy"):
        Dispatcher("fastest_first")


def test_round_robin_cycles_all_slots():
    workers = _workers(3)
    d = Dispatcher("round_robin")
    picks = []
    for k in range(6):
        w = d.select(workers)
        picks.append(w.index)
        w.assign(_task(k))
        w.pending.clear()  # keep capacity available
    assert picks == [0, 1, 2, 0, 1, 2]


def test_round_robin_skips_full_and_dead_slots():
    workers = _workers(3, queue_depth=1)
    workers[0].assign(_task(0))  # full
    workers[1].alive = False
    d = Dispatcher("round_robin")
    assert d.select(workers).index == 2
    workers[2].assign(_task(1))
    assert d.select(workers) is None  # everything full or dead


def test_least_loaded_picks_minimum_load_lowest_index():
    workers = _workers(3, queue_depth=4)
    workers[0].assign(_task(0))
    workers[0].assign(_task(1))
    workers[2].assign(_task(2))
    d = Dispatcher("least_loaded")
    assert d.select(workers).index == 1
    workers[1].assign(_task(3))
    # Tie between 1 and 2 at load 1: lowest index wins.
    assert d.select(workers).index == 1


def test_least_loaded_counts_inflight():
    workers = _workers(2, queue_depth=4)
    workers[0].inflight[7] = _task(7)
    d = Dispatcher("least_loaded")
    assert d.select(workers).index == 1


def test_select_none_when_all_full():
    workers = _workers(2, queue_depth=1)
    for k, w in enumerate(workers):
        w.assign(_task(k))
    for policy in ("round_robin", "least_loaded"):
        assert Dispatcher(policy).select(workers) is None


def test_requeue_select_waives_capacity_and_skips_dead():
    workers = _workers(3, queue_depth=1)
    for k, w in enumerate(workers):
        w.assign(_task(k))  # all full: normal select refuses
    workers[0].alive = False
    workers[2].stopping = True
    target = Dispatcher.requeue_select(workers)
    assert target.index == 1  # only alive, non-stopping slot
    workers[1].alive = False
    assert Dispatcher.requeue_select(workers) is None
