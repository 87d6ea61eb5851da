"""Tracer semantics: spans, ring buffer, disabled path, clocks."""

import pytest

from repro.trace import NULL_TRACER, StallCause, TraceError, Tracer, get_tracer, set_tracer


def test_span_nesting_emits_balanced_begin_end():
    tr = Tracer()
    with tr.span("outer", 0):
        assert tr.depth == 1
        with tr.span("inner", 2, cat="mem"):
            assert tr.depth == 2
        tr.instant("mark", 5)
    assert tr.depth == 0
    kinds = [(e.kind, e.name) for e in tr.events]
    assert kinds == [
        ("B", "outer"),
        ("B", "inner"),
        ("E", "inner"),
        ("i", "mark"),
        ("E", "outer"),
    ]


def test_end_without_begin_raises():
    tr = Tracer()
    with pytest.raises(TraceError):
        tr.end(0)


def test_ring_buffer_overflow_keeps_newest_and_counts_drops():
    tr = Tracer(capacity=4)
    for i in range(7):
        tr.instant("e%d" % i, i)
    assert len(tr) == 4
    assert tr.dropped == 3
    assert [e.name for e in tr.events] == ["e3", "e4", "e5", "e6"]


def test_disabled_tracer_never_allocates():
    tr = Tracer(enabled=False)
    tr.instant("x", 0)
    tr.complete("y", 0, 5)
    tr.counter("z", 0, {"a": 1})
    tr.begin("b", 0)
    tr.end(0)  # no-op while disabled, no stack to pop
    assert tr._events is None
    assert len(tr) == 0
    assert tr.events == []
    assert NULL_TRACER._events is None


def test_base_offsets_timestamps():
    tr = Tracer()
    tr.set_base(100)
    tr.instant("a", 5)
    tr.advance_base(50)
    tr.complete("b", 5, 2)
    assert [e.ts for e in tr.events] == [105, 155]
    assert tr.base == 150


def test_tick_is_monotonic_and_clear_resets():
    tr = Tracer()
    assert [tr.tick(), tr.tick(), tr.tick()] == [1, 2, 3]
    tr.instant("x", 0)
    tr.clear()
    assert len(tr) == 0
    assert tr.dropped == 0
    assert tr.base == 0
    assert tr.tick() == 1


def test_global_tracer_install_and_restore():
    assert get_tracer() is NULL_TRACER
    mine = Tracer()
    previous = set_tracer(mine)
    try:
        assert previous is NULL_TRACER
        assert get_tracer() is mine
    finally:
        set_tracer(previous)
    assert get_tracer() is NULL_TRACER
    # None reinstalls the null tracer.
    set_tracer(mine)
    set_tracer(None)
    assert get_tracer() is NULL_TRACER


def test_stall_cause_values_are_stable():
    assert [c.value for c in StallCause] == [
        "bank_conflict",
        "icache_miss",
        "branch",
        "interlock",
        "dma_config",
    ]


def test_stall_cause_is_not_its_string_value():
    """Causes hash by identity, so they must not equal their string
    values either: a lookup by value misses consistently."""
    counts = {StallCause.ICACHE_MISS: 3}
    assert StallCause.ICACHE_MISS != "icache_miss"
    assert "icache_miss" not in counts and counts.get("icache_miss") is None
    assert counts[StallCause("icache_miss")] == 3
