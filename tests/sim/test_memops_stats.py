"""Shared memory-op semantics and activity-statistics tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import Opcode
from repro.sim import memops
from repro.sim.stats import ActivityStats, KernelProfile


class TestMemops:
    def test_effective_address_scaling(self):
        # Byte ops: unscaled; halfword: <<1; word and 64-bit: <<2.
        assert memops.effective_address(Opcode.LD_C, 100, 3, True) == 103
        assert memops.effective_address(Opcode.LD_C2, 100, 3, True) == 106
        assert memops.effective_address(Opcode.LD_I, 100, 3, True) == 112
        assert memops.effective_address(Opcode.LD_Q, 100, 3, True) == 112
        assert memops.effective_address(Opcode.ST_C2, 100, 3, True) == 106

    def test_register_offsets_unscaled(self):
        assert memops.effective_address(Opcode.LD_I, 100, 12, False) == 112

    def test_address_wraps_32bit(self):
        assert memops.effective_address(Opcode.LD_C, 0xFFFFFFFF, 2, True) == 1

    def test_load_result_sign_handling(self):
        assert memops.load_result(Opcode.LD_C, 0x80) == 0xFFFFFF80
        assert memops.load_result(Opcode.LD_UC, 0x80) == 0x80
        assert memops.load_result(Opcode.LD_C2, 0x8000) == 0xFFFF8000
        assert memops.load_result(Opcode.LD_UC2, 0x8000) == 0x8000
        assert memops.load_result(Opcode.LD_I, 0xDEADBEEF) == 0xDEADBEEF
        q = memops.load_result(Opcode.LD_Q, 0x1122334455667788)
        assert q == 0x1122334455667788

    def test_store_payload_truncates(self):
        assert memops.store_payload(Opcode.ST_C, 0x1FF) == (0xFF, 1)
        assert memops.store_payload(Opcode.ST_C2, 0x12345) == (0x2345, 2)
        assert memops.store_payload(Opcode.ST_I, -1) == (0xFFFFFFFF, 4)
        raw, size = memops.store_payload(Opcode.ST_Q, -1)
        assert raw == (1 << 64) - 1 and size == 8

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_halfword_roundtrip(self, v):
        raw, size = memops.store_payload(Opcode.ST_C2, v)
        assert size == 2
        assert memops.load_result(Opcode.LD_UC2, raw) == v


class TestStats:
    def test_merge_and_delta(self):
        a = ActivityStats(vliw_cycles=10, cga_cycles=20)
        a.l1_reads = 5
        b = ActivityStats(vliw_cycles=1, cga_cycles=2)
        b.l1_reads = 3
        a.merge(b)
        assert a.vliw_cycles == 11 and a.cga_cycles == 22 and a.l1_reads == 8
        snap = a.snapshot()
        a.l1_reads += 4
        delta = a.delta_since(snap)
        assert delta.l1_reads == 4
        assert delta.vliw_cycles == 0

    def test_ipc_and_fraction(self):
        s = ActivityStats(vliw_cycles=50, cga_cycles=50)
        s.vliw_ops, s.cga_ops = 100, 500
        assert s.ipc == pytest.approx(6.0)
        assert s.cga_fraction == pytest.approx(0.5)

    def test_count_op_weighting(self):
        s = ActivityStats()
        s.count_op(0, Opcode.LD_Q, in_cga=True)
        s.count_op(1, Opcode.ADD, in_cga=False)
        assert s.cga_ops == 2  # 64-bit load counts as two instructions
        assert s.vliw_ops == 1
        assert s.fu_ops[0] == 2

    def test_kernel_profile_mode_classification(self):
        cga = ActivityStats(cga_cycles=90, vliw_cycles=10)
        assert KernelProfile("k", cga).mode == "CGA"
        vliw = ActivityStats(cga_cycles=0, vliw_cycles=100)
        assert KernelProfile("k", vliw).mode == "VLIW"
        mixed = ActivityStats(cga_cycles=50, vliw_cycles=50)
        assert KernelProfile("k", mixed).mode == "mixed"

    def test_profile_row(self):
        s = ActivityStats(cga_cycles=100)
        s.cga_ops = 950
        row = KernelProfile("fshift", s).row()
        assert row == {"kernel": "fshift", "mode": "CGA", "IPC": 9.5, "cycles": 100}


def _worker_stats() -> ActivityStats:
    """Statistics with every keyed counter filled, as a worker makes them."""
    from repro.trace.events import StallCause

    stats = ActivityStats()
    for fu, op in ((0, Opcode.C4ADD), (3, Opcode.LD_Q), (3, Opcode.ADD), (5, Opcode.C4PROD)):
        stats.count_op(fu, op, in_cga=True)
    stats.count_op(0, Opcode.ADD, in_cga=False)
    stats.add_stall(StallCause.BANK_CONFLICT, 4)
    stats.add_stall(StallCause.ICACHE_MISS, 8)
    stats.cga_cycles = 40
    stats.vliw_cycles = 12
    return stats


def _send_worker_stats(conn) -> None:
    conn.send(_worker_stats())
    conn.close()


def test_stats_pickled_across_a_worker_pipe_merge_and_render_the_same():
    """``OpGroup`` and ``StallCause`` hash by identity; statistics a
    worker process pickles through a pipe unpickle to the same members,
    so they merge into this process's counters and render exactly as
    statistics made here."""
    import multiprocessing

    from repro.isa.opcodes import OpGroup
    from repro.trace.events import StallCause
    from repro.trace.export import prometheus_text

    assert OpGroup.__hash__ is object.__hash__ and StallCause.__hash__ is object.__hash__
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    worker = ctx.Process(target=_send_worker_stats, args=(theirs,))
    worker.start()
    received = ours.recv()
    worker.join(timeout=30)
    assert worker.exitcode == 0
    assert received.op_groups[OpGroup.SIMD2] == _worker_stats().op_groups[OpGroup.SIMD2] > 0
    assert received.stall_causes[StallCause.ICACHE_MISS] == 8
    merged, local = _worker_stats(), _worker_stats()
    merged.merge(received)
    local.merge(_worker_stats())
    assert merged.as_dict() == local.as_dict()
    assert merged.stall_breakdown() == local.stall_breakdown()
    assert prometheus_text(merged) == prometheus_text(local)
    assert set(merged.op_groups) == set(local.op_groups)
