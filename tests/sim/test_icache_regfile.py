"""Instruction cache and register file unit tests."""

import pytest

from repro.arch.resources import MemorySpec
from repro.sim.icache import InstructionCache
from repro.sim.regfile import (
    LocalRegisterFile,
    PredicateFile,
    PortOverflowError,
    RegisterFile,
)


def make_icache(lines=16, penalty=8):
    return InstructionCache(MemorySpec("icache", words=lines, width=128), penalty)


class TestInstructionCache:
    def test_cold_miss_then_hit(self):
        ic = make_icache()
        assert ic.fetch(0) == 8
        assert ic.fetch(0) == 0
        assert ic.stats.icache_misses == 1
        assert ic.stats.icache_hits == 1

    def test_distinct_lines_miss_independently(self):
        ic = make_icache()
        assert ic.fetch(0) == 8
        assert ic.fetch(1) == 8
        assert ic.fetch(0) == 0
        assert ic.fetch(1) == 0

    def test_direct_mapped_conflict_eviction(self):
        ic = make_icache(lines=16)
        ic.fetch(0)
        ic.fetch(16)  # same index, different tag -> evicts
        assert ic.fetch(0) == 8  # miss again

    def test_bundles_per_line_share_a_line(self):
        ic = InstructionCache(
            MemorySpec("icache", words=16, width=128), 8, bundles_per_line=4
        )
        assert ic.fetch(0) == 8
        assert ic.fetch(1) == 0
        assert ic.fetch(3) == 0
        assert ic.fetch(4) == 8

    @pytest.mark.parametrize("per", [1, 3])
    @pytest.mark.parametrize("stale", [0, 5, 16, 40, 70])
    @pytest.mark.parametrize("n_bundles", [0, 1, 7, 16, 17, 47, 48, 100])
    def test_warm_equals_the_fetch_loop(self, n_bundles, stale, per):
        """``warm`` leaves the tags a flush and an in-order fetch of
        every bundle leave, from a cache whose first *stale* bundles
        were fetched in any order, and counts nothing; so does a second
        warm-up after fetching only the first one's bundles."""
        spec = MemorySpec("icache", words=16, width=128)
        warmed = InstructionCache(spec, 8, bundles_per_line=per)
        looped = InstructionCache(spec, 8, bundles_per_line=per)
        for pc in list(range(stale))[::-1] + list(range(0, stale, 3)):
            warmed.fetch(pc)
        counters = (warmed.stats.icache_hits, warmed.stats.icache_misses)
        warmed.warm(n_bundles)
        for pc in range(n_bundles):
            looped.fetch(pc)
        assert warmed._tags == looped._tags
        assert (warmed.stats.icache_hits, warmed.stats.icache_misses) == counters
        # The same list object: generated code holds it.
        tags = warmed._tags
        for pc in range(n_bundles)[::-2]:
            warmed.fetch(pc)
        warmed.warm(3)
        looped.flush()
        for pc in range(3):
            looped.fetch(pc)
        assert warmed._tags is tags and warmed._tags == looped._tags

    def test_flush_invalidates(self):
        ic = make_icache()
        ic.fetch(5)
        ic.flush()
        assert ic.fetch(5) == 8

    def test_hit_rate(self):
        ic = make_icache()
        assert ic.hit_rate == 0.0
        ic.fetch(0)
        ic.fetch(0)
        ic.fetch(0)
        assert ic.hit_rate == pytest.approx(2 / 3)


class TestRegisterFile:
    def test_read_write_masking(self):
        rf = RegisterFile(entries=8, width=32, read_ports=2, write_ports=1)
        rf.begin_cycle()
        rf.write(3, 0x1_FFFF_FFFF)
        assert rf.peek(3) == 0xFFFF_FFFF

    def test_read_port_overflow(self):
        rf = RegisterFile(entries=8, width=64, read_ports=2, write_ports=1)
        rf.begin_cycle()
        rf.read(0)
        rf.read(1)
        with pytest.raises(PortOverflowError):
            rf.read(2)

    def test_write_port_overflow(self):
        rf = RegisterFile(entries=8, width=64, read_ports=6, write_ports=1)
        rf.begin_cycle()
        rf.write(0, 1)
        with pytest.raises(PortOverflowError):
            rf.write(1, 2)

    def test_begin_cycle_resets_ports(self):
        rf = RegisterFile(entries=8, width=64, read_ports=1, write_ports=1)
        for _ in range(5):
            rf.begin_cycle()
            rf.read(0)

    def test_access_counting(self):
        rf = RegisterFile(entries=8, width=64, read_ports=6, write_ports=3)
        rf.begin_cycle()
        rf.read(0)
        rf.read(1)
        rf.write(2, 5)
        assert rf.stats.cdrf_reads == 2
        assert rf.stats.cdrf_writes == 1

    def test_peek_poke_do_not_count(self):
        rf = RegisterFile(entries=8, width=64, read_ports=6, write_ports=3)
        rf.poke(0, 42)
        assert rf.peek(0) == 42
        assert rf.stats.cdrf_reads == 0
        assert rf.stats.cdrf_writes == 0


class TestPredicateFile:
    def test_one_bit_width(self):
        pf = PredicateFile()
        pf.begin_cycle()
        pf.write(0, 3)
        assert pf.peek(0) == 1

    def test_counts_as_cprf(self):
        pf = PredicateFile()
        pf.begin_cycle()
        pf.write(0, 1)
        pf.read(0)
        assert pf.stats.cprf_writes == 1
        assert pf.stats.cprf_reads == 1


class TestLocalRegisterFile:
    def test_roundtrip_and_counting(self):
        lrf = LocalRegisterFile(entries=8, width=64)
        lrf.write(2, 0x1234)
        assert lrf.read(2) == 0x1234
        assert lrf.stats.lrf_writes == 1
        assert lrf.stats.lrf_reads == 1

    def test_masking(self):
        lrf = LocalRegisterFile(entries=4, width=64)
        lrf.write(0, 1 << 65)
        assert lrf.peek(0) == 0
