"""MRRG resource-model unit tests."""

import pytest

from repro.arch import paper_core
from repro.compiler.dfg import CompileError
from repro.compiler.mrrg import LATCH, Mrrg


@pytest.fixture
def mrrg():
    return Mrrg(paper_core(), ii=4)


class TestSlots:
    def test_claim_and_conflict(self, mrrg):
        assert mrrg.slot_free(3, 1)
        mrrg.claim_slot(3, 1, uid=7)
        assert not mrrg.slot_free(3, 1)
        assert not mrrg.slot_free(3, 5)  # 5 mod 4 == 1
        assert mrrg.slot_free(3, 2)
        with pytest.raises(CompileError):
            mrrg.claim_slot(3, 5, uid=8)

    def test_slots_per_unit_independent(self, mrrg):
        mrrg.claim_slot(0, 0, uid=1)
        assert mrrg.slot_free(1, 0)


class TestCommitsAndWindows:
    """The latch row of the storage table (unit 2 has no local RF, so a
    value it commits can only wait in its latch)."""

    def test_commit_uniqueness(self, mrrg):
        mrrg.claim_commit(2, 1)
        assert not mrrg.commit_free(2, 5)  # same phase
        assert mrrg.commit_free(2, 2)

    def test_window_blocks_foreign_commits(self, mrrg):
        mrrg.claim_commit(2, 0)
        assert mrrg.hold(2, 0, 2, reader=2) == LATCH  # live through phases 1, 2
        assert not mrrg.commit_free(2, 1)
        assert not mrrg.commit_free(2, 2)
        assert mrrg.commit_free(2, 3)

    def test_window_cannot_swallow_existing_commit(self, mrrg):
        mrrg.claim_commit(2, 0)
        mrrg.claim_commit(2, 2)
        assert mrrg.place_to_wait(2, 0, 1, reader=2) == LATCH
        assert mrrg.place_to_wait(2, 0, 2, reader=2) is None

    def test_window_bounded_by_ii(self, mrrg):
        mrrg.claim_commit(2, 0)
        assert mrrg.place_to_wait(2, 0, 4, reader=2) is None  # >= II
        assert mrrg.place_to_wait(2, 0, 3, reader=2) == LATCH

    def test_window_wraps_modulo_ii(self, mrrg):
        mrrg.claim_commit(2, 3)
        mrrg.hold(2, 3, 2, reader=2)  # live through phases 0 and 1
        assert not mrrg.commit_free(2, 0)
        assert not mrrg.commit_free(2, 1)
        assert mrrg.commit_free(2, 2)


class TestPorts:
    def test_cdrf_read_budget(self, mrrg):
        for _ in range(6):
            mrrg.claim_cdrf_read(2)
        assert not mrrg.cdrf_read_free(2)
        assert mrrg.cdrf_read_free(3)
        with pytest.raises(CompileError):
            mrrg.claim_cdrf_read(6)  # phase 2 again

    def test_cdrf_write_budget(self, mrrg):
        for _ in range(3):
            mrrg.claim_cdrf_write(0)
        assert not mrrg.cdrf_write_free(4)
        with pytest.raises(CompileError):
            mrrg.claim_cdrf_write(0)


class TestLrf:
    def test_entries_allocate_and_reuse(self, mrrg):
        e1 = mrrg.claim_lrf(5, "base")
        e2 = mrrg.claim_lrf(5, "base")
        assert e1 == e2
        e3 = mrrg.claim_lrf(5, "coeff")
        assert e3 != e1

    def test_vliw_units_have_no_lrf(self, mrrg):
        assert not mrrg.lrf_alloc_free(0, "base")

    def test_exhaustion(self, mrrg):
        for k in range(8):
            mrrg.claim_lrf(5, "v%d" % k)
        assert not mrrg.lrf_alloc_free(5, "v8")
        with pytest.raises(CompileError):
            mrrg.claim_lrf(5, "v8")

    def test_preload_list(self, mrrg):
        mrrg.claim_lrf(5, "base")
        mrrg.claim_lrf(7, "coeff")
        assert mrrg.preload_list() == [(5, 0, "base"), (7, 0, "coeff")]


class TestCheckpoint:
    def test_restore_rolls_back(self, mrrg):
        snap = mrrg.checkpoint()
        mrrg.claim_slot(0, 0, uid=1)
        mrrg.claim_commit(0, 1)
        mrrg.claim_cdrf_read(0)
        mrrg.restore(snap)
        assert mrrg.slot_free(0, 0)
        assert mrrg.commit_free(0, 1)
        assert mrrg.cdrf_read_free(0, 6)

    def test_utilization(self, mrrg):
        assert mrrg.utilization() == 0.0
        mrrg.claim_slot(0, 0, uid=1)
        assert mrrg.utilization() == pytest.approx(1 / 64)


class TestStorageTable:
    """One table per unit: the latch row plus one row per local-RF entry."""

    def test_same_unit_wait_takes_an_lrf_entry(self, mrrg):
        mrrg.claim_commit(5, 0)
        assert mrrg.place_to_wait(5, 0, 2, reader=5) == 1  # entry 0
        assert mrrg.hold(5, 0, 2, reader=5) == 1
        # The entry's window blocks no commit on the unit, unlike a latch
        # window, and the commit now also writes entry 0.
        assert mrrg.commit_free(5, 1) and mrrg.commit_free(5, 2)
        assert mrrg.lrf_write_at(5, 0) == 0
        assert mrrg.lrf_write_at(5, 1) is None

    def test_wire_reader_and_immediate_reader_use_the_latch(self, mrrg):
        mrrg.claim_commit(5, 0)
        assert mrrg.place_to_wait(5, 0, 0, reader=5) == LATCH
        neighbour = [fu for fu in mrrg.arch.interconnect.successors(5) if fu != 5][0]
        assert mrrg.place_to_wait(5, 0, 2, reader=neighbour) == LATCH
        stranger = [fu for fu in range(16)
                    if not mrrg.arch.interconnect.connected(5, fu)][0]
        assert mrrg.place_to_wait(5, 0, 1, reader=stranger) is None

    def test_vliw_unit_waits_in_its_latch(self, mrrg):
        mrrg.claim_commit(0, 0)
        assert mrrg.hold(0, 0, 2, reader=0) == LATCH
        assert not mrrg.commit_free(0, 1)

    def test_one_entry_per_value_shared_by_its_readers(self, mrrg):
        mrrg.claim_commit(5, 0)
        assert mrrg.hold(5, 0, 1, reader=5) == 1
        assert mrrg.hold(5, 0, 3, reader=5) == 1  # same value, longer window
        mrrg.claim_commit(5, 1)
        # Another value committed inside that window needs another entry.
        assert mrrg.hold(5, 1, 1, reader=5) == 2

    def test_entries_are_reused_between_disjoint_lifetimes(self, mrrg):
        mrrg.claim_commit(5, 0)
        mrrg.hold(5, 0, 1, reader=5)  # entry 0 live at phase 1
        mrrg.claim_commit(5, 2)
        assert mrrg.hold(5, 2, 1, reader=5) == 1  # phases 2..3 are free

    def test_entry_budget_counts_live_in_preloads(self, mrrg):
        for k in range(7):
            mrrg.claim_lrf(5, "v%d" % k)
        mrrg.claim_commit(5, 0)
        assert mrrg.hold(5, 0, 1, reader=5) == 8  # the last entry
        mrrg.claim_commit(5, 1)
        # Entry 7 holds the phase-0 value through phase 1: no room left.
        assert mrrg.place_to_wait(5, 1, 1, reader=5) == LATCH
        assert not mrrg.lrf_alloc_free(5, "v7")

    def test_preload_never_shares_a_routed_entry(self, mrrg):
        mrrg.claim_commit(5, 0)
        mrrg.hold(5, 0, 1, reader=5)
        assert mrrg.claim_lrf(5, "base") == 1  # not entry 0

    def test_third_lrf_read_in_a_phase_is_refused(self, mrrg):
        mrrg.claim_lrf_read(5, 3)
        mrrg.claim_commit(5, 0)
        assert mrrg.hold(5, 0, 3, reader=5) == 1  # second read at phase 3
        assert not mrrg.lrf_read_free(5, 3)
        assert mrrg.lrf_read_free(5, 2)
        with pytest.raises(CompileError):
            mrrg.claim_lrf_read(5, 7)  # phase 3 again
        # With no port left the value can only wait in the latch.
        mrrg.claim_commit(5, 1)
        assert mrrg.place_to_wait(5, 1, 2, reader=5) == LATCH

    def test_lifetime_of_ii_is_refused(self, mrrg):
        mrrg.claim_commit(5, 0)
        assert mrrg.place_to_wait(5, 0, 4, reader=5) is None  # == II
        assert mrrg.place_to_wait(5, 0, 3, reader=5) == 1  # II - 1
        with pytest.raises(CompileError):
            mrrg.hold(5, 0, 4, reader=5)

    def test_restore_rolls_back_entry_claims(self, mrrg):
        mrrg.claim_lrf(5, "base")
        snap = mrrg.checkpoint()
        mrrg.claim_commit(5, 0)
        mrrg.hold(5, 0, 2, reader=5)
        mrrg.claim_lrf(5, "coeff")
        mrrg.claim_lrf_read(5, 1)
        mrrg.restore(snap)
        assert mrrg.lrf_write_at(5, 0) is None
        assert mrrg.lrf_entry_for(5, "coeff") is None
        assert mrrg.lrf_read_free(5, 1) and mrrg.lrf_read_free(5, 2)
        assert mrrg.commit_free(5, 0)
        assert mrrg.preload_list() == [(5, 0, "base")]
        # The rolled-back entry is free again, for a preload too.
        assert mrrg.claim_lrf(5, "coeff") == 1
