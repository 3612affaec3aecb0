"""Unit tests for the L2 cache slice and MSHR file."""

import pytest

from repro.cache import DIRTY_FILL, L2Cache, L2Outcome, MSHRFile
from repro.config import L2Config
from repro.errors import SimulationError


def small_l2(**kwargs) -> L2Cache:
    defaults = dict(
        size_bytes=4 * 128 * 2,  # 2 sets x 4 ways x 128 B
        associativity=4,
        line_bytes=128,
        mshr_entries=4,
    )
    defaults.update(kwargs)
    return L2Cache(L2Config(**defaults))


class TestMSHRFile:
    def test_allocate_and_complete(self) -> None:
        m = MSHRFile(2)
        m.allocate(10, "a")
        m.merge(10, "b")
        assert m.merges == 1
        assert m.complete(10) == ["a", "b"]
        assert len(m) == 0

    def test_double_allocate_rejected(self) -> None:
        m = MSHRFile(2)
        m.allocate(10, "a")
        with pytest.raises(SimulationError):
            m.allocate(10, "b")

    def test_capacity_enforced(self) -> None:
        m = MSHRFile(1)
        m.allocate(1, "a")
        assert m.full
        with pytest.raises(SimulationError):
            m.allocate(2, "b")

    def test_complete_unknown_rejected(self) -> None:
        with pytest.raises(SimulationError):
            MSHRFile(1).complete(99)

    def test_zero_capacity_rejected(self) -> None:
        with pytest.raises(SimulationError):
            MSHRFile(0)


class TestL2AccessPath:
    def test_read_miss_then_fill_then_hit(self) -> None:
        l2 = small_l2()
        r = l2.access(0, is_write=False, waiter="w0")
        assert r.outcome is L2Outcome.MISS
        waiters, wb = l2.fill(0)
        assert waiters == ["w0"] and wb is None
        assert l2.access(0, is_write=False).outcome is L2Outcome.HIT
        assert l2.hits == 1 and l2.misses == 1 and l2.fills == 1

    def test_miss_to_outstanding_line_merges(self) -> None:
        l2 = small_l2()
        l2.access(0, is_write=False, waiter="w0")
        r = l2.access(64, is_write=False, waiter="w1")  # same 128 B line
        assert r.outcome is L2Outcome.MISS_MERGED
        waiters, _ = l2.fill(0)
        assert waiters == ["w0", "w1"]

    def test_full_line_store_allocates_without_fetch(self) -> None:
        l2 = small_l2()
        r = l2.access(0, is_write=True, full_line=True)
        assert r.outcome is L2Outcome.MISS_NO_FETCH
        assert l2.contains(0)
        # The allocated line is dirty: evicting it writes back.
        assert l2.access(0, is_write=False).outcome is L2Outcome.HIT

    def test_partial_write_miss_fetches(self) -> None:
        l2 = small_l2()
        r = l2.access(0, is_write=True, full_line=False, waiter="w")
        assert r.outcome is L2Outcome.MISS

    def test_mshr_full_stalls(self) -> None:
        l2 = small_l2(mshr_entries=1)
        l2.access(0, is_write=False, waiter="a")
        r = l2.access(128 * 2, is_write=False, waiter="b")
        assert r.outcome is L2Outcome.STALL

    def test_lru_eviction_and_dirty_writeback(self) -> None:
        l2 = small_l2()  # 2 sets, 4 ways
        # Fill set 0 with 4 dirty lines: line addresses 0, 2, 4, 6.
        for i in range(4):
            line_byte = i * 2 * 128
            r = l2.access(line_byte, is_write=True, full_line=True)
            assert r.outcome is L2Outcome.MISS_NO_FETCH
        # Touch line 0 to make line 2 the LRU victim.
        l2.access(0, is_write=False)
        r = l2.access(8 * 128, is_write=True, full_line=True)
        assert r.writeback_line == 2  # line address, not byte address
        assert l2.writebacks == 1
        assert not l2.contains(2 * 128)
        assert l2.contains(0)

    def test_clean_eviction_no_writeback(self) -> None:
        l2 = small_l2()
        for i in range(5):
            addr = i * 2 * 128
            l2.access(addr, is_write=False, waiter=i)
            _, wb = l2.fill(addr)
            assert wb is None  # clean victims evict silently
        assert l2.writebacks == 0

    def test_occupancy(self) -> None:
        l2 = small_l2()
        l2.access(0, is_write=True, full_line=True)
        l2.access(128, is_write=True, full_line=True)
        assert l2.occupancy == 2


def evict_set0(l2: L2Cache, first_line: int = 8) -> list:
    """Fill set 0 of :func:`small_l2` with four clean lines, starting
    at ``first_line``; returns each fill's write-back (line or None)."""
    writebacks = []
    for i in range(4):
        addr = (first_line + 2 * i) * 128
        assert l2.access(addr, is_write=False, waiter=i).outcome is (
            L2Outcome.MISS
        )
        writebacks.append(l2.fill(addr)[1])
    return writebacks


class TestL2DirtyState:
    """The three ways a fetched line turns dirty or stays uninstalled:
    a write hit, a partial store merged into an outstanding read (the
    :data:`DIRTY_FILL` sentinel), and a cancelled fill."""

    def test_write_hit_dirties_clean_line(self) -> None:
        l2 = small_l2()
        l2.access(0, is_write=False, waiter="w")
        assert l2.fill(0) == (["w"], None)
        r = l2.access(0, is_write=True)
        assert r.outcome is L2Outcome.HIT and r.writeback_line is None
        # Line 0 holds one of set 0's four ways: the fourth fill evicts it.
        assert evict_set0(l2) == [None, None, None, 0]
        assert l2.writebacks == 1

    def test_clean_read_hit_stays_clean(self) -> None:
        l2 = small_l2()
        l2.access(0, is_write=False, waiter="w")
        l2.fill(0)
        assert l2.access(0, is_write=False).outcome is L2Outcome.HIT
        assert evict_set0(l2) == [None] * 4
        assert l2.writebacks == 0

    def test_merged_partial_store_fills_dirty(self) -> None:
        l2 = small_l2()
        assert l2.access(0, is_write=False, waiter="w0").outcome is (
            L2Outcome.MISS
        )
        r = l2.access(0, is_write=True, full_line=False, waiter=DIRTY_FILL)
        assert r.outcome is L2Outcome.MISS_MERGED
        l2.access(0, is_write=False, waiter="w1")
        waiters, writeback = l2.fill(0)
        assert waiters == ["w0", "w1"] and writeback is None
        assert l2.fills == 1
        assert evict_set0(l2) == [None, None, None, 0]
        assert l2.writebacks == 1

    def test_partial_store_miss_fills_dirty(self) -> None:
        l2 = small_l2()
        r = l2.access(0, is_write=True, full_line=False, waiter=DIRTY_FILL)
        assert r.outcome is L2Outcome.MISS
        assert l2.fill(0) == ([], None)
        assert evict_set0(l2) == [None, None, None, 0]

    def test_cancel_fill_drops_sentinel_and_installs_nothing(self) -> None:
        l2 = small_l2()
        l2.access(0, is_write=False, waiter="w0")
        l2.access(0, is_write=True, full_line=False, waiter=DIRTY_FILL)
        assert l2.cancel_fill(0) == ["w0"]
        assert not l2.contains(0)
        assert l2.occupancy == 0 and l2.fills == 0
        assert len(l2.mshrs) == 0
        # The line is gone, not dirty: the next access misses afresh.
        assert l2.access(0, is_write=False, waiter="w1").outcome is (
            L2Outcome.MISS
        )
        assert l2.fill(0) == (["w1"], None)
        assert evict_set0(l2) == [None] * 4


class TestNearestResidentSearch:
    def test_exact_line_preferred(self) -> None:
        l2 = small_l2()
        l2.access(0, is_write=True, full_line=True)
        l2.access(128, is_write=True, full_line=True)
        assert l2.find_nearest_resident(128, radius_sets=1) == 1

    def test_nearest_by_address_distance(self) -> None:
        l2 = small_l2()  # 2 sets: even lines -> set 0, odd -> set 1
        l2.access(0, is_write=True, full_line=True)  # line 0
        l2.access(10 * 128, is_write=True, full_line=True)  # line 10
        # Target line 3 (set 1): with radius 1 both sets searched;
        # line 0 (distance 3) beats line 10 (distance 7).
        assert l2.find_nearest_resident(3 * 128, radius_sets=1) == 0

    def test_empty_cache_returns_none(self) -> None:
        assert small_l2().find_nearest_resident(0, radius_sets=2) is None

    def test_radius_zero_searches_home_set_only(self) -> None:
        l2 = small_l2()
        l2.access(0, is_write=True, full_line=True)  # line 0 -> set 0
        # Target line 1 lives in set 1; radius 0 must not see set 0.
        assert l2.find_nearest_resident(128, radius_sets=0) is None
        assert l2.find_nearest_resident(128, radius_sets=1) == 0
