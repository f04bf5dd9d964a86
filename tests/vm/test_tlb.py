"""Tests for the TLB."""

import pytest

from repro.errors import TLBError
from repro.memory.address import PAGE_SIZE
from repro.sim.stats import StatsRegistry
from repro.vm.tlb import TLB


class TestLookupInsert:
    def test_miss_on_empty(self):
        assert TLB().lookup(0x1000) is None

    def test_hit_after_insert(self):
        tlb = TLB()
        tlb.insert(vpn=3, frame_address=7 * PAGE_SIZE, writable=True)
        entry = tlb.lookup(3 * PAGE_SIZE + 0x123)
        assert entry is not None
        assert entry.physical_address(3 * PAGE_SIZE + 0x123) == 7 * PAGE_SIZE + 0x123

    def test_insert_rejects_unaligned_frame(self):
        with pytest.raises(TLBError):
            TLB().insert(vpn=1, frame_address=123, writable=True)

    def test_capacity_must_be_positive(self):
        with pytest.raises(TLBError):
            TLB(entries=0)

    def test_contains(self):
        tlb = TLB()
        tlb.insert(5, 5 * PAGE_SIZE, True)
        assert (5 * PAGE_SIZE) in tlb
        assert (6 * PAGE_SIZE) not in tlb

    def test_stats_counted(self):
        stats = StatsRegistry()
        tlb = TLB(stats=stats, name="t")
        tlb.lookup(0)
        tlb.insert(0, 0, True)
        tlb.lookup(0)
        assert stats["t.misses"] == 1 and stats["t.hits"] == 1
        assert tlb.hit_rate == 0.5


class TestReplacement:
    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.insert(1, PAGE_SIZE, True)
        tlb.insert(2, 2 * PAGE_SIZE, True)
        tlb.lookup(1 * PAGE_SIZE)          # touch vpn 1 so vpn 2 is LRU
        tlb.insert(3, 3 * PAGE_SIZE, True)
        assert (1 * PAGE_SIZE) in tlb
        assert (2 * PAGE_SIZE) not in tlb
        assert (3 * PAGE_SIZE) in tlb

    def test_capacity_never_exceeded(self):
        tlb = TLB(entries=4)
        for vpn in range(32):
            tlb.insert(vpn, vpn * PAGE_SIZE, True)
        assert len(tlb) == 4

    def test_reinsert_updates_not_duplicates(self):
        tlb = TLB(entries=4)
        tlb.insert(1, PAGE_SIZE, True)
        tlb.insert(1, 2 * PAGE_SIZE, True)
        assert len(tlb) == 1
        assert tlb.lookup(PAGE_SIZE).frame_address == 2 * PAGE_SIZE


class TestCoherenceOperations:
    def test_invalidate_present(self):
        stats = StatsRegistry()
        tlb = TLB(stats=stats, name="t")
        tlb.insert(1, PAGE_SIZE, True)
        assert tlb.invalidate(PAGE_SIZE) is True
        assert (PAGE_SIZE) not in tlb
        assert stats["t.invalidations"] == 1
        assert stats["t.invalidation_misses"] == 0

    def test_invalidate_absent_not_counted_as_drop(self):
        stats = StatsRegistry()
        tlb = TLB(stats=stats, name="t")
        assert tlb.invalidate(PAGE_SIZE) is False
        # A page that was never cached must not inflate the shootdown
        # accounting; it lands in the dedicated miss counter instead.
        assert stats["t.invalidations"] == 0
        assert stats["t.invalidation_misses"] == 1

    def test_flush_drops_everything(self):
        stats = StatsRegistry()
        tlb = TLB(stats=stats, name="t")
        for vpn in range(10):
            tlb.insert(vpn, vpn * PAGE_SIZE, True)
        assert tlb.flush() == 10
        assert len(tlb) == 0
        assert stats["t.flushes"] == 1
        assert stats["t.flushed_entries"] == 10


class TestPageGeometry:
    def test_standard_page_size_accepted(self):
        assert TLB(page_size=PAGE_SIZE).page_size == PAGE_SIZE

    @pytest.mark.parametrize("page_size", [2048, 8192, 2 * 1024 * 1024])
    def test_other_page_sizes_rejected(self, page_size):
        # Entries apply a PAGE_SIZE offset, so another size would
        # mistranslate silently.
        with pytest.raises(TLBError):
            TLB(page_size=page_size)


class TestTranslateBatch:
    def test_translates_the_hit_prefix_without_side_effects(self):
        stats = StatsRegistry()
        tlb = TLB(stats=stats, name="t")
        tlb.insert(1, 5 * PAGE_SIZE, True)
        tlb.insert(2, 9 * PAGE_SIZE, True)
        vaddrs = [PAGE_SIZE + 8, PAGE_SIZE + 16, 2 * PAGE_SIZE, PAGE_SIZE,
                  3 * PAGE_SIZE, PAGE_SIZE]
        before = stats.to_dict()
        stop, runs, paddrs = tlb.translate_batch(vaddrs, 0, len(vaddrs))
        assert stop == 4
        assert runs == [(0, 2, 1), (2, 3, 2), (3, 4, 1)]
        assert paddrs == [5 * PAGE_SIZE + 8, 5 * PAGE_SIZE + 16,
                          9 * PAGE_SIZE, 5 * PAGE_SIZE]
        assert stats.to_dict() == before
        assert list(tlb._entries) == [1, 2]

    def test_window_and_full_hit(self):
        tlb = TLB()
        tlb.insert(1, 5 * PAGE_SIZE, True)
        vaddrs = [0, PAGE_SIZE, PAGE_SIZE + 8]
        assert tlb.translate_batch(vaddrs, 1, 3) == (
            3, [(1, 3, 1)], [5 * PAGE_SIZE, 5 * PAGE_SIZE + 8])
        assert tlb.translate_batch(vaddrs, 0, 3) == (0, [], [])
