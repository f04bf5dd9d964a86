"""Tests for the set-associative cache tag store."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.errors import CacheError
from repro.sim.stats import StatsRegistry


def make_cache(size=1024, assoc=2, line=64, name="c", stats=None):
    return SetAssociativeCache(CacheConfig(size_bytes=size, associativity=assoc,
                                           line_size=line, hit_latency_ps=100,
                                           name=name), stats=stats)


class TestConfigValidation:
    def test_num_sets(self):
        assert CacheConfig(size_bytes=1024, associativity=2, line_size=64).num_sets == 8

    def test_rejects_non_divisible_size(self):
        with pytest.raises(CacheError):
            CacheConfig(size_bytes=1000, associativity=2, line_size=64)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(CacheError):
            CacheConfig(size_bytes=3 * 64 * 2, associativity=2, line_size=64)

    def test_rejects_bad_line_size(self):
        with pytest.raises(CacheError):
            CacheConfig(size_bytes=1024, associativity=2, line_size=60)

    def test_table2_geometries_valid(self):
        CacheConfig(size_bytes=64 * 1024, associativity=4)    # CPU L1
        CacheConfig(size_bytes=16 * 1024, associativity=4)    # MTTOP L1
        CacheConfig(size_bytes=1024 * 1024, associativity=16)  # L2 bank


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(0x100) is None
        cache.insert(0x100)
        assert cache.lookup(0x100) is not None

    def test_lookup_matches_any_address_in_line(self):
        cache = make_cache()
        cache.insert(0x100)
        assert cache.lookup(0x13F) is not None
        assert cache.lookup(0x140) is None

    def test_double_insert_rejected(self):
        cache = make_cache()
        cache.insert(0x100)
        with pytest.raises(CacheError):
            cache.insert(0x108)

    def test_insert_carries_state_and_dirty(self):
        cache = make_cache()
        block, _ = cache.insert(0x200, state="M", dirty=True)
        assert block.state == "M" and block.dirty

    def test_peek_does_not_count_stats(self):
        stats = StatsRegistry()
        cache = make_cache(stats=stats, name="c")
        cache.insert(0x100)
        cache.peek(0x100)
        assert stats["c.hits"] == 0

    def test_hit_miss_stats(self):
        stats = StatsRegistry()
        cache = make_cache(stats=stats, name="c")
        cache.lookup(0)
        cache.insert(0)
        cache.lookup(0)
        assert stats["c.misses"] == 1 and stats["c.hits"] == 1


class TestEviction:
    def test_victim_returned_when_set_full(self):
        cache = make_cache(size=256, assoc=2, line=64)  # 2 sets
        conflicting = [0x000, 0x080, 0x100]  # all map to set 0
        cache.insert(conflicting[0])
        cache.insert(conflicting[1])
        _, victim = cache.insert(conflicting[2])
        assert victim is not None
        assert victim.line_address in (0x000, 0x080)
        assert len(cache) == 2

    def test_lru_order_respected(self):
        cache = make_cache(size=256, assoc=2, line=64)
        cache.insert(0x000)
        cache.insert(0x080)
        cache.lookup(0x000)              # 0x080 becomes LRU
        _, victim = cache.insert(0x100)
        assert victim.line_address == 0x080

    def test_explicit_evict(self):
        cache = make_cache()
        cache.insert(0x100)
        block = cache.evict(0x100)
        assert block is not None
        assert 0x100 not in cache

    def test_evict_absent_returns_none(self):
        assert make_cache().evict(0x100) is None

    def test_flush_all(self):
        cache = make_cache()
        cache.insert(0x000)
        cache.insert(0x040, dirty=True)
        blocks = cache.flush_all()
        assert len(blocks) == 2 and len(cache) == 0
        assert sum(1 for block in blocks if block.dirty) == 1


class TestGeometry:
    def test_capacity_and_occupancy(self):
        cache = make_cache(size=512, assoc=2, line=64)
        assert cache.capacity_lines == 8
        cache.insert(0)
        assert cache.occupancy() == pytest.approx(1 / 8)

    def test_set_index_wraps(self):
        cache = make_cache(size=512, assoc=2, line=64)  # 4 sets
        assert cache.set_index(0x000) == cache.set_index(0x100)
        assert cache.set_index(0x000) != cache.set_index(0x040)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = make_cache(size=512, assoc=2, line=64)
        for addr in addresses:
            if cache.lookup(addr) is None:
                cache.insert(addr)
        assert len(cache) <= cache.capacity_lines
        # Every resident line must be findable through lookup.
        for block in cache.blocks():
            assert cache.peek(block.line_address) is block


class TestLazyReplacementState:
    """A set's replacement policy is built by its first fill; victims are
    exactly those of policies built for every set up front."""

    @staticmethod
    def _victims(policy, eager):
        cache = SetAssociativeCache(
            CacheConfig(size_bytes=4096, associativity=4,
                        replacement=policy, name="lazy"))
        if eager:
            cache._policies[:] = [cache._new_policy()
                                  for _ in range(cache._num_sets)]
        rng = random.Random(11)
        victims = []
        for _ in range(3000):
            address = 64 * rng.randrange(256)
            roll = rng.random()
            if roll < 0.1:
                cache.evict(address)
            elif cache.lookup(address) is None:
                _, victim = cache.insert(address)
                victims.append(None if victim is None
                               else victim.line_address)
        return victims

    @pytest.mark.parametrize("policy", ["lru", "plru", "random"])
    def test_victims_match_eager_construction(self, policy):
        lazy = self._victims(policy, eager=False)
        assert any(victim is not None for victim in lazy)
        assert lazy == self._victims(policy, eager=True)

    def test_no_policy_before_first_fill(self):
        cache = make_cache()
        assert cache._policies == [None] * cache._num_sets
        cache.insert(0)
        assert cache._policies[0] is not None
        assert cache._policies[1:] == [None] * (cache._num_sets - 1)

    @pytest.mark.parametrize("policy, assoc", [("fifo", 2), ("plru", 3)])
    def test_bad_policy_rejected_at_construction(self, policy, assoc):
        config = CacheConfig(size_bytes=assoc * 64 * 4, associativity=assoc,
                             replacement=policy)
        with pytest.raises(CacheError):
            SetAssociativeCache(config)
