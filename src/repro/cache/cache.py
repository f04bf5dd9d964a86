"""Set-associative cache tag store.

One :class:`SetAssociativeCache` models one physically-indexed cache (an L1,
one bank of the shared L2, or a private L2 in the APU baseline).  It tracks
which lines are present, their per-line metadata (coherence state, dirty
bit), and implements replacement.  It does **not** decide what happens on a
miss — that is the job of the coherence controllers (CCSVM chip) or the
simple hierarchy model (APU baseline), which is why the interface exposes
explicit ``insert``/``evict`` instead of a monolithic ``access``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.block import CacheBlock
from repro.cache.replacement import ReplacementPolicy, make_replacement_policy
from repro.errors import CacheError
from repro.memory.address import CACHE_LINE_SIZE, is_power_of_two
from repro.sim.stats import StatsRegistry


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache."""

    size_bytes: int
    associativity: int
    line_size: int = CACHE_LINE_SIZE
    hit_latency_ps: int = 0
    replacement: str = "lru"
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise CacheError("cache size and associativity must be positive")
        if not is_power_of_two(self.line_size):
            raise CacheError("line size must be a power of two")
        if self.size_bytes % (self.associativity * self.line_size) != 0:
            raise CacheError(
                f"cache size {self.size_bytes} is not divisible by "
                f"associativity*line_size = {self.associativity * self.line_size}"
            )
        sets = self.size_bytes // (self.associativity * self.line_size)
        if not is_power_of_two(sets):
            raise CacheError(f"number of sets ({sets}) must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of sets implied by the geometry."""
        return self.size_bytes // (self.associativity * self.line_size)


class SetAssociativeCache:
    """A physically-indexed, physically-tagged set-associative tag store."""

    def __init__(self, config: CacheConfig,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.config = config
        self.name = config.name
        self.stats = stats if stats is not None else StatsRegistry()
        self._num_sets = config.num_sets
        # Per set: way -> block, plus a replacement-policy instance built
        # by the set's first insert (a touch always follows a fill, and
        # every policy starts each set from the same state).  Building one
        # up front rejects a bad policy name or associativity here.
        self._sets: List[Dict[int, CacheBlock]] = [dict() for _ in range(self._num_sets)]
        self._new_policy = partial(make_replacement_policy, config.replacement,
                                   config.associativity)
        self._new_policy()
        self._policies: List[Optional[ReplacementPolicy]] = [None] * self._num_sets
        # Reverse index: line address -> (set index, way) for O(1) lookups.
        self._where: Dict[int, Tuple[int, int]] = {}
        # Precomputed bits for the access hot path: building an f-string
        # counter name per lookup is measurable at simulator scale.
        self._line_mask = ~(config.line_size - 1)
        self._line_shift = config.line_size.bit_length() - 1
        self._hits_stat = f"{self.name}.hits"
        self._misses_stat = f"{self.name}.misses"

    # ------------------------------------------------------------------ #
    # Address mapping
    # ------------------------------------------------------------------ #
    def set_index(self, line_address: int) -> int:
        """Return the set index a line maps to."""
        return (line_address // self.config.line_size) % self._num_sets

    def line_address(self, address: int) -> int:
        """Align an arbitrary address down to its containing line."""
        return address & ~(self.config.line_size - 1)

    # ------------------------------------------------------------------ #
    # Lookup / insert / evict
    # ------------------------------------------------------------------ #
    def lookup(self, address: int, update_replacement: bool = True) -> Optional[CacheBlock]:
        """Return the block holding ``address``'s line, if resident."""
        line = address & self._line_mask
        where = self._where.get(line)
        if where is None:
            self.stats.add(self._misses_stat)
            return None
        set_index, way = where
        if update_replacement:
            self._policies[set_index].touch(way)
        self.stats.add(self._hits_stat)
        return self._sets[set_index][way]

    def probe(self, address: int) -> Optional[CacheBlock]:
        """Fast-path lookup: a hit behaves exactly like :meth:`lookup`
        (hit counter + replacement touch); a miss returns ``None`` without
        recording anything, because the caller is expected to retry on the
        general path — whose own :meth:`lookup` records the miss once."""
        where = self._where.get(address & self._line_mask)
        if where is None:
            return None
        set_index, way = where
        self._policies[set_index].touch(way)
        self.stats.add(self._hits_stat)
        return self._sets[set_index][way]

    def peek(self, address: int) -> Optional[CacheBlock]:
        """Like :meth:`lookup` but without stats or replacement updates."""
        where = self._where.get(self.line_address(address))
        if where is None:
            return None
        set_index, way = where
        return self._sets[set_index][way]

    def insert(self, address: int, state: Optional[object] = None,
               dirty: bool = False, now_ps: int = 0) -> Tuple[CacheBlock, Optional[CacheBlock]]:
        """Insert ``address``'s line and return ``(new_block, victim)``.

        If the set is full a victim is chosen by the replacement policy and
        returned so the caller can write it back / notify the directory.
        Inserting a line that is already resident is an error — callers must
        use :meth:`lookup` first.
        """
        line = self.line_address(address)
        if line in self._where:
            raise CacheError(f"{self.name}: line {line:#x} inserted twice")
        set_index = self.set_index(line)
        ways = self._sets[set_index]
        policy = self._policies[set_index]
        if policy is None:
            policy = self._policies[set_index] = self._new_policy()

        victim: Optional[CacheBlock] = None
        if len(ways) >= self.config.associativity:
            victim_way = policy.victim(list(ways.keys()))
            victim = ways.pop(victim_way)
            del self._where[victim.line_address]
            self.stats.add(f"{self.name}.evictions")
            way = victim_way
        else:
            way = policy.victim(list(ways.keys()))

        block = CacheBlock(line_address=line, state=state, dirty=dirty,
                           inserted_at_ps=now_ps)
        ways[way] = block
        self._where[line] = (set_index, way)
        policy.touch(way)
        self.stats.add(f"{self.name}.fills")
        return block, victim

    def evict(self, address: int) -> Optional[CacheBlock]:
        """Remove ``address``'s line (if resident) and return its block.

        Used for invalidations and inclusive-L2 back-invalidations.
        """
        line = self.line_address(address)
        where = self._where.pop(line, None)
        if where is None:
            return None
        set_index, way = where
        block = self._sets[set_index].pop(way)
        self.stats.add(f"{self.name}.invalidations")
        return block

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __contains__(self, address: int) -> bool:
        return self.line_address(address) in self._where

    def __len__(self) -> int:
        return len(self._where)

    def blocks(self) -> Iterator[CacheBlock]:
        """Iterate over every resident block (order unspecified)."""
        for ways in self._sets:
            yield from ways.values()

    @property
    def hit_latency_ps(self) -> int:
        """Configured hit latency in picoseconds."""
        return self.config.hit_latency_ps

    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self._num_sets * self.config.associativity

    def occupancy(self) -> float:
        """Fraction of the cache currently holding valid lines."""
        return len(self._where) / self.capacity_lines if self.capacity_lines else 0.0

    def flush_all(self) -> List[CacheBlock]:
        """Remove every block and return them (dirty ones need writeback)."""
        blocks = list(self.blocks())
        for ways in self._sets:
            ways.clear()
        self._where.clear()
        self.stats.add(f"{self.name}.flushes")
        return blocks
