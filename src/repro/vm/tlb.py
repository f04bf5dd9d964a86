"""Translation lookaside buffers.

Both the CPU cores and the MTTOP cores of the CCSVM chip have a private,
64-entry, fully-associative TLB (Table 2).  The paper's design keeps MTTOP
TLBs coherent conservatively: when a CPU core performs a shootdown, MTTOP
TLBs are flushed entirely rather than invalidated selectively
(Section 3.2.1); both operations are provided here so the ablation benchmark
can compare them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import TLBError
from repro.memory.address import PAGE_SHIFT, PAGE_SIZE
from repro.sim.stats import StatsRegistry

#: One contiguous run of batch operations falling on the same page:
#: ``(first_index, one_past_last_index, vpn)``.
PageRun = Tuple[int, int, int]


@dataclass(frozen=True)
class TLBEntry:
    """A cached virtual-to-physical translation."""

    vpn: int
    frame_address: int
    writable: bool

    def physical_address(self, vaddr: int) -> int:
        """Apply the page offset of ``vaddr`` to the cached frame."""
        return self.frame_address + (vaddr % PAGE_SIZE)


class TLB:
    """A fully-associative TLB with true-LRU replacement.

    Parameters
    ----------
    entries:
        Capacity in translations (64 for every core in Table 2).
    stats / name:
        Hit/miss/flush counters are recorded as ``<name>.hits`` etc.
    page_size:
        Must be :data:`~repro.memory.address.PAGE_SIZE`: cached entries
        apply that page offset (:meth:`TLBEntry.physical_address`), so any
        other size would mistranslate.
    """

    def __init__(self, entries: int = 64, stats: Optional[StatsRegistry] = None,
                 name: str = "tlb", page_size: int = PAGE_SIZE) -> None:
        if entries <= 0:
            raise TLBError("a TLB must have at least one entry")
        if page_size != PAGE_SIZE:
            raise TLBError(f"TLB page size must be {PAGE_SIZE} bytes, "
                           f"got {page_size}")
        self.capacity = entries
        self.page_size = page_size
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self._entries: "OrderedDict[int, TLBEntry]" = OrderedDict()
        # Precomputed counter names: lookup() runs once per simulated memory
        # access, so per-call f-string construction is measurable.
        self._hits_stat = f"{name}.hits"
        self._misses_stat = f"{name}.misses"

    # ------------------------------------------------------------------ #
    # Lookup / insert
    # ------------------------------------------------------------------ #
    def lookup(self, vaddr: int) -> Optional[TLBEntry]:
        """Return the cached translation for ``vaddr``'s page, if present."""
        vpn = vaddr // self.page_size
        entry = self._entries.get(vpn)
        if entry is None:
            self.stats.add(self._misses_stat)
            return None
        self._entries.move_to_end(vpn)
        self.stats.add(self._hits_stat)
        return entry

    def insert(self, vpn: int, frame_address: int, writable: bool) -> None:
        """Install a translation, evicting the LRU entry if full."""
        if frame_address % self.page_size != 0:
            raise TLBError(f"frame address {frame_address:#x} is not page aligned")
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.add(f"{self.name}.evictions")
        self._entries[vpn] = TLBEntry(vpn=vpn, frame_address=frame_address, writable=writable)
        self.stats.add(f"{self.name}.fills")

    # ------------------------------------------------------------------ #
    # Pure prefix probe
    # ------------------------------------------------------------------ #
    def translate_batch(self, vaddrs: Sequence[int], lo: int,
                        hi: int) -> Tuple[int, List[PageRun], List[int]]:
        """Translate the maximal TLB-hit prefix of ``vaddrs[lo:hi]``.

        Pure: no LRU update and no counters.  Returns ``(stop, page_runs,
        paddrs)`` where ``paddrs[i]`` translates ``vaddrs[lo + i]`` for
        ``lo <= lo + i < stop`` and ``stop`` is the first op whose page
        is not cached.  No :mod:`repro` code calls it; the benchmark's
        layer table (``perfbench/layers.py``) wraps it by name.
        """
        entries = self._entries
        runs: List[PageRun] = []
        paddrs: List[int] = []
        run_lo = lo
        vpn = None
        entry = None
        for index in range(lo, hi):
            vaddr = vaddrs[index]
            page = vaddr >> PAGE_SHIFT
            if page != vpn:
                if entry is not None:
                    runs.append((run_lo, index, vpn))
                entry = entries.get(page)
                if entry is None:
                    return index, runs, paddrs
                run_lo, vpn = index, page
            paddrs.append(entry.frame_address + (vaddr & (PAGE_SIZE - 1)))
        if entry is not None:
            runs.append((run_lo, hi, vpn))
        return hi, runs, paddrs

    # ------------------------------------------------------------------ #
    # Coherence operations
    # ------------------------------------------------------------------ #
    def invalidate(self, vaddr: int) -> bool:
        """Drop the translation for ``vaddr``'s page; return True if present.

        Only an actual drop counts as ``<name>.invalidations`` — a
        shootdown reaching a TLB that never cached the page records
        ``<name>.invalidation_misses`` instead, so shootdown accounting
        reflects entries really lost rather than pages merely signalled.
        """
        vpn = vaddr // self.page_size
        present = self._entries.pop(vpn, None) is not None
        if present:
            self.stats.add(f"{self.name}.invalidations")
        else:
            self.stats.add(f"{self.name}.invalidation_misses")
        return present

    def flush(self) -> int:
        """Drop every translation; return how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.add(f"{self.name}.flushes")
        self.stats.add(f"{self.name}.flushed_entries", dropped)
        return dropped

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vaddr: int) -> bool:
        return (vaddr // self.page_size) in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit so far (0.0 when no lookups)."""
        hits = self.stats.get(f"{self.name}.hits")
        misses = self.stats.get(f"{self.name}.misses")
        total = hits + misses
        return hits / total if total else 0.0
