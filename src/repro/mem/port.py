"""Per-core memory ports: the translate → coherence → data path.

Every core — CPU or MTTOP — owns one :class:`CoreMemoryPort`.  A memory
operation flows through it exactly as the paper describes (Section 3.2):

1. the virtual address is looked up in the core's private TLB (unless the
   system shape disables TLBs — the ``ccsvm-no-tlb`` preset — in which
   case every access pays a hardware walk);
2. on a TLB miss the core's hardware page-table walker walks the process
   page table (identified by the CR3 the core was given);
3. if the walk faults, the fault is handled — directly by the OS for a CPU
   core, or forwarded through the MIFD to a CPU core for an MTTOP core;
4. the physical address is presented to the MOESI coherent memory hierarchy
   (L1 → directory/L2 → DRAM), which returns the access latency;
5. the data itself is read from / written to simulated physical memory, so
   programs compute real results.

Because steps 1 and 4 are overwhelmingly the common case — a TLB hit
followed by an L1 hit with sufficient permission — :meth:`CoreMemoryPort.load`
and :meth:`~CoreMemoryPort.store` serve it inline on **one fused hit
path**.  The port binds the TLB entry table, the L1 tag store, the counter
dicts and the word store once, and a hit does the general path's LRU move,
replacement touch, state/dirty transition and counter increments, in the
same order, without a further call chain.  Anything else — TLB miss, L1
miss, upgrade from SHARED/OWNED, atomics, an out-of-range address, a
non-MOESI state — falls through to the unchanged general path, so timing,
statistics and errors are bit-for-bit identical either way.  The general
path alone runs after ``port.fast_path = False`` (the access path's one
reference oracle, set by the equivalence tests), when a
sequential-consistency checker is attached, or when the shape has no TLB.
Batches (:meth:`~CoreMemoryPort.run_batch` and friends) are one loop with
the same hit path inlined.

:class:`MemoryPort` is the structural protocol all port implementations
share — this one, the APU baseline's :class:`~repro.baseline.cpu.BaselineCPUPort`,
and the GPU model's internal ports — and is what
:func:`~repro.cores.interpreter.execute_memory_operation` programs against.
"""

from __future__ import annotations

from itertools import repeat
from typing import (Callable, Iterable, List, Optional, Protocol, Sequence,
                    Tuple, runtime_checkable)

from repro.coherence.protocol import CoherentMemorySystem
from repro.coherence.states import MOESIState
from repro.core.consistency import SequentialConsistencyChecker
from repro.errors import VirtualMemoryError
from repro.mem.batch import BatchOp, BatchResult, OP_LOAD, OP_STORE, scalar_op
from repro.memory.address import PAGE_SHIFT, PAGE_SIZE, WORD_SIZE
from repro.memory.physical import PhysicalMemory
from repro.sim.stats import StatsRegistry
from repro.vm.manager import AddressSpace, VirtualMemoryManager
from repro.vm.tlb import TLB
from repro.vm.walker import PageTableWalker

#: Fault handler: ``(port, vaddr, is_write) -> latency_ps``.  CPU ports call
#: straight into the OS; MTTOP ports are wired to the MIFD's fault forwarding.
PageFaultHandler = Callable[["CoreMemoryPort", int, bool], int]

# Enum members are singletons: the hit path classifies a line's state with
# identity checks.  A non-MOESI state matches none of them and falls
# through to the general path, which raises for it.
_MODIFIED = MOESIState.MODIFIED
_OWNED = MOESIState.OWNED
_EXCLUSIVE = MOESIState.EXCLUSIVE
_SHARED = MOESIState.SHARED

_PAGE_OFFSET = PAGE_SIZE - 1
_WORD_ALIGN = ~(WORD_SIZE - 1)
_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63
_TWO_POW_64 = 1 << 64


@runtime_checkable
class MemoryPort(Protocol):
    """What every memory port provides to the instruction interpreters."""

    #: Engine time of the issuing core.  Cores write this before each
    #: access; implementations default it to 0 so the interpreters can
    #: assign it unconditionally instead of ``hasattr``-probing per step.
    current_time_ps: int

    def load(self, vaddr: int) -> Tuple[int, int]:
        """Load the word at ``vaddr``; returns ``(value, latency_ps)``."""
        ...  # pragma: no cover - protocol

    def store(self, vaddr: int, value: int) -> int:
        """Store ``value`` to ``vaddr``; returns the latency."""
        ...  # pragma: no cover - protocol

    def atomic_add(self, vaddr: int, delta: int) -> Tuple[int, int]:
        """Atomic fetch-and-add; returns ``(old_value, latency_ps)``."""
        ...  # pragma: no cover - protocol

    def atomic_cas(self, vaddr: int, expected: int, new: int) -> Tuple[int, int]:
        """Atomic compare-and-swap; returns ``(old_value, latency_ps)``."""
        ...  # pragma: no cover - protocol

    def run_batch(self, ops: Sequence[BatchOp]) -> BatchResult:
        """Run a mixed batch of ``(kind, vaddr, a, b)`` ops in order;
        returns ``(values, latencies)`` with ``None`` values for stores."""
        ...  # pragma: no cover - protocol

    def load_batch(self, vaddrs: Sequence[int]) -> BatchResult:
        """Load a vector of addresses; returns ``(values, latencies)``."""
        ...  # pragma: no cover - protocol

    def store_batch(self, vaddrs: Sequence[int],
                    values: Sequence[int]) -> List[int]:
        """Store a vector of values; returns the per-op latencies."""
        ...  # pragma: no cover - protocol


class CoreMemoryPort:
    """The translation + coherence + data path for one CCSVM core."""

    def __init__(self, node: str, tlb: Optional[TLB], walker: PageTableWalker,
                 coherence: CoherentMemorySystem, physical_memory: PhysicalMemory,
                 vm_manager: VirtualMemoryManager,
                 page_fault_handler: Optional[PageFaultHandler] = None,
                 stats: Optional[StatsRegistry] = None,
                 sc_checker: Optional[SequentialConsistencyChecker] = None,
                 batch_enabled: bool = True) -> None:
        self.node = node
        #: ``None`` models a chip shape without TLBs (every access walks).
        self.tlb = tlb
        self.walker = walker
        self.coherence = coherence
        self.physical_memory = physical_memory
        self.vm_manager = vm_manager
        self.page_fault_handler = page_fault_handler
        self.stats = stats if stats is not None else StatsRegistry()
        self._sc_checker = sc_checker
        self._fast_path = True
        #: The ``batch_access`` config knob: whether an MTTOP core hands its
        #: warp's lane memory ops to :meth:`run_batch` as one batch.
        self.batch_enabled = batch_enabled
        self._space: Optional[AddressSpace] = None
        self._page_faults_stat = f"{node}.page_faults"
        #: Engine time of the issuing core, updated by the core before each
        #: access so SC-checker timestamps are meaningful.
        self.current_time_ps = 0
        self._hit = self._bind_hit_path()

    # ------------------------------------------------------------------ #
    # Fused hit path binding
    # ------------------------------------------------------------------ #
    @property
    def fast_path(self) -> bool:
        """Whether the fused TLB-hit + L1-hit path may serve accesses."""
        return self._fast_path

    @fast_path.setter
    def fast_path(self, enabled: bool) -> None:
        self._fast_path = enabled
        self._hit = self._bind_hit_path()

    @property
    def sc_checker(self) -> Optional[SequentialConsistencyChecker]:
        """The attached sequential-consistency checker, if any."""
        return self._sc_checker

    @sc_checker.setter
    def sc_checker(self, checker: Optional[SequentialConsistencyChecker]) -> None:
        self._sc_checker = checker
        self._hit = self._bind_hit_path()

    def _bind_hit_path(self) -> Optional[tuple]:
        """Bind what a TLB-hit + L1-hit access touches, or ``None``.

        ``None`` — general path only — when the fast path is off, an SC
        checker must see every access, the shape has no TLB, or no L1 is
        registered for this node (the general path then raises for it).
        Every container bound here is only ever mutated in place (cleared,
        never rebound), so the binding holds for the port's lifetime.
        """
        info = self.coherence._l1s.get(self.node)
        tlb = self.tlb
        if (not self._fast_path or self._sc_checker is not None
                or tlb is None or info is None):
            return None
        cache = info.cache
        memory = self.physical_memory
        return (tlb._entries, tlb.stats._counters, tlb._hits_stat,
                cache._where, cache._sets, cache._policies,
                self.coherence._line_mask & cache._line_mask,
                cache.stats._counters, cache._hits_stat,
                self.coherence.stats._counters, info.hit_latency_ps,
                memory._words, memory.size_bytes - WORD_SIZE)

    # ------------------------------------------------------------------ #
    # Address-space (CR3) management
    # ------------------------------------------------------------------ #
    def set_address_space(self, space: AddressSpace) -> None:
        """Load a process's CR3 into this core (and flush nothing — ASIDs
        are not modelled; runtimes flush explicitly when needed)."""
        self._space = space

    @property
    def address_space(self) -> AddressSpace:
        """The process address space this core currently translates against."""
        if self._space is None:
            raise VirtualMemoryError(
                f"core {self.node} has no address space (CR3 not set)"
            )
        return self._space

    @property
    def cr3(self) -> int:
        """The physical root of the current page table."""
        return self.address_space.cr3

    @property
    def has_address_space(self) -> bool:
        """True once :meth:`set_address_space` has been called."""
        return self._space is not None

    # ------------------------------------------------------------------ #
    # Translation
    # ------------------------------------------------------------------ #
    def _default_fault_handler(self, vaddr: int, is_write: bool) -> int:
        return self.vm_manager.handle_page_fault(self.address_space, vaddr,
                                                 is_write=is_write)

    def translate(self, vaddr: int, is_write: bool) -> Tuple[int, int]:
        """Translate ``vaddr``; return ``(paddr, latency_ps)``.

        Handles TLB hits, hardware walks, page faults (possibly forwarded to
        a CPU through the MIFD) and TLB refills.
        """
        if self.tlb is not None:
            entry = self.tlb.lookup(vaddr)
            if entry is not None:
                return entry.physical_address(vaddr), 0
        return self._translate_slow(vaddr, is_write)

    def _translate_slow(self, vaddr: int, is_write: bool) -> Tuple[int, int]:
        """Walk (and, on a fault, handle + re-walk), then refill the TLB."""
        space = self.address_space
        latency = 0
        walk = self.walker.walk(space.page_table, vaddr)
        latency += walk.latency_ps
        if walk.page_fault:
            if self.page_fault_handler is not None:
                latency += self.page_fault_handler(self, vaddr, is_write)
            else:
                latency += self._default_fault_handler(vaddr, is_write)
            self.stats.add(self._page_faults_stat)
            # The faulting access retries its walk after the handler returns.
            walk = self.walker.walk(space.page_table, vaddr)
            latency += walk.latency_ps
            if walk.page_fault:
                raise VirtualMemoryError(
                    f"page fault at {vaddr:#x} persists after handling"
                )
        translation = walk.translation
        assert translation is not None
        if self.tlb is not None:
            self.tlb.insert(translation.vpn, translation.frame_address,
                            translation.writable)
        return translation.physical_address(vaddr), latency

    # ------------------------------------------------------------------ #
    # Data access
    # ------------------------------------------------------------------ #
    def _resolve_load(self, vaddr: int) -> Tuple[int, int]:
        """Translate + obtain read permission; returns ``(paddr, latency)``.

        The general path.  With the fast path on, a TLB hit yields the
        physical address for free and the coherent L1 is probed for a read
        hit; everything else takes the full transaction path.
        """
        if self.fast_path and self.tlb is not None:
            entry = self.tlb.lookup(vaddr)
            if entry is not None:
                paddr = entry.physical_address(vaddr)
                latency = self.coherence.l1_load_hit_ps(self.node, paddr)
                if latency is None:
                    latency = self.coherence.load(self.node, paddr,
                                                  self.current_time_ps).latency_ps
                return paddr, latency
            paddr, translate_ps = self._translate_slow(vaddr, is_write=False)
        else:
            paddr, translate_ps = self.translate(vaddr, is_write=False)
        result = self.coherence.load(self.node, paddr, self.current_time_ps)
        return paddr, translate_ps + result.latency_ps

    def _write_transaction(self, paddr: int, atomic: bool) -> int:
        """General coherence transaction for a store/atomic; returns latency."""
        if atomic:
            return self.coherence.atomic(self.node, paddr,
                                         self.current_time_ps).latency_ps
        return self.coherence.store(self.node, paddr,
                                    self.current_time_ps).latency_ps

    def _resolve_write(self, vaddr: int, atomic: bool) -> Tuple[int, int]:
        """Translate + obtain exclusive permission; returns ``(paddr, latency)``."""
        if self.fast_path and self.tlb is not None:
            entry = self.tlb.lookup(vaddr)
            if entry is not None:
                paddr = entry.physical_address(vaddr)
                latency = self.coherence.l1_store_hit_ps(self.node, paddr,
                                                         self.current_time_ps,
                                                         atomic=atomic)
                if latency is None:
                    latency = self._write_transaction(paddr, atomic)
                return paddr, latency
            paddr, translate_ps = self._translate_slow(vaddr, is_write=True)
        else:
            paddr, translate_ps = self.translate(vaddr, is_write=True)
        return paddr, translate_ps + self._write_transaction(paddr, atomic)

    def load(self, vaddr: int) -> Tuple[int, int]:
        """Coherent load of the word at ``vaddr``; returns ``(value, latency_ps)``."""
        hit = self._hit
        if hit is not None:
            (entries, tlb_counts, tlb_hits, where, sets, policies, line_mask,
             cache_counts, cache_hits, counts, hit_ps, words, top) = hit
            vpn = vaddr >> PAGE_SHIFT
            entry = entries.get(vpn)
            if entry is not None:
                paddr = entry.frame_address + (vaddr & _PAGE_OFFSET)
                loc = where.get(paddr & line_mask)
                if loc is not None and 0 <= paddr <= top:
                    set_index, way = loc
                    state = sets[set_index][way].state
                    if (state is _MODIFIED or state is _EXCLUSIVE
                            or state is _SHARED or state is _OWNED):
                        entries.move_to_end(vpn)
                        tlb_counts[tlb_hits] += 1
                        policies[set_index].touch(way)
                        cache_counts[cache_hits] += 1
                        counts["coherence.accesses.load"] += 1
                        counts["coherence.l1_hits"] += 1
                        # Stored words are already masked to 64 bits.
                        word = words.get(paddr & _WORD_ALIGN, 0)
                        return (word - _TWO_POW_64 if word >= _SIGN_BIT
                                else word), hit_ps
        paddr, latency = self._resolve_load(vaddr)
        value = self.physical_memory.read_word(paddr)
        if self.sc_checker is not None:
            self.sc_checker.record_load(self.node, paddr, value, self.current_time_ps)
        return value, latency

    def store(self, vaddr: int, value: int) -> int:
        """Coherent store of ``value`` to ``vaddr``; returns the latency."""
        hit = self._hit
        if hit is not None:
            (entries, tlb_counts, tlb_hits, where, sets, policies, line_mask,
             cache_counts, cache_hits, counts, hit_ps, words, top) = hit
            vpn = vaddr >> PAGE_SHIFT
            entry = entries.get(vpn)
            if entry is not None:
                paddr = entry.frame_address + (vaddr & _PAGE_OFFSET)
                loc = where.get(paddr & line_mask)
                if loc is not None and 0 <= paddr <= top:
                    set_index, way = loc
                    block = sets[set_index][way]
                    state = block.state
                    if state is _MODIFIED or state is _EXCLUSIVE:
                        entries.move_to_end(vpn)
                        tlb_counts[tlb_hits] += 1
                        policies[set_index].touch(way)
                        cache_counts[cache_hits] += 1
                        counts["coherence.accesses.store"] += 1
                        block.state = _MODIFIED
                        block.dirty = True
                        counts["coherence.l1_hits"] += 1
                        words[paddr & _WORD_ALIGN] = value & _WORD_MASK
                        return hit_ps
        paddr, latency = self._resolve_write(vaddr, atomic=False)
        self.physical_memory.write_word(paddr, value)
        if self.sc_checker is not None:
            self.sc_checker.record_store(self.node, paddr, value, self.current_time_ps)
        return latency

    def atomic_add(self, vaddr: int, delta: int) -> Tuple[int, int]:
        """Atomic fetch-and-add; returns ``(old_value, latency_ps)``.

        Performed at the L1 after obtaining exclusive coherence permission,
        as the paper's MTTOP cores do (Section 3.2.4).
        """
        paddr, latency = self._resolve_write(vaddr, atomic=True)
        old = self.physical_memory.read_word(paddr)
        new = old + delta
        self.physical_memory.write_word(paddr, new)
        if self.sc_checker is not None:
            self.sc_checker.record_atomic(self.node, paddr, old, new,
                                          self.current_time_ps)
        return old, latency

    def atomic_cas(self, vaddr: int, expected: int, new: int) -> Tuple[int, int]:
        """Atomic compare-and-swap; returns ``(old_value, latency_ps)``."""
        paddr, latency = self._resolve_write(vaddr, atomic=True)
        old = self.physical_memory.read_word(paddr)
        stored = new if old == expected else old
        self.physical_memory.write_word(paddr, stored)
        if self.sc_checker is not None:
            self.sc_checker.record_atomic(self.node, paddr, old, stored,
                                          self.current_time_ps)
        return old, latency

    # ------------------------------------------------------------------ #
    # Batched access
    # ------------------------------------------------------------------ #
    def run_batch(self, ops: Sequence[BatchOp]) -> BatchResult:
        """Run a mixed op batch in order; see :mod:`repro.mem.batch`."""
        return self._run(ops)

    def load_batch(self, vaddrs: Sequence[int]) -> BatchResult:
        """Load a vector of addresses; returns ``(values, latencies)``."""
        return self._run(zip(repeat(OP_LOAD), vaddrs, repeat(0), repeat(0)))

    def store_batch(self, vaddrs: Sequence[int],
                    values: Sequence[int]) -> List[int]:
        """Store a vector of values; returns the per-op latencies."""
        if len(values) < len(vaddrs):
            # zip() would silently drop the unmatched addresses.
            raise IndexError(f"{len(vaddrs)} addresses but only "
                             f"{len(values)} values")
        return self._run(zip(repeat(OP_STORE), vaddrs, values, repeat(0)))[1]

    def _run(self, ops: Iterable[BatchOp]) -> BatchResult:
        """The batch loop: :meth:`load`/:meth:`store`'s hit path inlined,
        every other op through the scalar methods, all in op order."""
        values: List[object] = []
        lats: List[int] = []
        add_value = values.append
        add_lat = lats.append
        hit = self._hit
        if hit is None:
            for kind, vaddr, a, b in ops:
                value, lat = scalar_op(self, kind, vaddr, a, b)
                add_value(value)
                add_lat(lat)
            return values, lats
        (entries, tlb_counts, tlb_hits, where, sets, policies, line_mask,
         cache_counts, cache_hits, counts, hit_ps, words, top) = hit
        get_entry = entries.get
        move = entries.move_to_end
        get_loc = where.get
        read = words.get
        for kind, vaddr, a, b in ops:
            if kind == OP_LOAD or kind == OP_STORE:
                vpn = vaddr >> PAGE_SHIFT
                entry = get_entry(vpn)
                if entry is not None:
                    paddr = entry.frame_address + (vaddr & _PAGE_OFFSET)
                    loc = get_loc(paddr & line_mask)
                    if loc is not None and 0 <= paddr <= top:
                        set_index, way = loc
                        block = sets[set_index][way]
                        state = block.state
                        if kind == OP_LOAD:
                            if (state is _MODIFIED or state is _EXCLUSIVE
                                    or state is _SHARED or state is _OWNED):
                                move(vpn)
                                tlb_counts[tlb_hits] += 1
                                policies[set_index].touch(way)
                                cache_counts[cache_hits] += 1
                                counts["coherence.accesses.load"] += 1
                                counts["coherence.l1_hits"] += 1
                                word = read(paddr & _WORD_ALIGN, 0)
                                add_value(word - _TWO_POW_64
                                          if word >= _SIGN_BIT else word)
                                add_lat(hit_ps)
                                continue
                        elif state is _MODIFIED or state is _EXCLUSIVE:
                            move(vpn)
                            tlb_counts[tlb_hits] += 1
                            policies[set_index].touch(way)
                            cache_counts[cache_hits] += 1
                            counts["coherence.accesses.store"] += 1
                            block.state = _MODIFIED
                            block.dirty = True
                            counts["coherence.l1_hits"] += 1
                            words[paddr & _WORD_ALIGN] = a & _WORD_MASK
                            add_value(None)
                            add_lat(hit_ps)
                            continue
            value, lat = scalar_op(self, kind, vaddr, a, b)
            add_value(value)
            add_lat(lat)
        return values, lats
