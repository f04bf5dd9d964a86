"""The MOESI directory protocol over private L1s and a banked, inclusive L2.

:class:`CoherentMemorySystem` is the heart of the CCSVM chip's memory system.
Every load, store or atomic issued by a CPU or MTTOP core is resolved here:

* L1 hit with sufficient permission → local latency only;
* store hit without write permission → upgrade transaction (invalidate the
  other copies via the home directory);
* miss → GetS/GetM transaction at the home L2/directory bank, which may
  forward to the current owner, invalidate sharers, hit in the L2, or fill
  from off-chip DRAM (filling the inclusive L2 on the way).

Because the engine executes one memory operation at a time, each transaction
runs to completion atomically; the protocol therefore has only stable states,
but it performs and counts every message, invalidation, recall and writeback
a real implementation would, and it accumulates the latency of the messages
on the transaction's critical path.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cache.block import CacheBlock
from repro.cache.cache import SetAssociativeCache
from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.messages import MessageType
from repro.coherence.states import MOESIState
from repro.errors import CoherenceError
from repro.interconnect.network import (
    CONTROL_MESSAGE_BYTES,
    DATA_MESSAGE_BYTES,
    NetworkModel,
)
from repro.memory.address import CACHE_LINE_SIZE
from repro.memory.dram import DRAMModel
from repro.sim.stats import StatsRegistry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids cycle)
    from repro.mem.levels import CacheLevel as CacheLevelLike


class AccessType(enum.Enum):
    """The three memory operations cores issue to the coherent hierarchy."""

    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"

    @property
    def needs_write_permission(self) -> bool:
        """True when the access requires an exclusive (writable) copy."""
        return self is not AccessType.LOAD


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one coherent memory access."""

    latency_ps: int
    level: str               #: "l1", "l2", "remote_l1", "dram" or "upgrade"
    line_address: int
    access_type: AccessType

    @property
    def l1_hit(self) -> bool:
        """True when the access was satisfied entirely in the local L1."""
        return self.level == "l1"


@dataclass
class L2Bank:
    """One bank of the shared inclusive L2 with its slice of the directory."""

    name: str
    cache: SetAssociativeCache
    directory: Directory
    hit_latency_ps: int


@dataclass
class _L1Info:
    """Registration record for one core's private L1 data cache."""

    node: str
    cache: SetAssociativeCache
    hit_latency_ps: int


class CoherentMemorySystem:
    """MOESI directory coherence over registered L1s, L2 banks and DRAM.

    ``l3`` optionally stacks a shared memory-side cache (any object with a
    ``cache`` tag store and a ``hit_latency_ps``, i.e. a
    :class:`repro.mem.levels.CacheLevel`) between the L2 banks and DRAM:
    L2 fills check it before going off-chip and dirty L2 victims land in
    it instead of DRAM.  It sits at the memory controller, so no extra
    NoC node is involved and, when absent, the transaction paths are
    exactly the historical ones.
    """

    def __init__(self, network: NetworkModel, dram: DRAMModel,
                 banks: List[L2Bank], memory_node: str,
                 stats: Optional[StatsRegistry] = None,
                 line_size: int = CACHE_LINE_SIZE,
                 l3: Optional["CacheLevelLike"] = None) -> None:
        if not banks:
            raise CoherenceError("a coherent memory system needs at least one L2 bank")
        self.network = network
        self.dram = dram
        self.banks = banks
        self.memory_node = memory_node
        self.stats = stats if stats is not None else StatsRegistry()
        self.line_size = line_size
        self.l3 = l3
        self._line_mask = ~(line_size - 1)
        self._l1s: Dict[str, _L1Info] = {}
        # Route-table entries bound as _routes[src][dst][message type], and
        # the counter dicts _msg charges (registries are only ever cleared
        # in place, never rebound).
        self._routes: Dict[str, Dict[str, Dict[MessageType, tuple]]] = {}
        self._network_counters = network.stats._counters
        self._counters = self.stats._counters

    # ------------------------------------------------------------------ #
    # Registration and address mapping
    # ------------------------------------------------------------------ #
    def register_l1(self, node: str, cache: SetAssociativeCache,
                    hit_latency_ps: int) -> None:
        """Register ``node``'s private L1 data cache as a coherence peer."""
        if node in self._l1s:
            raise CoherenceError(f"L1 for node {node!r} registered twice")
        self._l1s[node] = _L1Info(node=node, cache=cache, hit_latency_ps=hit_latency_ps)

    @property
    def nodes(self) -> List[str]:
        """Names of every registered private cache."""
        return list(self._l1s)

    def line_address(self, paddr: int) -> int:
        """Align a physical address to its cache line."""
        return paddr & ~(self.line_size - 1)

    def home_bank(self, line_address: int) -> L2Bank:
        """Return the L2/directory bank that is home for ``line_address``."""
        index = (line_address // self.line_size) % len(self.banks)
        return self.banks[index]

    # ------------------------------------------------------------------ #
    # Message helpers (latency + accounting)
    # ------------------------------------------------------------------ #
    def _msg(self, src: str, dst: str, mtype: MessageType) -> int:
        """Charge one message and return its latency.

        Same counters, same order as :meth:`NetworkModel.send` followed by
        ``coherence.msg.<type>``, with no per-message allocation.
        """
        try:
            bound = self._routes[src][dst][mtype]
        except KeyError:
            bound = self._bind_route(src, dst, mtype)
        (hops, latency, size, messages_key, kind_key, hops_key, bytes_key,
         msg_key) = bound
        network = self._network_counters
        network[messages_key] += 1
        network[kind_key] += 1
        network[hops_key] += hops
        network[bytes_key] += size
        self._counters[msg_key] += 1
        return latency

    def _bind_route(self, src: str, dst: str, mtype: MessageType) -> tuple:
        """The network's route entry for ``mtype`` plus its coherence key."""
        size = DATA_MESSAGE_BYTES if mtype.carries_data else CONTROL_MESSAGE_BYTES
        kind = mtype.counter_name
        bound = (*self.network.route(src, dst, size, kind),
                 sys.intern(f"coherence.msg.{kind}"))
        self._routes.setdefault(src, {}).setdefault(dst, {})[mtype] = bound
        return bound

    # ------------------------------------------------------------------ #
    # Public access API
    # ------------------------------------------------------------------ #
    def access(self, node: str, paddr: int, access_type: AccessType,
               now_ps: int = 0) -> AccessResult:
        """Perform one coherent access by ``node`` to physical address ``paddr``."""
        info = self._l1s.get(node)
        if info is None:
            raise CoherenceError(f"node {node!r} has no registered L1")
        line = self.line_address(paddr)
        latency = info.hit_latency_ps
        self.stats.add(f"coherence.accesses.{access_type.value}")

        block = info.cache.lookup(line)
        if block is not None:
            state = block.state
            if not isinstance(state, MOESIState):
                raise CoherenceError(f"L1 {node} holds non-MOESI state {state!r}")
            if access_type is AccessType.LOAD and state.can_read:
                self.stats.add("coherence.l1_hits")
                return AccessResult(latency, "l1", line, access_type)
            if access_type.needs_write_permission and state.can_write:
                block.state = state.after_local_store()
                block.dirty = True
                self.stats.add("coherence.l1_hits")
                if access_type is AccessType.ATOMIC:
                    self.stats.add("coherence.atomics")
                return AccessResult(latency, "l1", line, access_type)
            if access_type.needs_write_permission and state in (MOESIState.SHARED,
                                                                MOESIState.OWNED):
                extra = self._upgrade(info, block, line, now_ps)
                if access_type is AccessType.ATOMIC:
                    self.stats.add("coherence.atomics")
                return AccessResult(latency + extra, "upgrade", line, access_type)
            raise CoherenceError(
                f"unexpected L1 state {state} for {access_type.value} at {node}"
            )

        # Full L1 miss.
        self.stats.add("coherence.l1_misses")
        if access_type is AccessType.LOAD:
            extra, level = self._get_shared(info, line, now_ps)
        else:
            extra, level = self._get_modified(info, line, now_ps)
            if access_type is AccessType.ATOMIC:
                self.stats.add("coherence.atomics")
        return AccessResult(latency + extra, level, line, access_type)

    # Convenience wrappers -------------------------------------------------
    def load(self, node: str, paddr: int, now_ps: int = 0) -> AccessResult:
        """Coherent load."""
        return self.access(node, paddr, AccessType.LOAD, now_ps)

    def store(self, node: str, paddr: int, now_ps: int = 0) -> AccessResult:
        """Coherent store."""
        return self.access(node, paddr, AccessType.STORE, now_ps)

    def atomic(self, node: str, paddr: int, now_ps: int = 0) -> AccessResult:
        """Coherent atomic read-modify-write (performed at the L1 after
        obtaining exclusive permission, per Section 3.2.4)."""
        return self.access(node, paddr, AccessType.ATOMIC, now_ps)

    # ------------------------------------------------------------------ #
    # L1-hit fast path (used by CoreMemoryPort)
    # ------------------------------------------------------------------ #
    def l1_load_hit_ps(self, node: str, paddr: int) -> Optional[int]:
        """Serve a load that hits in ``node``'s L1; return its latency.

        Returns ``None`` when the line is not resident, *without* recording
        a cache miss — the caller then takes the general :meth:`access`
        path, whose own lookup records it, so counters match the legacy
        path exactly.  State transitions, hit counters and replacement
        updates on a hit are identical to :meth:`access`; what is skipped
        is the per-access :class:`AccessResult` allocation and the enum
        dispatch, which dominate the simulator's hot loop.
        """
        info = self._l1s.get(node)
        if info is None:
            raise CoherenceError(f"node {node!r} has no registered L1")
        block = info.cache.probe(paddr & self._line_mask)
        if block is None:
            return None
        state = block.state
        if not isinstance(state, MOESIState):
            raise CoherenceError(f"L1 {node} holds non-MOESI state {state!r}")
        if not state.can_read:
            raise CoherenceError(
                f"unexpected L1 state {state} for load at {node}"
            )
        self.stats.add("coherence.accesses.load")
        self.stats.add("coherence.l1_hits")
        return info.hit_latency_ps

    def l1_store_hit_ps(self, node: str, paddr: int, now_ps: int = 0,
                        atomic: bool = False) -> Optional[int]:
        """Serve a store/atomic whose line is resident in ``node``'s L1.

        Covers both the write-permission hit and the SHARED/OWNED upgrade
        (which reuses the general :meth:`_upgrade` transaction, so the two
        paths cannot diverge).  Returns ``None`` — recording nothing — on
        a full miss; the caller falls back to :meth:`access`.
        """
        info = self._l1s.get(node)
        if info is None:
            raise CoherenceError(f"node {node!r} has no registered L1")
        line = paddr & self._line_mask
        block = info.cache.probe(line)
        if block is None:
            return None
        state = block.state
        if not isinstance(state, MOESIState):
            raise CoherenceError(f"L1 {node} holds non-MOESI state {state!r}")
        self.stats.add("coherence.accesses.atomic" if atomic
                       else "coherence.accesses.store")
        if state.can_write:
            block.state = state.after_local_store()
            block.dirty = True
            self.stats.add("coherence.l1_hits")
            if atomic:
                self.stats.add("coherence.atomics")
            return info.hit_latency_ps
        if state in (MOESIState.SHARED, MOESIState.OWNED):
            extra = self._upgrade(info, block, line, now_ps)
            if atomic:
                self.stats.add("coherence.atomics")
            return info.hit_latency_ps + extra
        raise CoherenceError(
            f"unexpected L1 state {state} for "
            f"{'atomic' if atomic else 'store'} at {node}"
        )

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    def _upgrade(self, info: _L1Info, block: CacheBlock, line: int,
                 now_ps: int) -> int:
        """Store hit on a SHARED/OWNED copy: invalidate the other copies."""
        bank = self.home_bank(line)
        entry = bank.directory.entry(line)
        latency = self._msg(info.node, bank.name, MessageType.UPGRADE)
        latency += bank.hit_latency_ps
        latency += self._invalidate_holders(bank, entry, exclude=info.node)
        latency += self._msg(bank.name, info.node, MessageType.ACK)
        entry.set_exclusive_owner(info.node)
        block.state = MOESIState.MODIFIED
        block.dirty = True
        self.stats.add("coherence.upgrades")
        return latency

    def _get_shared(self, info: _L1Info, line: int, now_ps: int) -> tuple[int, str]:
        """Load miss: obtain a readable copy (GetS)."""
        bank = self.home_bank(line)
        entry = bank.directory.entry(line)
        latency = self._msg(info.node, bank.name, MessageType.GET_SHARED)
        latency += bank.hit_latency_ps
        level = "l2"

        owner = entry.owner
        if owner is not None and owner != info.node:
            # Forward to the current owner, which supplies the data and
            # downgrades: M -> O (stays owner), E -> S (clean, ownership
            # returns to the L2/directory).
            latency += self._msg(bank.name, owner, MessageType.FWD_GET_SHARED)
            latency += self._msg(owner, info.node, MessageType.DATA)
            owner_block = self._l1s[owner].cache.peek(line)
            if owner_block is None:
                raise CoherenceError(
                    f"directory lists {owner} as owner of {line:#x} but its L1 "
                    "does not hold the line"
                )
            if owner_block.state is MOESIState.MODIFIED:
                owner_block.state = MOESIState.OWNED
                entry.set_shared_owner(owner)
            elif owner_block.state is MOESIState.EXCLUSIVE:
                owner_block.state = MOESIState.SHARED
                entry.remove(owner)
                entry.add_sharer(owner)
            elif owner_block.state is MOESIState.OWNED:
                entry.set_shared_owner(owner)
            else:
                raise CoherenceError(
                    f"owner {owner} of {line:#x} is in non-ownership state "
                    f"{owner_block.state}"
                )
            entry.add_sharer(info.node)
            new_state = MOESIState.SHARED
            self.stats.add("coherence.remote_l1_hits")
            level = "remote_l1"
        else:
            l2_block = bank.cache.lookup(line)
            if l2_block is None:
                latency += self._fill_l2_from_dram(bank, line, now_ps)
                l2_block = bank.cache.peek(line)
                level = "dram"
                self.stats.add("coherence.l2_misses")
            else:
                self.stats.add("coherence.l2_hits")
            latency += self._msg(bank.name, info.node, MessageType.DATA)
            if entry.has_copies:
                entry.add_sharer(info.node)
                new_state = MOESIState.SHARED
            else:
                # Exclusive grant: the requester is the only holder.
                entry.set_exclusive_owner(info.node)
                new_state = MOESIState.EXCLUSIVE

        self._l1_fill(info, line, new_state, dirty=False, now_ps=now_ps)
        return latency, level

    def _get_modified(self, info: _L1Info, line: int, now_ps: int) -> tuple[int, str]:
        """Store/atomic miss: obtain an exclusive copy (GetM)."""
        bank = self.home_bank(line)
        entry = bank.directory.entry(line)
        latency = self._msg(info.node, bank.name, MessageType.GET_MODIFIED)
        latency += bank.hit_latency_ps
        level = "l2"

        owner = entry.owner
        if owner is not None and owner != info.node:
            latency += self._msg(bank.name, owner, MessageType.FWD_GET_MODIFIED)
            latency += self._msg(owner, info.node, MessageType.DATA)
            owner_block = self._l1s[owner].cache.evict(line)
            if owner_block is None:
                raise CoherenceError(
                    f"directory lists {owner} as owner of {line:#x} but its L1 "
                    "does not hold the line"
                )
            entry.remove(owner)
            self.stats.add("coherence.remote_l1_hits")
            self.stats.add("coherence.invalidations")
            level = "remote_l1"
        else:
            l2_block = bank.cache.lookup(line)
            if l2_block is None:
                latency += self._fill_l2_from_dram(bank, line, now_ps)
                level = "dram"
                self.stats.add("coherence.l2_misses")
            else:
                self.stats.add("coherence.l2_hits")
            latency += self._msg(bank.name, info.node, MessageType.DATA_EXCLUSIVE)

        latency += self._invalidate_holders(bank, entry, exclude=info.node)
        entry.set_exclusive_owner(info.node)
        self._l1_fill(info, line, MOESIState.MODIFIED, dirty=True, now_ps=now_ps)
        return latency, level

    # ------------------------------------------------------------------ #
    # Shared protocol actions
    # ------------------------------------------------------------------ #
    def _invalidate_holders(self, bank: L2Bank, entry: DirectoryEntry,
                            exclude: str) -> int:
        """Invalidate every holder except ``exclude``; return the added latency.

        Invalidations are sent in parallel, so the latency contribution is
        the slowest single invalidation round-trip, not the sum.
        """
        worst = 0
        for holder in sorted(entry.holders()):
            if holder == exclude:
                continue
            inv = self._msg(bank.name, holder, MessageType.INVALIDATE)
            ack = self._msg(holder, bank.name, MessageType.ACK)
            worst = max(worst, inv + ack)
            holder_block = self._l1s[holder].cache.evict(entry.line_address)
            if holder_block is not None and holder_block.dirty:
                # A dirty (OWNED) copy being invalidated writes its data back
                # to the home L2 bank; off the critical path but counted.
                self._writeback_to_l2(holder, bank, entry.line_address)
            entry.remove(holder)
            self.stats.add("coherence.invalidations")
        return worst

    def _l1_fill(self, info: _L1Info, line: int, state: MOESIState,
                 dirty: bool, now_ps: int) -> None:
        """Insert a line into an L1, handling the victim it may push out."""
        _, victim = info.cache.insert(line, state=state, dirty=dirty, now_ps=now_ps)
        if victim is not None:
            self._handle_l1_eviction(info.node, victim)

    def _handle_l1_eviction(self, node: str, victim: CacheBlock) -> None:
        """Process an L1 capacity eviction (PutM for dirty, PutS for clean)."""
        line = victim.line_address
        bank = self.home_bank(line)
        entry = bank.directory.peek(line)
        state = victim.state
        if isinstance(state, MOESIState) and state.is_dirty:
            self._msg(node, bank.name, MessageType.PUT_MODIFIED)
            self._writeback_to_l2(node, bank, line)
        else:
            self._msg(node, bank.name, MessageType.PUT_CLEAN)
        if entry is not None:
            entry.remove(node)
        self.stats.add("coherence.l1_evictions")

    def _writeback_to_l2(self, node: str, bank: L2Bank, line: int) -> None:
        """Record dirty data arriving at the home L2 bank."""
        l2_block = bank.cache.peek(line)
        if l2_block is None:
            # Inclusion should prevent this; tolerate by re-inserting so the
            # dirty data is not lost, then let normal eviction handle it.
            l2_block, victim = bank.cache.insert(line, dirty=True)
            if victim is not None:
                self._handle_l2_eviction(bank, victim)
        l2_block.dirty = True
        self.stats.add("coherence.writebacks_to_l2")

    def _fill_l2_from_dram(self, bank: L2Bank, line: int, now_ps: int) -> int:
        """Fetch a line from the memory side (L3, then DRAM) into the L2.

        Returns the latency.  Without an L3 this is the historical
        straight-to-DRAM fill; with one, an L3 hit serves the line without
        an off-chip access (the whole point of the ``ccsvm-l3`` shape).
        """
        latency = self._msg(bank.name, self.memory_node, MessageType.GET_SHARED)
        if self.l3 is not None:
            latency += self.l3.hit_latency_ps
            if self.l3.cache.lookup(line) is not None:
                self.stats.add("coherence.l3_hits")
            else:
                self.stats.add("coherence.l3_misses")
                latency += self.dram.read(self.line_size)
                _, l3_victim = self.l3.cache.insert(line, now_ps=now_ps)
                if l3_victim is not None and l3_victim.dirty:
                    self.dram.write(self.line_size)
                    self.stats.add("coherence.l3_writebacks")
                self.stats.add("coherence.dram_fills")
        else:
            latency += self.dram.read(self.line_size)
            self.stats.add("coherence.dram_fills")
        latency += self._msg(self.memory_node, bank.name, MessageType.DATA)
        _, victim = bank.cache.insert(line, dirty=False, now_ps=now_ps)
        if victim is not None:
            self._handle_l2_eviction(bank, victim)
        return latency

    def _handle_l2_eviction(self, bank: L2Bank, victim: CacheBlock) -> None:
        """Evict a line from the inclusive L2: recall L1 copies, write back."""
        line = victim.line_address
        entry = bank.directory.peek(line)
        dirty = victim.dirty
        if entry is not None:
            for holder in sorted(entry.holders()):
                self._msg(bank.name, holder, MessageType.RECALL)
                holder_block = self._l1s[holder].cache.evict(line)
                if holder_block is not None and holder_block.dirty:
                    self._msg(holder, bank.name, MessageType.WRITEBACK)
                    dirty = True
                self.stats.add("coherence.recalls")
            bank.directory.drop(line)
        if dirty:
            self._msg(bank.name, self.memory_node, MessageType.WRITEBACK)
            if self.l3 is not None:
                # Dirty L2 victims land in the memory-side L3 instead of DRAM.
                l3_block = self.l3.cache.peek(line)
                if l3_block is None:
                    l3_block, l3_victim = self.l3.cache.insert(line, dirty=True)
                    if l3_victim is not None and l3_victim.dirty:
                        self.dram.write(self.line_size)
                        self.stats.add("coherence.l3_writebacks")
                l3_block.dirty = True
                self.stats.add("coherence.writebacks_to_l3")
            else:
                self.dram.write(self.line_size)
                self.stats.add("coherence.writebacks_to_dram")
        self.stats.add("coherence.l2_evictions")

    # ------------------------------------------------------------------ #
    # Maintenance and verification
    # ------------------------------------------------------------------ #
    def flush_l1(self, node: str) -> int:
        """Write back and invalidate every line in ``node``'s L1.

        Returns the number of dirty lines written back.  Used when an MTTOP
        core's cache is reconfigured for legacy/graphics mode
        (Section 3.5) and by tests.
        """
        info = self._l1s[node]
        written_back = 0
        for block in info.cache.flush_all():
            bank = self.home_bank(block.line_address)
            entry = bank.directory.peek(block.line_address)
            if isinstance(block.state, MOESIState) and block.state.is_dirty:
                self._msg(node, bank.name, MessageType.PUT_MODIFIED)
                self._writeback_to_l2(node, bank, block.line_address)
                written_back += 1
            if entry is not None:
                entry.remove(node)
        return written_back

    def check_invariants(self) -> None:
        """Verify SWMR, directory/cache agreement and L2 inclusion.

        Raises :class:`CoherenceError` on any violation.  Property-based
        tests drive random access sequences and call this after every step.
        """
        # Build the true holder map from the L1 tag stores.
        holders_by_line: Dict[int, Dict[str, MOESIState]] = {}
        for node, info in self._l1s.items():
            for block in info.cache.blocks():
                if isinstance(block.state, MOESIState) and block.state.can_read:
                    holders_by_line.setdefault(block.line_address, {})[node] = block.state

        for line, holders in holders_by_line.items():
            exclusive = [n for n, s in holders.items() if s.is_exclusive]
            owners = [n for n, s in holders.items() if s.is_ownership]
            if len(exclusive) > 1:
                raise CoherenceError(f"line {line:#x} has two exclusive holders {exclusive}")
            if exclusive and len(holders) > 1:
                raise CoherenceError(
                    f"line {line:#x} held exclusively by {exclusive[0]} but also by "
                    f"{sorted(set(holders) - set(exclusive))}"
                )
            if len(owners) > 1:
                raise CoherenceError(f"line {line:#x} has multiple owners {owners}")
            bank = self.home_bank(line)
            if bank.cache.peek(line) is None:
                raise CoherenceError(f"inclusion violated: {line:#x} in an L1 but not in L2")
            entry = bank.directory.peek(line)
            if entry is None:
                raise CoherenceError(f"line {line:#x} cached but untracked by directory")
            if entry.holders() != set(holders):
                raise CoherenceError(
                    f"directory holders {sorted(entry.holders())} disagree with caches "
                    f"{sorted(holders)} for line {line:#x}"
                )
            entry.check_invariant()

        # Directory must not list holders that do not actually hold the line.
        for bank in self.banks:
            for entry in bank.directory.entries():
                for holder in entry.holders():
                    block = self._l1s[holder].cache.peek(entry.line_address)
                    if block is None or not isinstance(block.state, MOESIState) \
                            or not block.state.can_read:
                        raise CoherenceError(
                            f"directory lists {holder} for line "
                            f"{entry.line_address:#x} but its L1 does not hold it"
                        )
