"""Cache-only replay: walk a captured trace through a bare hierarchy.

``repro.mem.trace`` replay still pays for the whole machine — cores, the
sim engine, the MIFD, the xthreads runtime — even though a fixed trace's
reference stream is identical under every hierarchy shape.  This module
drops everything except the memory system itself: it assembles the same
TLBs, private L1s, MOESI-directory L2 banks, optional L3 and DRAM model a
:class:`~repro.core.chip.CCSVMChip` would build (same names, same latency
parameters), then feeds the recorded per-thread operation streams through
the ports directly, interleaved in global capture order.

Because the ports, the coherence controller and the VM manager are the
*identical* objects direct simulation uses, every hierarchy counter —
``tlb.*``, ``walker.*``, ``l1d.*``, ``l2.*``, ``l3.*``, ``coherence.*``,
``dram.*``, ``network.*``, ``os.*`` — matches a full simulation of the
same stream exactly.  What cache-only replay does *not* reproduce are the
core/engine-side counters (instructions, engine steps, xthreads service
stats) and the simulated makespan: :attr:`ReplayResult.time_ps` is the sum
of per-access latencies (a serial cost proxy), not the parallel schedule's
finish time.

Synchronisation operations expand to their deterministic memory footprint
(the footprint the runtime performs when the condition is already true):

* ``WaitValue``/``WaitCond`` poll each watched slot once — the recorded
  stream embeds the captured interleaving, so the poll succeeds by
  construction;
* ``SignalCond`` stores its value into every slot in ``[first, last]``,
  exactly like ``XThreadsRuntime._cpu_signal``;
* ``CpuMttopBarrier`` reads each slot, clears it, then flips the sense
  word — the satisfied-barrier sequence.

Spin *re*-polls are timing-dependent and are not recorded in traces, so a
trace whose capture involved spinning replays with fewer poll loads than
the original run; for single-threaded (host-only) traces the replay is
counter-exact, which is what the equivalence gate in
``tests/mem/test_replay_equivalence.py`` locks down.

Device streams are placed on MTTOP nodes with the MIFD's round-robin
chunk rule (SIMD-width chunks, one core per chunk, cursor persisting
across tasks), which matches the real MIFD whenever thread contexts never
run out — true for every builtin workload at default sizes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.baseline.cpu import BaselineCPUPort
from repro.baseline.memory import FlatMemory, PrivateCacheHierarchy
from repro.coherence.protocol import CoherentMemorySystem
from repro.config import (
    APUSystemConfig,
    CCSVMSystemConfig,
    ConfigurationError,
    amd_apu_system,
    ccsvm_system,
)
from repro.core.xthreads.api import (
    CpuMttopBarrier,
    CreateMThread,
    SignalCond,
    WaitCond,
    cond_entry,
)
from repro.cores.isa import (
    AtomicAdd,
    AtomicCAS,
    AtomicDec,
    AtomicInc,
    Compute,
    Free,
    Load,
    LoadVector,
    Malloc,
    Store,
    StoreVector,
    WaitValue,
)
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import Torus2DTopology
from repro.mem.assemble import (
    build_apu_shared_l2,
    build_ccsvm_l1,
    build_l2_banks,
    build_l3_level,
)
from repro.mem.batch import (OP_ATOMIC_ADD, OP_ATOMIC_CAS, OP_LOAD, OP_STORE,
                             scalar_op)
from repro.mem.port import CoreMemoryPort
from repro.mem.trace import Trace, TraceError
from repro.memory.dram import DRAMModel
from repro.memory.physical import FrameAllocator, PhysicalMemory
from repro.sim.clock import ClockDomain, ns_to_ps
from repro.sim.stats import StatsRegistry
from repro.vm.manager import VirtualMemoryManager
from repro.vm.shootdown import TLBShootdownController
from repro.vm.tlb import TLB
from repro.vm.walker import PageTableWalker


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one cache-only replay."""

    #: Sum of every access's latency — a serial cost proxy for comparing
    #: hierarchy shapes, *not* the parallel makespan a full run reports.
    time_ps: int
    #: Operations replayed (memory + allocation + expanded sync footprint).
    operations: int
    stats: StatsRegistry

    @property
    def dram_accesses(self) -> int:
        """Off-chip DRAM accesses performed during the replay."""
        return self.stats.get("dram.reads") + self.stats.get("dram.writes")

    def stats_snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of every counter (useful for diffing)."""
        return self.stats.to_dict()


# --------------------------------------------------------------------------- #
# CCSVM hierarchy — the chip's memory system without the chip
# --------------------------------------------------------------------------- #
class CCSVMReplayHierarchy:
    """The CCSVM memory system exactly as :class:`CCSVMChip` assembles it.

    Node names, cache geometry, walker latencies and the coherence fabric
    are byte-for-byte the chip's; only cores, engine, MIFD and runtime are
    absent.  One :class:`CoreMemoryPort` exists per cpu/mttop node, all
    sharing a single process address space.
    """

    def __init__(self, config: CCSVMSystemConfig,
                 fast_access_path: bool = True) -> None:
        cfg = config
        if cfg.mttop.write_through:
            raise ConfigurationError(
                "mttop.write_through=true is not modeled (write-back MTTOP "
                "L1s only); cannot replay against this shape")
        self.config = cfg
        self.stats = StatsRegistry()

        # Memory + VM (chip: _build_memory).
        self.physical_memory = PhysicalMemory(cfg.dram.size_bytes)
        self.frames = FrameAllocator(cfg.dram.size_bytes)
        self.vm = VirtualMemoryManager(self.physical_memory, self.frames,
                                       stats=self.stats)
        self.dram = DRAMModel(cfg.dram.latency_ns, stats=self.stats,
                              name="dram")
        self.shootdown = TLBShootdownController(stats=self.stats)

        # Interconnect (chip: _build_interconnect).
        self.cpu_nodes = [f"cpu{i}" for i in range(cfg.cpu.count)]
        self.mttop_nodes = [f"mttop{i}" for i in range(cfg.mttop.count)]
        self.l2_nodes = [f"l2b{i}" for i in range(cfg.l2.banks)]
        self.memory_node = "mem0"
        all_nodes = (self.cpu_nodes + self.mttop_nodes + self.l2_nodes
                     + [self.memory_node])
        self.topology = Torus2DTopology.fit(all_nodes)
        self.network = NetworkModel(
            self.topology, link_bandwidth_gbps=cfg.noc.link_bandwidth_gbps,
            per_hop_latency_ns=cfg.noc.hop_latency_ns, stats=self.stats)

        # Shared L2 banks + optional L3 + MOESI (chip: _build_l2_and_coherence).
        self.cpu_clock = ClockDomain.from_ghz("cpu", cfg.cpu.frequency_ghz)
        self.mttop_clock = ClockDomain.from_mhz("mttop",
                                                cfg.mttop.frequency_mhz)
        self._l2_hit_ps = self.cpu_clock.cycles_to_ps(
            cfg.l2.hit_latency_cpu_cycles)
        self.l2_banks = build_l2_banks(cfg, self.l2_nodes, self._l2_hit_ps,
                                       stats=self.stats)
        self.l3_level = build_l3_level(cfg, self.cpu_clock, stats=self.stats)
        self.coherence = CoherentMemorySystem(self.network, self.dram,
                                              self.l2_banks, self.memory_node,
                                              stats=self.stats,
                                              l3=self.l3_level)

        # Per-node L1 + TLB + walker + port (chip: _build_cores, minus the
        # cores themselves).
        self.ports: Dict[str, CoreMemoryPort] = {}
        cpu_l1_hit_ps = self.cpu_clock.cycles_to_ps(cfg.cpu.l1_hit_cycles)
        for node in self.cpu_nodes:
            l1 = build_ccsvm_l1(node, size_bytes=cfg.cpu.l1_size_bytes,
                                associativity=cfg.cpu.l1_associativity,
                                hit_latency_ps=cpu_l1_hit_ps,
                                replacement=cfg.cpu.l1_replacement,
                                stats=self.stats)
            self.coherence.register_l1(node, l1, cpu_l1_hit_ps)
            port = self._make_port(node, cfg.cpu.tlb_entries,
                                   fast_access_path)
            if port.tlb is not None:
                self.shootdown.register_cpu_tlb(port.tlb)
            self.ports[node] = port
        mttop_l1_hit_ps = self.mttop_clock.cycles_to_ps(
            cfg.mttop.l1_hit_cycles)
        for node in self.mttop_nodes:
            l1 = build_ccsvm_l1(node, size_bytes=cfg.mttop.l1_size_bytes,
                                associativity=cfg.mttop.l1_associativity,
                                hit_latency_ps=mttop_l1_hit_ps,
                                replacement=cfg.mttop.l1_replacement,
                                stats=self.stats)
            self.coherence.register_l1(node, l1, mttop_l1_hit_ps)
            port = self._make_port(node, cfg.mttop.tlb_entries,
                                   fast_access_path)
            if port.tlb is not None:
                self.shootdown.register_mttop_tlb(port.tlb)
            self.ports[node] = port

        self.space = self.vm.create_address_space()
        for port in self.ports.values():
            port.set_address_space(self.space)

    def _make_port(self, node: str, tlb_entries: int,
                   fast_access_path: bool) -> CoreMemoryPort:
        tlb: Optional[TLB] = None
        if self.config.tlb_enabled:
            tlb = TLB(entries=tlb_entries, stats=self.stats,
                      name=f"tlb.{node}")
        hop_ps = ns_to_ps(self.config.noc.hop_latency_ns)
        walker = PageTableWalker(
            self.physical_memory,
            default_entry_latency_ps=self._l2_hit_ps + 4 * hop_ps,
            stats=self.stats, name=f"walker.{node}")
        return CoreMemoryPort(node=node, tlb=tlb, walker=walker,
                              coherence=self.coherence,
                              physical_memory=self.physical_memory,
                              vm_manager=self.vm, stats=self.stats,
                              sc_checker=None, fast_path=fast_access_path,
                              batch_enabled=self.config.batch_access)


# --------------------------------------------------------------------------- #
# Stream walking
# --------------------------------------------------------------------------- #
def _mifd_placement(trace: Trace, simd_width: int,
                    mttop_nodes: List[str]) -> Dict[Tuple[int, int], str]:
    """Map every ``(task_seq, tid)`` to its MTTOP node.

    Replicates ``MIFD.submit_task``: tasks in submission (seq) order, each
    split into SIMD-width chunks of ascending tids, chunks assigned
    round-robin with a cursor that persists across tasks.
    """
    placement: Dict[Tuple[int, int], str] = {}
    if not trace.tasks:
        return placement
    if not mttop_nodes:
        raise TraceError("trace has device streams but the target shape "
                         "has no MTTOP cores")
    cursor = 0
    count = len(mttop_nodes)
    for seq in sorted(trace.tasks):
        tids = sorted(trace.tasks[seq])
        for start in range(0, len(tids), simd_width):
            node = mttop_nodes[cursor % count]
            cursor += 1
            for tid in tids[start:start + simd_width]:
                placement[(seq, tid)] = node
    return placement


# --------------------------------------------------------------------------- #
# Trace programs — interleave and dispatch once, replay per shape
# --------------------------------------------------------------------------- #
class _ProgramBuilder:
    """Compiles one interleaved trace into a flat replay program.

    Consecutive plain memory ops bound for the same node coalesce into
    one batch instruction (a batch is counter- and latency-identical to
    issuing its ops one by one, so coalescing is free and a batch may be
    any length); any other operation flushes the pending batch first.
    The grouping depends only on the trace (never on the hierarchy
    shape), so every shape evaluation replays the same program without
    re-interleaving streams or re-dispatching operation types.

    Instructions (plain tuples, shape-independent):

    * ``("B", node, ops)`` — a coalesced run of plain memory op tuples;
    * ``("M", size)`` / ``("F", vaddr)`` — allocator calls;
    * ``("X", node, sense_vaddr)`` — a barrier's sense read-and-flip
      (value-dependent, so it stays scalar at run time).
    """

    def __init__(self) -> None:
        self.program: List[tuple] = []
        self._pending: List[tuple] = []
        self._pending_node: Optional[str] = None

    def _flush(self) -> None:
        if self._pending:
            self.program.append(("B", self._pending_node, self._pending))
            self._pending = []

    def _push(self, node: str, op: tuple) -> None:
        if self._pending and self._pending_node != node:
            self._flush()
        self._pending_node = node
        self._pending.append(op)

    def memory_op(self, node: str, operation) -> bool:
        """Push ``operation`` if it is a plain memory op; False otherwise."""
        if isinstance(operation, Load):
            self._push(node, (OP_LOAD, operation.vaddr, 0, 0))
        elif isinstance(operation, Store):
            self._push(node, (OP_STORE, operation.vaddr, operation.value, 0))
        elif isinstance(operation, LoadVector):
            for vaddr in operation.vaddrs:
                self._push(node, (OP_LOAD, vaddr, 0, 0))
        elif isinstance(operation, StoreVector):
            for vaddr, value in zip(operation.vaddrs, operation.values):
                self._push(node, (OP_STORE, vaddr, value, 0))
        elif isinstance(operation, AtomicAdd):
            self._push(node, (OP_ATOMIC_ADD, operation.vaddr,
                              operation.delta, 0))
        elif isinstance(operation, AtomicInc):
            self._push(node, (OP_ATOMIC_ADD, operation.vaddr, 1, 0))
        elif isinstance(operation, AtomicDec):
            self._push(node, (OP_ATOMIC_ADD, operation.vaddr, -1, 0))
        elif isinstance(operation, AtomicCAS):
            self._push(node, (OP_ATOMIC_CAS, operation.vaddr,
                              operation.expected, operation.new))
        elif isinstance(operation, WaitValue):
            # One poll: the captured interleaving satisfied the wait.
            self._push(node, (OP_LOAD, operation.vaddr, 0, 0))
        else:
            return False
        return True

    def emit(self, instruction: tuple) -> None:
        self._flush()
        self.program.append(instruction)


def _compile_ccsvm(trace: Trace, simd_width: int,
                   mttop_count: int) -> List[tuple]:
    """Compile a trace against a MTTOP layout (CCSVM op set)."""
    mttop_nodes = [f"mttop{i}" for i in range(mttop_count)]
    placement = _mifd_placement(trace, simd_width, mttop_nodes)
    builder = _ProgramBuilder()
    for key, operation in trace.interleaved():
        node = (f"cpu{key[1]}" if key[0] == "h"
                else placement[(key[1], key[2])])
        if builder.memory_op(node, operation):
            continue
        if isinstance(operation, (Compute, CreateMThread)):
            continue
        if isinstance(operation, Malloc):
            builder.emit(("M", operation.size))
            continue
        if isinstance(operation, Free):
            builder.emit(("F", operation.vaddr))
            continue
        if isinstance(operation, WaitCond):
            for tid in range(operation.first_thread,
                             operation.last_thread + 1):
                builder._push(node, (OP_LOAD, cond_entry(
                    operation.condition_vaddr, tid), 0, 0))
            continue
        if isinstance(operation, SignalCond):
            # Mirrors XThreadsRuntime._cpu_signal: one store per slot.
            for tid in range(operation.first_thread,
                             operation.last_thread + 1):
                builder._push(node, (OP_STORE, cond_entry(
                    operation.condition_vaddr, tid), operation.value, 0))
            continue
        if isinstance(operation, CpuMttopBarrier):
            # The satisfied-barrier sequence: read every slot, clear every
            # slot, flip the sense word.
            for tid in range(operation.first_thread,
                             operation.last_thread + 1):
                builder._push(node, (OP_LOAD, cond_entry(
                    operation.barrier_vaddr, tid), 0, 0))
            for tid in range(operation.first_thread,
                             operation.last_thread + 1):
                builder._push(node, (OP_STORE, cond_entry(
                    operation.barrier_vaddr, tid), 0, 0))
            builder.emit(("X", node, operation.sense_vaddr))
            continue
        raise TraceError(f"cache replay cannot execute {operation!r}")
    builder._flush()
    return builder.program


def _compile_flat(trace: Trace) -> List[tuple]:
    """Compile a host-only trace (flat-memory op subset)."""
    builder = _ProgramBuilder()
    for key, operation in trace.interleaved():
        node = f"cpu{key[1]}"
        if builder.memory_op(node, operation):
            continue
        if isinstance(operation, Compute):
            continue
        if isinstance(operation, Malloc):
            builder.emit(("M", operation.size))
            continue
        if isinstance(operation, Free):
            builder.emit(("F", operation.vaddr))
            continue
        raise TraceError(f"the flat-memory replayer cannot execute "
                         f"{operation!r}")
    builder._flush()
    return builder.program


def _compiled_program(trace: Trace, key: tuple, compile_fn) -> List[tuple]:
    """The trace's compiled program for ``key``, built at most once.

    Programs depend only on the trace and the MTTOP layout — never on
    cache/TLB shape — so a DSE sweep re-interleaves and re-dispatches the
    stream exactly once, not once per design point.
    """
    programs = trace.__dict__.setdefault("_replay_programs", {})
    program = programs.get(key)
    if program is None:
        program = programs[key] = compile_fn()
    return program


def _run_program(program: List[tuple], ports: Dict[str, object],
                 batched: bool, do_malloc, do_free) -> Tuple[int, int]:
    """Execute a compiled program; returns ``(time_ps, operations)``.

    Counter- and latency-identical to issuing every op of the trace one
    by one: the program only groups them.
    """
    time_ps = 0
    operations = 0
    for ins in program:
        tag = ins[0]
        if tag == "B":
            ops = ins[2]
            port = ports[ins[1]]
            # Device streams interleave nodes op by op; runt batches are
            # cheaper as scalar port calls (identical at any split).
            if batched and len(ops) >= 4:
                _values, lats = port.run_batch(ops)
                time_ps += sum(lats)
            else:
                for op in ops:
                    time_ps += scalar_op(port, *op)[1]
            operations += len(ops)
        elif tag == "M":
            do_malloc(ins[1])
            operations += 1
        elif tag == "F":
            do_free(ins[1])
            operations += 1
        else:  # "X": barrier sense read-and-flip
            port = ports[ins[1]]
            sense, lat = port.load(ins[2])
            time_ps += lat
            time_ps += port.store(ins[2], 1 - sense)
            operations += 2
    return time_ps, operations


#: Small FIFO of parsed traces keyed by (path, mtime, size): a DSE sweep
#: hands every design point the same trace *path*, and parsing a large
#: JSON stream per point would dwarf the replay itself.
_TRACE_CACHE: Dict[tuple, Trace] = {}
_TRACE_CACHE_MAX = 8


def load_trace_cached(path: str) -> Trace:
    """Load a trace file, reusing the parsed object for an unchanged file.

    The cached :class:`Trace` also carries its compiled replay programs,
    so repeated shape evaluations of one capture skip both the JSON parse
    and the stream interleave.  Callers must not mutate the result.
    """
    st = os.stat(path)
    key = (os.path.abspath(path), st.st_mtime_ns, st.st_size)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        while len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
        trace = _TRACE_CACHE[key] = Trace.load(path)
    return trace


# --------------------------------------------------------------------------- #
# CCSVM replay
# --------------------------------------------------------------------------- #
def replay_trace(trace: Union[Trace, str],
                 config: Optional[CCSVMSystemConfig] = None,
                 engine: str = "batch") -> ReplayResult:
    """Replay a trace (object or file path) through a CCSVM hierarchy
    shape, cache-only.

    ``engine='batch'`` coalesces same-node runs of plain memory ops into
    ``port.run_batch`` calls; ``'scalar'`` issues every op through the
    per-word port methods.  Both produce identical counters and time.
    """
    if engine not in ("batch", "scalar"):
        raise TraceError(f"unknown replay engine {engine!r} "
                         "(expected 'batch' or 'scalar')")
    if isinstance(trace, str):
        trace = load_trace_cached(trace)
    hierarchy = CCSVMReplayHierarchy(config if config is not None
                                     else ccsvm_system())
    cfg = hierarchy.config
    if len(trace.hosts) > len(hierarchy.cpu_nodes):
        raise TraceError(
            f"{len(trace.hosts)} host streams exceed {cfg.cpu.count} "
            "CPU cores")
    simd = cfg.mttop.simd_width
    count = len(hierarchy.mttop_nodes)
    program = _compiled_program(
        trace, ("ccsvm", simd, count),
        lambda: _compile_ccsvm(trace, simd, count))
    vm, space = hierarchy.vm, hierarchy.space
    # The deterministic bump allocator hands back the captured run's
    # addresses, so recorded pointers stay valid.
    time_ps, operations = _run_program(
        program, hierarchy.ports, engine == "batch",
        lambda size: vm.malloc(space, size),
        lambda vaddr: vm.free(space, vaddr))
    return ReplayResult(time_ps=time_ps, operations=operations,
                        stats=hierarchy.stats)


# --------------------------------------------------------------------------- #
# Baseline (flat-memory) replay — the apu-shared-l2 family
# --------------------------------------------------------------------------- #
def replay_trace_flat(trace: Union[Trace, str],
                      config: Optional[APUSystemConfig] = None,
                      engine: str = "batch") -> ReplayResult:
    """Replay a trace's host streams through the APU cache hierarchy.

    Builds the same per-core :class:`PrivateCacheHierarchy` stacks (and
    pooled shared L2, when ``config.cpu.l2_shared``) the
    :class:`~repro.baseline.apu.AMDAPU` machine assembles, and walks host
    stream ``i`` through core ``i``'s port.  Device streams have no APU
    CPU analog, so traces with device tasks are rejected.
    """
    if engine not in ("batch", "scalar"):
        raise TraceError(f"unknown replay engine {engine!r} "
                         "(expected 'batch' or 'scalar')")
    if isinstance(trace, str):
        trace = load_trace_cached(trace)
    if config is None:
        config = amd_apu_system()
    if trace.tasks:
        raise TraceError("the flat-memory replayer takes host-only traces "
                         "(device streams have no APU CPU analog)")
    if len(trace.hosts) > config.cpu.count:
        raise TraceError(f"{len(trace.hosts)} host streams exceed "
                         f"{config.cpu.count} APU CPU cores")

    stats = StatsRegistry()
    memory = FlatMemory()
    dram = DRAMModel(config.dram.latency_ns, stats=stats, name="dram")
    shared_l2 = build_apu_shared_l2(config, stats=stats)
    ports: Dict[str, BaselineCPUPort] = {}
    for index in range(len(trace.hosts)):
        hierarchy = PrivateCacheHierarchy(
            name=f"apu_cpu{index}",
            dram=dram,
            l1_size_bytes=config.cpu.l1_size_bytes,
            l1_associativity=config.cpu.l1_associativity,
            l1_hit_ps=ns_to_ps(config.cpu.l1_hit_ns),
            l2_size_bytes=config.cpu.l2_size_bytes,
            l2_associativity=config.cpu.l2_associativity,
            l2_hit_ps=ns_to_ps(config.cpu.l2_hit_ns),
            l1_replacement=config.cpu.l1_replacement,
            l2_replacement=config.cpu.l2_replacement,
            shared_l2=shared_l2,
            stats=stats)
        ports[f"cpu{index}"] = BaselineCPUPort(memory, hierarchy)

    program = _compiled_program(trace, ("flat",),
                                lambda: _compile_flat(trace))
    # BaselineCPUCore services Malloc from the flat bump allocator without
    # touching the hierarchy (and treats Free as a no-op); mirror it for
    # state parity.
    time_ps, operations = _run_program(
        program, ports, engine == "batch",
        lambda size: memory.allocate(size),
        lambda vaddr: None)
    return ReplayResult(time_ps=time_ps, operations=operations, stats=stats)
