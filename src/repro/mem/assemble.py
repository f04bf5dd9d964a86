"""Assemble both machines' memory systems from the ``repro.config`` shapes.

This is the one place that maps a configuration dataclass onto built
memory-hierarchy parts:

* :class:`CCSVMMemory` — the CCSVM chip's memory system (Figure 1): VM
  and physical memory, DRAM, the 2D torus NoC, the banked inclusive L2
  with its MOESI directory slices, the optional memory-side L3, and one
  :class:`~repro.mem.port.CoreMemoryPort` (L1, TLB, walker) per CPU and
  MTTOP node.  :class:`~repro.core.chip.CCSVMChip` extends it with cores,
  engine, MIFD and runtime; cache-only replay
  (:func:`~repro.mem.replay.replay_trace`) drives a bare one.  Both share
  every node name, cache geometry, walker latency and counter by
  construction.
* :func:`build_apu_cpu_hierarchies` — the APU CPU cores' hierarchies
  (private L2s, or one pooled L2 shared by all cores), used by
  :class:`~repro.baseline.apu.AMDAPU` and
  :func:`~repro.mem.replay.replay_trace_flat`.

A new hierarchy shape is therefore a config change — reachable by
dotted-path overrides — not a new code path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baseline.memory import PrivateCacheHierarchy
from repro.coherence.directory import Directory
from repro.coherence.protocol import CoherentMemorySystem, L2Bank
from repro.config import APUSystemConfig, CCSVMSystemConfig, ConfigurationError
from repro.core.consistency import SequentialConsistencyChecker
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import Torus2DTopology
from repro.mem.levels import CacheLevel, LevelSpec, build_cache
from repro.mem.port import CoreMemoryPort
from repro.memory.dram import DRAMModel
from repro.memory.physical import FrameAllocator, PhysicalMemory
from repro.sim.clock import ClockDomain, ns_to_ps
from repro.sim.stats import StatsRegistry
from repro.vm.manager import VirtualMemoryManager
from repro.vm.shootdown import TLBShootdownController
from repro.vm.tlb import TLB
from repro.vm.walker import PageTableWalker


# --------------------------------------------------------------------------- #
# CCSVM chip
# --------------------------------------------------------------------------- #
class CCSVMMemory:
    """The CCSVM chip's memory system, without cores, engine or runtime.

    One :class:`CoreMemoryPort` exists per cpu/mttop node, in
    ``ports`` (CPU nodes first, then MTTOP nodes, in index order).  No
    address space is loaded into them: the chip loads its process's CR3
    when it creates the process, the replayer when it starts a replay.
    """

    def __init__(self, config: CCSVMSystemConfig, stats: StatsRegistry,
                 sc_checker: Optional[SequentialConsistencyChecker] = None
                 ) -> None:
        if config.mttop.write_through:
            # The config field exists (the paper discusses write-through
            # MTTOP L1s as an open challenge, Section 6.1) but every
            # modeled transaction path assumes write-back caches (Section
            # 3.2.2).  Refuse to build rather than silently simulate the
            # wrong machine.
            raise ConfigurationError(
                "mttop.write_through=true is not modeled: the simulated "
                "CCSVM chip implements write-back MTTOP L1s only (paper "
                "Section 3.2.2); write-through L1s are an unimplemented "
                "feature")
        self.config = config
        self.stats = stats
        self.sc_checker = sc_checker
        self._build_memory()
        self._build_interconnect()
        self._build_l2_and_coherence()
        self._build_ports()

    def _build_memory(self) -> None:
        cfg = self.config
        self.physical_memory = PhysicalMemory(cfg.dram.size_bytes)
        self.frames = FrameAllocator(cfg.dram.size_bytes)
        self.vm = VirtualMemoryManager(self.physical_memory, self.frames,
                                       stats=self.stats)
        self.dram = DRAMModel(cfg.dram.latency_ns, stats=self.stats, name="dram")
        self.shootdown = TLBShootdownController(stats=self.stats)

    def _build_interconnect(self) -> None:
        cfg = self.config
        self.cpu_nodes = [f"cpu{i}" for i in range(cfg.cpu.count)]
        self.mttop_nodes = [f"mttop{i}" for i in range(cfg.mttop.count)]
        self.l2_nodes = [f"l2b{i}" for i in range(cfg.l2.banks)]
        self.memory_node = "mem0"
        all_nodes = self.cpu_nodes + self.mttop_nodes + self.l2_nodes + [self.memory_node]
        self.topology = Torus2DTopology.fit(all_nodes)
        self.network = NetworkModel(self.topology,
                                    link_bandwidth_gbps=cfg.noc.link_bandwidth_gbps,
                                    per_hop_latency_ns=cfg.noc.hop_latency_ns,
                                    stats=self.stats)

    def _build_l2_and_coherence(self) -> None:
        """The banked inclusive L2 (one directory slice per bank), the
        optional memory-side L3 and the MOESI controller over them."""
        cfg = self.config
        self.cpu_clock = ClockDomain.from_ghz("cpu", cfg.cpu.frequency_ghz)
        self.mttop_clock = ClockDomain.from_mhz("mttop", cfg.mttop.frequency_mhz)
        self._l2_hit_ps = self.cpu_clock.cycles_to_ps(cfg.l2.hit_latency_cpu_cycles)

        l2_spec = LevelSpec(label="l2", size_bytes=cfg.l2.bank_size_bytes,
                            associativity=cfg.l2.associativity,
                            hit_latency_ps=self._l2_hit_ps,
                            replacement=cfg.l2.replacement)
        self.l2_banks: List[L2Bank] = [
            L2Bank(name=node,
                   cache=build_cache(l2_spec, f"l2.bank{index}", stats=self.stats),
                   directory=Directory(name=f"dir{index}"),
                   hit_latency_ps=self._l2_hit_ps)
            for index, node in enumerate(self.l2_nodes)]
        self.l3_level: Optional[CacheLevel] = None
        if cfg.l3.enabled:
            self.l3_level = CacheLevel(LevelSpec(
                label="l3", size_bytes=cfg.l3.total_size_bytes,
                associativity=cfg.l3.associativity,
                hit_latency_ps=self.cpu_clock.cycles_to_ps(
                    cfg.l3.hit_latency_cpu_cycles),
                replacement=cfg.l3.replacement), name="l3", stats=self.stats)
        self.coherence = CoherentMemorySystem(self.network, self.dram,
                                              self.l2_banks, self.memory_node,
                                              stats=self.stats,
                                              l3=self.l3_level)

    def _build_ports(self) -> None:
        """Each node's L1 (registered with the directory), TLB, walker and
        port; TLBs are registered with the shootdown controller."""
        cfg = self.config
        hop_ps = ns_to_ps(cfg.noc.hop_latency_ns)
        self.ports: Dict[str, CoreMemoryPort] = {}
        for nodes, core, clock, register_tlb in (
                (self.cpu_nodes, cfg.cpu, self.cpu_clock,
                 self.shootdown.register_cpu_tlb),
                (self.mttop_nodes, cfg.mttop, self.mttop_clock,
                 self.shootdown.register_mttop_tlb)):
            l1_hit_ps = clock.cycles_to_ps(core.l1_hit_cycles)
            l1_spec = LevelSpec(label="l1", size_bytes=core.l1_size_bytes,
                                associativity=core.l1_associativity,
                                hit_latency_ps=l1_hit_ps,
                                replacement=core.l1_replacement)
            for node in nodes:
                # The L1 is registered before the port exists: the port
                # binds its fused hit path to it on construction.
                self.coherence.register_l1(
                    node, build_cache(l1_spec, f"l1d.{node}", stats=self.stats),
                    l1_hit_ps)
                tlb: Optional[TLB] = None
                if cfg.tlb_enabled:
                    tlb = TLB(entries=core.tlb_entries, stats=self.stats,
                              name=f"tlb.{node}")
                    register_tlb(tlb)
                walker = PageTableWalker(
                    self.physical_memory,
                    default_entry_latency_ps=self._l2_hit_ps + 4 * hop_ps,
                    stats=self.stats, name=f"walker.{node}")
                self.ports[node] = CoreMemoryPort(
                    node=node, tlb=tlb, walker=walker, coherence=self.coherence,
                    physical_memory=self.physical_memory, vm_manager=self.vm,
                    stats=self.stats, sc_checker=self.sc_checker,
                    batch_enabled=cfg.batch_access)


# --------------------------------------------------------------------------- #
# APU baseline
# --------------------------------------------------------------------------- #
def build_apu_cpu_hierarchies(config: APUSystemConfig, dram: DRAMModel,
                              stats: StatsRegistry
                              ) -> List[PrivateCacheHierarchy]:
    """One private cache hierarchy per APU CPU core, in core order.

    Each core's L1 sits either on its own private L2 (Table 2) or on one
    pooled L2 level every core shares (the apu-shared-l2 preset).
    """
    cpu = config.cpu
    shared_l2: Optional[CacheLevel] = None
    if cpu.l2_shared and cpu.l2_size_bytes:
        shared_l2 = CacheLevel(LevelSpec(
            label="l2", size_bytes=cpu.l2_size_bytes,
            associativity=cpu.l2_associativity,
            hit_latency_ps=ns_to_ps(cpu.l2_hit_ns),
            replacement=cpu.l2_replacement), name="apu_cpu_shared.l2",
            stats=stats)
    return [PrivateCacheHierarchy(
        name=f"apu_cpu{index}", dram=dram,
        l1_size_bytes=cpu.l1_size_bytes,
        l1_associativity=cpu.l1_associativity,
        l1_hit_ps=ns_to_ps(cpu.l1_hit_ns),
        l2_size_bytes=cpu.l2_size_bytes,
        l2_associativity=cpu.l2_associativity,
        l2_hit_ps=ns_to_ps(cpu.l2_hit_ns),
        l1_replacement=cpu.l1_replacement,
        l2_replacement=cpu.l2_replacement,
        shared_l2=shared_l2, stats=stats)
        for index in range(cpu.count)]
