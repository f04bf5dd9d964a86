"""System configurations, including the two systems of Table 2.

Two presets mirror the paper's Table 2:

* :func:`ccsvm_system` — the simulated CCSVM chip: 4 in-order x86 CPU cores
  (2.9 GHz, max IPC 0.5), 10 MTTOP cores (600 MHz, 8-wide, 128 thread
  contexts), per-core 64 KiB / 16 KiB L1s and 64-entry TLBs, a shared
  inclusive 4 MiB L2 in four banks with an embedded directory, a 2D torus
  with 12 GB/s links and 2 GiB of DRAM at 100 ns.
* :func:`amd_apu_system` — the AMD A8-3850 "Llano" APU: 4 out-of-order CPU
  cores (max IPC 4) with private 1 MiB L2s, a Radeon GPU with 5 SIMD units of
  16 VLIW lanes, 8 GiB DDR3 at 72 ns, plus the OpenCL runtime cost structure
  (compilation, initialisation, buffer DMA, per-launch driver overhead).

Smaller variants (:func:`small_ccsvm_system`) keep the same structure with
fewer cores and smaller caches so unit tests run quickly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Mapping  # noqa: F401 - used in quoted annotations

from repro.errors import ConfigurationError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


# --------------------------------------------------------------------------- #
# CCSVM chip configuration
# --------------------------------------------------------------------------- #
_REPLACEMENT_POLICIES = ("lru", "plru", "random")


def _check_replacement(policy: str, where: str) -> None:
    if policy.lower() not in _REPLACEMENT_POLICIES:
        raise ConfigurationError(
            f"{where}: unknown replacement policy {policy!r}; "
            f"expected one of {', '.join(_REPLACEMENT_POLICIES)}")


@dataclass(frozen=True)
class CPUCoreConfig:
    """Configuration of the CCSVM chip's CPU cores."""

    count: int = 4
    frequency_ghz: float = 2.9
    max_ipc: float = 0.5
    l1_size_bytes: int = 64 * KB
    l1_associativity: int = 4
    l1_hit_cycles: int = 2
    l1_replacement: str = "lru"
    tlb_entries: int = 64

    def __post_init__(self) -> None:
        if self.count <= 0 or self.max_ipc <= 0:
            raise ConfigurationError("CPU core count and IPC must be positive")
        _check_replacement(self.l1_replacement, "cpu.l1_replacement")

    @property
    def cycles_per_instruction(self) -> float:
        """Average issue cost of one instruction in cycles (1 / max IPC)."""
        return 1.0 / self.max_ipc


@dataclass(frozen=True)
class MTTOPCoreConfig:
    """Configuration of the CCSVM chip's MTTOP (GPU-like) cores."""

    count: int = 10
    frequency_mhz: float = 600.0
    simd_width: int = 8
    thread_contexts: int = 128
    l1_size_bytes: int = 16 * KB
    l1_associativity: int = 4
    l1_hit_cycles: int = 1
    l1_replacement: str = "lru"
    tlb_entries: int = 64
    #: L1 write policy; the paper assumes write-back caches (Section 3.2.2)
    #: and discusses write-through as an open challenge (Section 6.1).
    write_through: bool = False

    def __post_init__(self) -> None:
        if self.simd_width <= 0 or self.thread_contexts <= 0:
            raise ConfigurationError("MTTOP SIMD width and contexts must be positive")
        if self.thread_contexts % self.simd_width != 0:
            raise ConfigurationError("thread contexts must be a multiple of the SIMD width")
        _check_replacement(self.l1_replacement, "mttop.l1_replacement")

    @property
    def total_thread_contexts(self) -> int:
        """Thread contexts across all MTTOP cores."""
        return self.count * self.thread_contexts

    @property
    def max_operations_per_cycle(self) -> int:
        """Chip-wide peak MTTOP operations per cycle (80 in Table 2)."""
        return self.count * self.simd_width


@dataclass(frozen=True)
class SharedL2Config:
    """Configuration of the shared, inclusive, banked L2 with its directory."""

    total_size_bytes: int = 4 * MB
    banks: int = 4
    associativity: int = 16
    hit_latency_cpu_cycles: int = 10
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.banks <= 0 or self.total_size_bytes % self.banks != 0:
            raise ConfigurationError("L2 size must divide evenly across banks")
        _check_replacement(self.replacement, "l2.replacement")

    @property
    def bank_size_bytes(self) -> int:
        """Capacity of each bank."""
        return self.total_size_bytes // self.banks


@dataclass(frozen=True)
class SharedL3Config:
    """Optional memory-side L3 between the L2 banks and DRAM.

    Disabled in the paper's Table 2 machine (``enabled=False`` keeps the
    transaction paths byte-identical to the two-level chip); the
    ``ccsvm-l3`` preset — or a ``--set l3.enabled=true`` override on any
    CCSVM preset — switches it on.
    """

    enabled: bool = False
    total_size_bytes: int = 16 * MB
    associativity: int = 16
    hit_latency_cpu_cycles: int = 30
    replacement: str = "lru"

    def __post_init__(self) -> None:
        _check_replacement(self.replacement, "l3.replacement")


@dataclass(frozen=True)
class DRAMConfig:
    """Off-chip memory configuration."""

    size_bytes: int = 2 * GB
    latency_ns: float = 100.0


@dataclass(frozen=True)
class NoCConfig:
    """On-chip network configuration (2D torus for the CCSVM chip)."""

    link_bandwidth_gbps: float = 12.0
    hop_latency_ns: float = 1.0


@dataclass(frozen=True)
class CCSVMSystemConfig:
    """The full simulated CCSVM system (left column of Table 2)."""

    name: str = "ccsvm"
    cpu: CPUCoreConfig = field(default_factory=CPUCoreConfig)
    mttop: MTTOPCoreConfig = field(default_factory=MTTOPCoreConfig)
    l2: SharedL2Config = field(default_factory=SharedL2Config)
    l3: SharedL3Config = field(default_factory=SharedL3Config)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    noc: NoCConfig = field(default_factory=NoCConfig)
    #: Hierarchy shape: ``False`` removes the per-core TLBs entirely, so
    #: every access pays a hardware page-table walk (the ``ccsvm-no-tlb``
    #: ablation shape).
    tlb_enabled: bool = True
    #: Cost (ns) of the write syscall used to hand a task to the MIFD.
    mifd_syscall_ns: float = 1_000.0
    #: MIFD processing cost per task chunk assignment.
    mifd_dispatch_ns: float = 200.0
    #: Polling interval used by spin-wait synchronisation primitives.
    spin_poll_ns: float = 200.0
    #: Host-side optimisation: MTTOP cores hand a warp's lane memory ops
    #: to their port as one batch (:mod:`repro.mem.batch`).  Results are
    #: bit-for-bit identical either way; ``False`` issues the lanes one at
    #: a time (``--set batch_access=false``).
    batch_access: bool = True

    @property
    def total_cores(self) -> int:
        """CPU plus MTTOP core count."""
        return self.cpu.count + self.mttop.count


# --------------------------------------------------------------------------- #
# AMD APU (baseline) configuration
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class APUCPUConfig:
    """The APU's out-of-order x86 cores (right column of Table 2)."""

    count: int = 4
    frequency_ghz: float = 2.9
    max_ipc: float = 4.0
    l1_size_bytes: int = 64 * KB
    l1_associativity: int = 4
    l1_hit_ns: float = 1.0
    l1_replacement: str = "lru"
    l2_size_bytes: int = 1 * MB
    l2_associativity: int = 16
    l2_hit_ns: float = 3.6
    l2_replacement: str = "lru"
    #: Hierarchy shape: ``True`` pools the per-core private L2s into one
    #: L2 of ``l2_size_bytes`` shared by every CPU core (the
    #: ``apu-shared-l2`` preset).
    l2_shared: bool = False
    tlb_entries: int = 1024

    def __post_init__(self) -> None:
        _check_replacement(self.l1_replacement, "cpu.l1_replacement")
        _check_replacement(self.l2_replacement, "cpu.l2_replacement")

    @property
    def cycles_per_instruction(self) -> float:
        """Average issue cost of one instruction in cycles (1 / max IPC)."""
        return 1.0 / self.max_ipc


@dataclass(frozen=True)
class APUGPUConfig:
    """The APU's Radeon GPU: 5 SIMD units of 16 VLIW lanes at 600 MHz."""

    simd_units: int = 5
    vliw_lanes: int = 16
    frequency_mhz: float = 600.0
    #: Average operations packed per VLIW instruction (1 = worst, 4 = best).
    #: Table 2: at full VLIW utilisation the APU GPU has 4x the throughput of
    #: the simulated MTTOP; at minimum utilisation they are equal.
    vliw_utilization: float = 2.0
    local_memory_bytes: int = 32 * KB
    #: Number of consecutive word accesses the GPU can coalesce into one
    #: DRAM transaction (the APU's GPU, unlike its CPU, coalesces strided
    #: accesses — Section 5.1 of the paper).
    coalesce_width: int = 8

    @property
    def max_operations_per_cycle(self) -> float:
        """Peak operations per cycle across the GPU."""
        return self.simd_units * self.vliw_lanes * self.vliw_utilization

    @property
    def lanes(self) -> int:
        """Total scalar lanes (SIMD units x VLIW lanes)."""
        return self.simd_units * self.vliw_lanes


@dataclass(frozen=True)
class OpenCLRuntimeConfig:
    """Cost structure of the OpenCL runtime used on the APU.

    The paper reports APU results both with and without "compilation and
    OpenCL initialization code", so those two components are separately
    configurable.  The remaining costs model the per-launch driver work and
    the DMA transfers between the CPU and GPU virtual address spaces.
    """

    compile_time_ms: float = 150.0
    init_time_ms: float = 40.0
    buffer_create_us: float = 20.0
    map_unmap_us: float = 8.0
    kernel_launch_us: float = 30.0
    kernel_finish_us: float = 15.0
    dma_setup_us: float = 5.0
    dma_bandwidth_gbps: float = 8.0
    #: The Fusion Control Link provides coherent CPU<->GPU communication at
    #: reduced bandwidth (Section 2.3).
    fcl_bandwidth_gbps: float = 2.0
    fcl_latency_ns: float = 300.0
    #: Off-chip traffic generated by the runtime itself (JIT compilation,
    #: context creation, per-launch driver/command-queue work).  The paper
    #: measures the APU with hardware performance counters over the whole
    #: program, so this traffic is part of its Figure 9 numbers.
    compile_dram_kb: int = 2048
    init_dram_kb: int = 512
    launch_dram_kb: int = 48


@dataclass(frozen=True)
class APUSystemConfig:
    """The AMD A8-3850 Llano APU baseline (right column of Table 2)."""

    name: str = "amd_apu"
    cpu: APUCPUConfig = field(default_factory=APUCPUConfig)
    gpu: APUGPUConfig = field(default_factory=APUGPUConfig)
    opencl: OpenCLRuntimeConfig = field(default_factory=OpenCLRuntimeConfig)
    dram: DRAMConfig = field(default_factory=lambda: DRAMConfig(size_bytes=8 * GB,
                                                                latency_ns=72.0))
    #: pthreads thread create/join overhead for the multi-threaded CPU runs.
    pthread_spawn_us: float = 12.0
    pthread_join_us: float = 6.0
    pthread_barrier_us: float = 3.0


# --------------------------------------------------------------------------- #
# Presets
# --------------------------------------------------------------------------- #
def ccsvm_system() -> CCSVMSystemConfig:
    """The simulated CCSVM system exactly as configured in Table 2."""
    return CCSVMSystemConfig()


def amd_apu_system() -> APUSystemConfig:
    """The AMD A8-3850 APU baseline exactly as configured in Table 2."""
    return APUSystemConfig()


def small_ccsvm_system(cpu_cores: int = 1, mttop_cores: int = 2,
                       thread_contexts: int = 32) -> CCSVMSystemConfig:
    """A scaled-down CCSVM chip for fast unit tests.

    The structure (coherence protocol, torus, MIFD, xthreads) is identical;
    only core counts and cache sizes shrink so tests exercising the full
    stack finish in milliseconds.
    """
    base = ccsvm_system()
    return replace(
        base,
        name="ccsvm_small",
        cpu=replace(base.cpu, count=cpu_cores, l1_size_bytes=8 * KB),
        mttop=replace(base.mttop, count=mttop_cores, thread_contexts=thread_contexts,
                      l1_size_bytes=4 * KB),
        l2=replace(base.l2, total_size_bytes=256 * KB, banks=2),
        dram=replace(base.dram, size_bytes=64 * MB),
    )


def ccsvm_l3_system() -> CCSVMSystemConfig:
    """The CCSVM chip with a 16 MiB memory-side L3 under the L2 banks.

    A hierarchy-*shape* variant: L2 fills check the L3 before going
    off-chip and dirty L2 victims land in it, so Figure-9-style DRAM
    access counts drop for working sets between 4 MiB and 16 MiB.
    """
    base = ccsvm_system()
    return replace(base, name="ccsvm_l3",
                   l3=replace(base.l3, enabled=True))


def ccsvm_no_tlb_system() -> CCSVMSystemConfig:
    """The CCSVM chip with per-core TLBs removed entirely.

    Every access pays a hardware page-table walk; the shape isolates how
    much of the chip's tightly-coupled advantage depends on translation
    caching (the paper's Section 3.2.1 design point, taken to zero).
    """
    return replace(ccsvm_system(), name="ccsvm_no_tlb", tlb_enabled=False)


def apu_shared_l2_system() -> APUSystemConfig:
    """The APU with its four private 1 MiB L2s pooled into one shared 4 MiB L2.

    A hierarchy-shape variant of the baseline: each core keeps its private
    L1, but all cores fill and evict in one shared L2 level, so pthreads
    phases contend for (and share) its capacity.
    """
    base = amd_apu_system()
    return replace(base, name="amd_apu_shared_l2",
                   cpu=replace(base.cpu, l2_shared=True,
                               l2_size_bytes=4 * MB))


def tiny_caches_ccsvm_system() -> CCSVMSystemConfig:
    """A CCSVM chip with deliberately tiny caches to force evictions.

    Used by tests that need to exercise L1/L2 capacity evictions, inclusive
    back-invalidation and writeback paths without huge footprints.
    """
    base = small_ccsvm_system()
    return replace(
        base,
        name="ccsvm_tiny_caches",
        cpu=replace(base.cpu, l1_size_bytes=1 * KB),
        mttop=replace(base.mttop, l1_size_bytes=1 * KB),
        l2=replace(base.l2, total_size_bytes=8 * KB, banks=2),
    )


# --------------------------------------------------------------------------- #
# Dotted-path overrides
# --------------------------------------------------------------------------- #
class OverrideError(ConfigurationError):
    """A dotted-path configuration override could not be applied."""


_SIZE_SUFFIXES = {
    "kib": 1024, "mib": 1024 ** 2, "gib": 1024 ** 3,
    "k": 1024, "m": 1024 ** 2, "g": 1024 ** 3,
    "kb": 1000, "mb": 1000 ** 2, "gb": 1000 ** 3,
}

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def parse_size(text: str) -> int:
    """Parse ``"8MiB"``-style sizes (also ``KiB``/``GiB``, ``K``/``M``/``G``,
    and decimal ``KB``/``MB``/``GB``) into a byte count."""
    stripped = text.strip()
    lowered = stripped.lower()
    for suffix in sorted(_SIZE_SUFFIXES, key=len, reverse=True):
        if lowered.endswith(suffix):
            number = stripped[: -len(suffix)].strip()
            try:
                return int(round(float(number) * _SIZE_SUFFIXES[suffix]))
            except ValueError:
                break
    return int(stripped)


def _coerce_override(value: object, current: object, path: str) -> object:
    """Coerce ``value`` (possibly a CLI string) to ``current``'s type."""
    if isinstance(current, bool):
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in _TRUE_WORDS:
                return True
            if lowered in _FALSE_WORDS:
                return False
        raise OverrideError(
            f"override {path}: expected a boolean "
            f"({'/'.join(_TRUE_WORDS)} or {'/'.join(_FALSE_WORDS)}), "
            f"got {value!r}")
    if isinstance(current, int):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, str):
            try:
                return parse_size(value)
            except ValueError:
                pass
        raise OverrideError(
            f"override {path}: expected an integer "
            f"(sizes may use KiB/MiB/GiB suffixes), got {value!r}")
    if isinstance(current, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        raise OverrideError(f"override {path}: expected a number, got {value!r}")
    if isinstance(current, str):
        if isinstance(value, str):
            return value
        raise OverrideError(f"override {path}: expected a string, got {value!r}")
    raise OverrideError(
        f"override {path}: field of type {type(current).__name__} "
        "cannot be overridden from a dotted path")


def _replace_path(config: object, segments: "list[str]", value: object,
                  path: str):
    head, rest = segments[0], segments[1:]
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        raise OverrideError(
            f"override {path}: {type(config).__name__} is not a "
            "configuration dataclass")
    names = [f.name for f in dataclasses.fields(config)]
    if head not in names:
        raise OverrideError(
            f"override {path}: {type(config).__name__} has no field "
            f"{head!r}; available fields: {', '.join(names)}")
    current = getattr(config, head)
    if rest:
        if not dataclasses.is_dataclass(current) or isinstance(current, type):
            raise OverrideError(
                f"override {path}: {head!r} is a plain "
                f"{type(current).__name__} value, not a nested section")
        new = _replace_path(current, rest, value, path)
    elif dataclasses.is_dataclass(current) and not isinstance(current, type):
        if type(value) is not type(current):
            raise OverrideError(
                f"override {path}: {head!r} is a nested "
                f"{type(current).__name__} section; override one of its "
                "fields (e.g. "
                f"{path}.{dataclasses.fields(current)[0].name}) or supply a "
                f"{type(current).__name__} instance")
        new = value
    else:
        new = _coerce_override(value, current, path)
    return replace(config, **{head: new})


def apply_overrides(config, overrides: "Mapping[str, object]"):
    """Rebuild a frozen configuration dataclass with dotted-path overrides.

    ``overrides`` maps dotted paths to new values, e.g.
    ``{"mttop.count": 20, "l2.total_size_bytes": "8MiB"}`` on a
    :class:`CCSVMSystemConfig`.  String values are coerced to the field's
    current type (integers understand ``KiB``/``MiB``/``GiB`` suffixes),
    and the dataclasses' own ``__post_init__`` validation still runs, so an
    override that produces an inconsistent system fails loudly.  Unknown
    paths and type mismatches raise :class:`OverrideError` naming the path
    and the valid alternatives.
    """
    for path in sorted(overrides):
        segments = [part for part in path.split(".") if part]
        if not segments:
            raise OverrideError(f"override path {path!r} is empty")
        config = _replace_path(config, segments, overrides[path], path)
    return config


def override_applies(config, path: str) -> bool:
    """True when the *whole* dotted ``path`` resolves on ``config``.

    Every intermediate segment must name a nested-dataclass field and the
    leaf must name a field of its section.  Used to decide which of a
    scenario's overrides apply to which system: ``mttop.count`` applies to
    the CCSVM chip but not to the APU baseline, and ``cpu.l1_hit_cycles``
    applies to the CCSVM chip but not to the APU — whose ``cpu`` section
    exists but has differently-named timing fields.
    """
    segments = [part for part in path.split(".") if part]
    if not segments:
        return False
    node = config
    for segment in segments[:-1]:
        if not dataclasses.is_dataclass(node) or isinstance(node, type) or \
                segment not in {f.name for f in dataclasses.fields(node)}:
            return False
        node = getattr(node, segment)
    if not dataclasses.is_dataclass(node) or isinstance(node, type):
        return False
    return segments[-1] in {f.name for f in dataclasses.fields(node)}
