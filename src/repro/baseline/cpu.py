"""APU CPU-core execution.

The APU's CPU cores are strong out-of-order cores (max IPC 4, Table 2).
A :class:`BaselineCPUCore` runs one thread program synchronously — there is
no need for the CCSVM engine here because baseline CPU threads never
interleave through shared-memory synchronisation mid-program; multi-threaded
runs are composed of parallel *phases* by :mod:`repro.baseline.pthreads`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.baseline.memory import FlatMemory, PrivateCacheHierarchy
from repro.cores.interpreter import (COMPUTE, FREE, MALLOC, OP_TABLE,
                                    ZERO_OUTCOME, OpOutcome, ThreadContext,
                                    ThreadProgram)
from repro.errors import KernelProgramError
from repro.mem.batch import (BatchOp, BatchResult, OP_STORE, scalar_run_batch,
                             split_ops)
from repro.sim.clock import ClockDomain
from repro.sim.stats import StatsRegistry


@dataclass(frozen=True)
class BaselineRunResult:
    """Outcome of running one program on a baseline core."""

    time_ps: int
    instructions: int

    @property
    def time_ns(self) -> float:
        """Elapsed time in nanoseconds."""
        return self.time_ps / 1_000.0


class BaselineCPUPort:
    """Memory port adapter: flat memory + a private cache hierarchy."""

    def __init__(self, memory: FlatMemory, hierarchy: PrivateCacheHierarchy) -> None:
        self.memory = memory
        self.hierarchy = hierarchy
        #: The APU baseline has no SC checker, so nothing reads this; it
        #: exists to satisfy the :class:`~repro.mem.port.MemoryPort`
        #: protocol without per-step ``hasattr`` checks in the cores.
        self.current_time_ps = 0

    def load(self, vaddr: int) -> Tuple[int, int]:
        """Load a word; returns ``(value, latency_ps)``."""
        latency = self.hierarchy.access(vaddr, is_write=False)
        return self.memory.read_word(vaddr), latency

    def store(self, vaddr: int, value: int) -> int:
        """Store a word; returns the latency."""
        latency = self.hierarchy.access(vaddr, is_write=True)
        self.memory.write_word(vaddr, value)
        return latency

    def atomic_add(self, vaddr: int, delta: int) -> Tuple[int, int]:
        """Atomic fetch-and-add (single-threaded semantics)."""
        latency = self.hierarchy.access(vaddr, is_write=True)
        old = self.memory.read_word(vaddr)
        self.memory.write_word(vaddr, old + delta)
        return old, latency

    def atomic_cas(self, vaddr: int, expected: int, new: int) -> Tuple[int, int]:
        """Atomic compare-and-swap (single-threaded semantics)."""
        latency = self.hierarchy.access(vaddr, is_write=True)
        old = self.memory.read_word(vaddr)
        if old == expected:
            self.memory.write_word(vaddr, new)
        return old, latency

    # ------------------------------------------------------------------ #
    # Batched access
    # ------------------------------------------------------------------ #
    def run_batch(self, ops: Sequence[BatchOp]) -> BatchResult:
        """Run a mixed op batch in order; see :mod:`repro.mem.batch`."""
        return scalar_run_batch(self, *split_ops(ops))

    def load_batch(self, vaddrs: Sequence[int]) -> BatchResult:
        """Load a vector of addresses; returns ``(values, latencies)``."""
        return scalar_run_batch(self, vaddrs, None, None, None)

    def store_batch(self, vaddrs: Sequence[int],
                    values: Sequence[int]) -> List[int]:
        """Store a vector of values; returns the per-op latencies."""
        return scalar_run_batch(self, vaddrs, [OP_STORE] * len(vaddrs),
                                values, None)[1]


class BaselineCPUCore:
    """One APU CPU core running thread programs to completion."""

    def __init__(self, name: str, clock: ClockDomain, cycles_per_instruction: float,
                 memory: FlatMemory, hierarchy: PrivateCacheHierarchy,
                 stats: Optional[StatsRegistry] = None,
                 malloc_ns: float = 120.0) -> None:
        self.name = name
        self.clock = clock
        self.cycles_per_instruction = cycles_per_instruction
        self.memory = memory
        self.hierarchy = hierarchy
        self.port = BaselineCPUPort(memory, hierarchy)
        self.stats = stats if stats is not None else StatsRegistry()
        self._issue_ps = clock.cycles_to_ps(cycles_per_instruction)
        self._malloc_ps = int(malloc_ns * 1_000)
        self._mallocs_stat = f"{name}.mallocs"
        self._instructions_stat = f"{name}.instructions"

    def run(self, program: ThreadProgram) -> BaselineRunResult:
        """Execute ``program`` to completion and return its time."""
        context = ThreadContext(tid=0, program=program)
        table = OP_TABLE
        issue_ps = self._issue_ps
        elapsed = 0
        instructions = 0
        while True:
            operation = context.next_operation()
            if operation is None:
                break
            instructions += 1
            elapsed += issue_ps
            entry = table[type(operation)]

            if entry.execute is not None:
                outcome = entry.execute(operation, self.port, issue_ps)
                if outcome.retry:
                    raise KernelProgramError(
                        "a single-threaded baseline program spun on a WaitValue "
                        "that can never be satisfied"
                    )
                if outcome.ops > 1:
                    # A vector operation is N instructions; one issue slot
                    # was already charged above, so add the remaining N-1.
                    extra = outcome.ops - 1
                    instructions += extra
                    elapsed += issue_ps * extra
                elapsed += outcome.latency_ps
            elif entry is COMPUTE:
                elapsed += issue_ps * max(0, operation.amount - 1)
                outcome = ZERO_OUTCOME
            elif entry is MALLOC:
                outcome = OpOutcome(value=self.memory.allocate(operation.size))
                elapsed += self._malloc_ps
                self.stats.add(self._mallocs_stat)
            elif entry is FREE:
                outcome = ZERO_OUTCOME
            else:
                raise KernelProgramError(
                    f"baseline CPU core cannot execute operation {operation!r}"
                )
            context.complete(operation, outcome)

        self.stats.add(self._instructions_stat, instructions)
        return BaselineRunResult(time_ps=elapsed, instructions=instructions)
