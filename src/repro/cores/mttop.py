"""SIMT MTTOP (GPU-like) core model.

Each MTTOP core of the CCSVM chip (Table 2) runs at 600 MHz, holds 128
hardware thread contexts and issues 8 threads simultaneously — one warp (in
NVIDIA terms) or wavefront (AMD terms) per cycle.  The model executes warps
in lockstep: every step, the next ready warp executes one operation per
unfinished lane; the warp's latency is one issue cycle plus the slowest
lane's memory latency (lanes access memory in parallel).

A core with no assigned warps *blocks* rather than finishes, because the
MIFD may assign it more tasks later; the chip requests a halt once the host
process has completed, at which point idle cores finish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cores.interpreter import (
    COMPUTE,
    OP_TABLE,
    ZERO_OUTCOME,
    OpEntry,
    OpOutcome,
    RuntimeHandler,
    ThreadContext,
)
from repro.cores.isa import Operation
from repro.errors import KernelProgramError, MIFDError
from repro.mem.batch import BatchOp
from repro.sim.clock import ClockDomain
from repro.sim.engine import Agent, StepOutcome
from repro.sim.stats import StatsRegistry


@dataclass(eq=False)
class Warp:
    """A SIMD-width chunk of threads executing in lockstep on one core."""

    warp_id: int
    lanes: List[ThreadContext] = field(default_factory=list)
    #: Lanes that still have work, in lane order.  A lane only finishes
    #: inside a step of its own warp, which calls :meth:`refresh` after it.
    active_lanes: List[ThreadContext] = field(init=False)

    def __post_init__(self) -> None:
        self.active_lanes = [lane for lane in self.lanes if not lane.finished]

    def refresh(self) -> None:
        """Drop the lanes whose programs completed during the last step."""
        self.active_lanes = [lane for lane in self.active_lanes
                             if not lane.finished]

    @property
    def finished(self) -> bool:
        """True when every lane's program has completed."""
        return not self.active_lanes


class MTTOPCore(Agent):
    """One massively-threaded throughput-oriented core."""

    def __init__(self, name: str, clock: ClockDomain, simd_width: int,
                 thread_contexts: int, memory_port,
                 runtime_handler: Optional[RuntimeHandler] = None,
                 stats: Optional[StatsRegistry] = None,
                 spin_poll_ps: int = 200_000) -> None:
        super().__init__(name)
        self.clock = clock
        self.simd_width = simd_width
        self.thread_contexts = thread_contexts
        self.memory_port = memory_port
        self.runtime_handler = runtime_handler
        self.stats = stats if stats is not None else StatsRegistry()
        self.spin_poll_ps = spin_poll_ps
        self._issue_ps = clock.period_ps
        self._lane_instructions_stat = f"{name}.lane_instructions"
        self._warp_instructions_stat = f"{name}.warp_instructions"
        self._warps_assigned_stat = f"{name}.warps_assigned"
        self._warps_retired_stat = f"{name}.warps_retired"
        self._warps: List[Warp] = []
        self._next_warp_index = 0
        self._next_warp_id = 0
        self._contexts_in_use = 0
        self._halt_requested = False
        # New cores have nothing to run; they must not stall the engine.
        self.blocked = True

    # ------------------------------------------------------------------ #
    # Task assignment (called by the MIFD)
    # ------------------------------------------------------------------ #
    @property
    def free_contexts(self) -> int:
        """Number of hardware thread contexts currently unassigned."""
        return self.thread_contexts - self._contexts_in_use

    @property
    def busy_contexts(self) -> int:
        """Number of hardware thread contexts currently assigned."""
        return self._contexts_in_use

    def assign_warp(self, lanes: List[ThreadContext], at_time_ps: int) -> Warp:
        """Install a SIMD-width chunk of threads as a new warp.

        The MIFD calls this after checking :attr:`free_contexts`; assigning
        more lanes than fit raises :class:`MIFDError`.
        """
        if not lanes:
            raise MIFDError(f"{self.name}: cannot assign an empty warp")
        if len(lanes) > self.simd_width:
            raise MIFDError(
                f"{self.name}: warp of {len(lanes)} lanes exceeds SIMD width "
                f"{self.simd_width}"
            )
        if len(lanes) > self.free_contexts:
            raise MIFDError(f"{self.name}: not enough free thread contexts")
        warp = Warp(warp_id=self._next_warp_id, lanes=list(lanes))
        self._next_warp_id += 1
        self._warps.append(warp)
        self._contexts_in_use += len(lanes)
        self.stats.add(self._warps_assigned_stat)
        self.finished = False
        self.wake(at_time_ps)
        return warp

    def request_halt(self, at_time_ps: int) -> None:
        """Ask the core to finish once it has no more warps to run."""
        self._halt_requested = True
        if self.blocked:
            self.wake(at_time_ps)

    # ------------------------------------------------------------------ #
    # Agent protocol
    # ------------------------------------------------------------------ #
    def _select_warp(self) -> Optional[Warp]:
        if not self._warps:
            return None
        count = len(self._warps)
        for offset in range(count):
            index = (self._next_warp_index + offset) % count
            warp = self._warps[index]
            if warp.active_lanes:
                self._next_warp_index = (index + 1) % count
                return warp
        return None

    def _retire_finished_warps(self) -> None:
        finished = [warp for warp in self._warps if not warp.active_lanes]
        for warp in finished:
            self._contexts_in_use -= len(warp.lanes)
            self._warps.remove(warp)
            self.stats.add(self._warps_retired_stat)
        if self._next_warp_index >= max(1, len(self._warps)):
            self._next_warp_index = 0

    def step(self) -> StepOutcome:
        self._retire_finished_warps()
        warp = self._select_warp()
        if warp is None:
            if self._halt_requested:
                return self.finish()
            return self.block()

        worst_latency, warp_issues = self._run_lanes(warp)
        warp.refresh()

        self.advance(self._issue_ps + worst_latency)
        # A vector op stands for N back-to-back warp issues.
        self.stats.add(self._warp_instructions_stat, warp_issues)
        self._retire_finished_warps()
        return StepOutcome.RAN

    def _run_lanes(self, warp: Warp) -> Tuple[int, int]:
        """One warp step: every active lane executes one operation.

        Lanes execute in lane order.  When the port has ``batch_enabled``
        (the ``batch_access`` config knob), consecutive plain memory
        operations are collected and handed to the port as one batch.  Any
        operation that may itself touch the memory port (runtime services)
        or is not batchable flushes the pending batch first, so the port
        observes the identical global operation order — which is what makes
        results bit-for-bit equal to issuing the lanes one at a time.
        Returns the slowest lane's latency and the step's warp issues.
        """
        self.memory_port.current_time_ps = self.local_time_ps
        batched = getattr(self.memory_port, "batch_enabled", False)
        table = OP_TABLE
        worst = 0
        lane_ops = 0
        warp_issues = 1
        pending: List[Tuple[ThreadContext, Operation, OpEntry]] = []
        requests: List[BatchOp] = []
        for lane in warp.active_lanes:
            operation = lane.next_operation()
            if operation is None:
                continue
            lane_ops += 1
            entry = table[type(operation)]
            if batched and entry.encode is not None:
                pending.append((lane, operation, entry))
                requests.append(entry.encode(operation))
                continue
            if pending:
                worst = max(worst, self._flush_batch(pending, requests))
                pending, requests = [], []
            latency, outcome = self._execute(lane, operation)
            lane.complete(operation, outcome)
            lane_ops += outcome.ops - 1
            warp_issues = max(warp_issues, outcome.ops)
            worst = max(worst, latency)
        if pending:
            worst = max(worst, self._flush_batch(pending, requests))
        if lane_ops:
            self.stats.add(self._lane_instructions_stat, lane_ops)
        return worst, warp_issues

    def _flush_batch(self, pending: List[Tuple[ThreadContext, Operation, OpEntry]],
                     requests: List[BatchOp]) -> int:
        """Execute and complete the pending lane memory operations.

        ``requests`` holds each pending operation's batch encoding.
        Returns the slowest of their latencies.
        """
        if len(pending) == 1:
            lane, operation, entry = pending[0]
            outcome = entry.execute(operation, self.memory_port,
                                    self.spin_poll_ps)
            lane.complete(operation, outcome)
            return outcome.latency_ps
        values, latencies = self.memory_port.run_batch(requests)
        spin_poll_ps = self.spin_poll_ps
        worst = 0
        for (lane, operation, entry), value, latency in zip(pending, values,
                                                            latencies):
            outcome = entry.finish(operation, value, latency, spin_poll_ps)
            lane.complete(operation, outcome)
            if outcome.latency_ps > worst:
                worst = outcome.latency_ps
        return worst

    # ------------------------------------------------------------------ #
    # Operation execution
    # ------------------------------------------------------------------ #
    def _execute(self, lane: ThreadContext,
                 operation) -> Tuple[int, OpOutcome]:
        """Run ``operation``; returns its latency beyond the issue cycle."""
        # current_time_ps is part of the MemoryPort protocol (defaulted by
        # every implementation), so no hasattr probe in the hot loop.
        self.memory_port.current_time_ps = self.local_time_ps
        entry = OP_TABLE[type(operation)]
        if entry.execute is not None:
            outcome = entry.execute(operation, self.memory_port,
                                    self.spin_poll_ps)
            # A vector op is N back-to-back lane operations: the step
            # charges one issue cycle, so add the other N - 1 here (same
            # accounting as Compute(n)).
            return (outcome.latency_ps + self._issue_ps * (outcome.ops - 1),
                    outcome)
        if entry is COMPUTE:
            # One operation per lane per cycle; lanes run in parallel, so a
            # Compute(n) costs n extra cycles for this lane.
            return self._issue_ps * max(0, operation.amount - 1), ZERO_OUTCOME

        if self.runtime_handler is None:
            raise KernelProgramError(
                f"{self.name} has no runtime handler for operation {operation!r}"
            )
        outcome = self.runtime_handler(self, lane, operation)
        return outcome.latency_ps, outcome
