"""In-order CPU core model.

Table 2's simulated CCSVM system uses deliberately weak CPU cores — in-order
x86 at 2.9 GHz with a maximum IPC of 0.5 — so that any advantage the CCSVM
system shows over the APU cannot be attributed to stronger CPUs.  The core
model charges ``1 / max_ipc`` cycles of issue cost per operation plus
whatever latency the memory system returns for memory operations.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.cores.interpreter import (
    COMPUTE,
    OP_TABLE,
    ZERO_OUTCOME,
    OpOutcome,
    RuntimeHandler,
    ThreadContext,
    ThreadProgram,
)
from repro.errors import KernelProgramError
from repro.sim.clock import ClockDomain
from repro.sim.engine import Agent, StepOutcome
from repro.sim.stats import StatsRegistry

#: Callback invoked when a queued program finishes (used by the chip to know
#: when every host thread has completed).
CompletionCallback = Callable[["CPUCore", ThreadContext], None]


class CPUCore(Agent):
    """One in-order CPU core executing host thread programs."""

    def __init__(self, name: str, clock: ClockDomain, cycles_per_instruction: float,
                 memory_port, runtime_handler: Optional[RuntimeHandler] = None,
                 stats: Optional[StatsRegistry] = None,
                 spin_poll_ps: int = 200_000) -> None:
        super().__init__(name)
        self.clock = clock
        self.cycles_per_instruction = cycles_per_instruction
        self.memory_port = memory_port
        self.runtime_handler = runtime_handler
        self.stats = stats if stats is not None else StatsRegistry()
        self.spin_poll_ps = spin_poll_ps
        self._issue_ps = clock.cycles_to_ps(cycles_per_instruction)
        self._instructions_stat = f"{name}.instructions"
        self._interrupts_stat = f"{name}.interrupts"
        self._interrupt_ps_stat = f"{name}.interrupt_ps"
        self._programs_completed_stat = f"{name}.programs_completed"
        self._queue: List[Tuple[ThreadContext, Optional[CompletionCallback]]] = []
        self._current: Optional[Tuple[ThreadContext, Optional[CompletionCallback]]] = None
        self._pending_interrupt_ps = 0
        self._next_tid = 0

    # ------------------------------------------------------------------ #
    # Program management
    # ------------------------------------------------------------------ #
    def run_program(self, program: ThreadProgram,
                    on_complete: Optional[CompletionCallback] = None,
                    tid: Optional[int] = None) -> ThreadContext:
        """Queue a thread program on this core and return its context."""
        context = ThreadContext(tid=self._next_tid if tid is None else tid,
                                program=program)
        self._next_tid += 1
        self._queue.append((context, on_complete))
        self.blocked = False
        self.finished = False
        return context

    @property
    def has_work(self) -> bool:
        """True when a program is running or queued."""
        return self._current is not None or bool(self._queue)

    # ------------------------------------------------------------------ #
    # Interrupts (e.g. MTTOP page faults forwarded through the MIFD)
    # ------------------------------------------------------------------ #
    def add_interrupt_latency(self, latency_ps: int) -> None:
        """Charge this core ``latency_ps`` of interrupt-handling time.

        The time is consumed at the core's next step, modelling the core
        being diverted to run a handler on behalf of another device.
        """
        self._pending_interrupt_ps += latency_ps
        self.stats.add(self._interrupts_stat)

    # ------------------------------------------------------------------ #
    # Agent protocol
    # ------------------------------------------------------------------ #
    def step(self) -> StepOutcome:
        if self._pending_interrupt_ps:
            self.advance(self._pending_interrupt_ps)
            self.stats.add(self._interrupt_ps_stat, self._pending_interrupt_ps)
            self._pending_interrupt_ps = 0
            return StepOutcome.RAN

        if self._current is None:
            if not self._queue:
                return self.finish()
            self._current = self._queue.pop(0)

        context, on_complete = self._current
        operation = context.next_operation()
        if operation is None:
            self._current = None
            self.stats.add(self._programs_completed_stat)
            if on_complete is not None:
                on_complete(self, context)
            if not self._queue:
                return self.finish()
            return StepOutcome.RAN

        latency, outcome = self._execute(context, operation)
        context.complete(operation, outcome)
        self.advance(latency)
        self.stats.add(self._instructions_stat, outcome.ops)
        return StepOutcome.RAN

    # ------------------------------------------------------------------ #
    # Operation execution
    # ------------------------------------------------------------------ #
    def _execute(self, context: ThreadContext,
                 operation) -> Tuple[int, OpOutcome]:
        """Run ``operation``; returns its latency, issue cost included."""
        # current_time_ps is part of the MemoryPort protocol (defaulted by
        # every implementation), so no hasattr probe in the hot loop.
        self.memory_port.current_time_ps = self.local_time_ps
        entry = OP_TABLE[type(operation)]
        if entry.execute is not None:
            outcome = entry.execute(operation, self.memory_port,
                                    self.spin_poll_ps)
            # Vector operations are charged one issue slot per element,
            # exactly like the equivalent back-to-back scalar sequence.
            return outcome.latency_ps + self._issue_ps * outcome.ops, outcome
        if entry is COMPUTE:
            return self._issue_ps * max(1, operation.amount), ZERO_OUTCOME

        if self.runtime_handler is None:
            raise KernelProgramError(
                f"{self.name} has no runtime handler for operation {operation!r}"
            )
        outcome = self.runtime_handler(self, context, operation)
        return outcome.latency_ps + self._issue_ps, outcome
