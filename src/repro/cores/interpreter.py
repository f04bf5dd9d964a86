"""Shared machinery for executing thread programs, and the operation table.

Every interpreter loop in the package — the CCSVM chip's CPU and MTTOP
cores, the APU baseline's CPU core and GPU model, and the functional
reference executor of the Barnes-Hut workload — drives a thread program the
same way: resume the generator, get an operation, execute it, and send the
result back in.  The loops differ only in timing and in which operations
they accept.

Operations are dispatched through :data:`OP_TABLE`, one dict keyed by
``type(operation)``.  Each memory-operation class has one
:class:`OpEntry` holding both its scalar executor (one call against a
memory port) and its batch encoding (how the MTTOP warp loop adds it to a
mixed batch, and how that batch's result becomes the same outcome the
executor would have produced).  :class:`~repro.cores.isa.Compute`,
:class:`~repro.cores.isa.Malloc` and :class:`~repro.cores.isa.Free` have
entries with neither (:data:`COMPUTE`, :data:`MALLOC`, :data:`FREE`), which
the loops recognise by identity; every other operation, such as the xthreads
runtime services, maps to :data:`RUNTIME`.

A subclass of an operation class dispatches as that class, as ``isinstance``
would: the first lookup of a type the table does not hold walks the type's
MRO to the nearest class it does hold, and caches that entry under the
subclass.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

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
    Operation,
    Store,
    StoreVector,
    WaitValue,
)
from repro.errors import KernelProgramError
from repro.mem.batch import (OP_ATOMIC_ADD, OP_ATOMIC_CAS, OP_LOAD, OP_STORE,
                             BatchOp)

#: A thread program: a generator yielding operations and receiving results.
ThreadProgram = Generator[Operation, object, None]


class OpOutcome:
    """Result of executing (or attempting) one operation.

    ``retry`` means the operation did not complete (a spin-wait whose
    condition is not yet true) and must be re-executed on the lane's next
    turn; the latency charged covers the poll that was performed.

    ``ops`` is how many scalar operations this outcome stands for: 1 for
    everything except the vector memory operations, which count (and are
    charged issue cost) as one instruction per element.

    Outcomes are never modified after construction, so one instance (such
    as :data:`ZERO_OUTCOME`) may be handed to any number of threads.
    """

    __slots__ = ("latency_ps", "value", "retry", "ops")

    def __init__(self, latency_ps: int = 0, value: object = None,
                 retry: bool = False, ops: int = 1) -> None:
        self.latency_ps = latency_ps
        self.value = value
        self.retry = retry
        self.ops = ops


#: The outcome of an operation that takes no time and returns nothing.
ZERO_OUTCOME = OpOutcome()


class ThreadContext:
    """Execution state of one software thread (one SIMT lane or CPU thread)."""

    __slots__ = ("tid", "program", "finished", "pending_op", "next_send",
                 "operations_executed")

    def __init__(self, tid: int, program: ThreadProgram, finished: bool = False,
                 pending_op: Optional[Operation] = None,
                 next_send: object = None, operations_executed: int = 0) -> None:
        self.tid = tid
        self.program = program
        self.finished = finished
        #: Operation to retry before pulling the next one from the generator.
        self.pending_op = pending_op
        #: Value to send into the generator on the next resume.
        self.next_send = next_send
        #: Count of operations this thread has completed (for tests/stats).
        self.operations_executed = operations_executed

    def next_operation(self) -> Optional[Operation]:
        """Return the operation this thread should execute next.

        Returns the pending (retried) operation if there is one, otherwise
        resumes the generator.  Returns ``None`` when the program is done.
        """
        if self.finished:
            return None
        if self.pending_op is not None:
            return self.pending_op
        try:
            operation = self.program.send(self.next_send)
        except StopIteration:
            self.finished = True
            return None
        self.next_send = None
        if not isinstance(operation, Operation):
            raise KernelProgramError(
                f"thread {self.tid} yielded {operation!r}, which is not an Operation"
            )
        return operation

    def complete(self, operation: Operation, outcome: OpOutcome) -> None:
        """Record the outcome of ``operation`` (retry or completion)."""
        if outcome.retry:
            self.pending_op = operation
            return
        self.pending_op = None
        self.next_send = outcome.value
        self.operations_executed += outcome.ops


#: Handler for operations the core itself does not know how to execute
#: (allocation, task creation, CPU/MTTOP synchronisation primitives, ...).
#: Receives the issuing core, the lane and the operation.
RuntimeHandler = Callable[[object, ThreadContext, Operation], OpOutcome]


# --------------------------------------------------------------------------- #
# The operation table
# --------------------------------------------------------------------------- #
class OpEntry:
    """How the interpreter loops execute one operation class.

    ``execute(operation, port, spin_poll_ps)`` runs a memory operation
    against a memory port and returns its :class:`OpOutcome`.
    ``encode(operation)`` returns its ``(kind, vaddr, a, b)`` batch op, and
    ``finish(operation, value, latency_ps, spin_poll_ps)`` turns that op's
    batch result into the outcome ``execute`` would have returned.  Vector
    operations have no encoding (they batch internally through
    ``load_batch``/``store_batch``); non-memory entries have none of the
    three.
    """

    __slots__ = ("execute", "encode", "finish")

    def __init__(self, execute: Optional[Callable] = None,
                 encode: Optional[Callable[[Operation], BatchOp]] = None,
                 finish: Optional[Callable] = None) -> None:
        self.execute = execute
        self.encode = encode
        self.finish = finish


def _finish_value(operation, value, latency_ps, spin_poll_ps) -> OpOutcome:
    return OpOutcome(latency_ps, value)


def _finish_store(operation, value, latency_ps, spin_poll_ps) -> OpOutcome:
    return OpOutcome(latency_ps)


def _finish_wait(operation, value, latency_ps, spin_poll_ps) -> OpOutcome:
    satisfied = (value != operation.value) if operation.negate \
        else (value == operation.value)
    if satisfied:
        return OpOutcome(latency_ps, value)
    return OpOutcome(latency_ps + spin_poll_ps, retry=True)


def _load(operation, port, spin_poll_ps) -> OpOutcome:
    value, latency = port.load(operation.vaddr)
    return OpOutcome(latency, value)


def _store(operation, port, spin_poll_ps) -> OpOutcome:
    return OpOutcome(port.store(operation.vaddr, operation.value))


def _atomic_add(operation, port, spin_poll_ps) -> OpOutcome:
    old, latency = port.atomic_add(operation.vaddr, operation.delta)
    return OpOutcome(latency, old)


def _atomic_inc(operation, port, spin_poll_ps) -> OpOutcome:
    old, latency = port.atomic_add(operation.vaddr, 1)
    return OpOutcome(latency, old)


def _atomic_dec(operation, port, spin_poll_ps) -> OpOutcome:
    old, latency = port.atomic_add(operation.vaddr, -1)
    return OpOutcome(latency, old)


def _atomic_cas(operation, port, spin_poll_ps) -> OpOutcome:
    old, latency = port.atomic_cas(operation.vaddr, operation.expected,
                                   operation.new)
    return OpOutcome(latency, old)


def _wait_value(operation, port, spin_poll_ps) -> OpOutcome:
    value, latency = port.load(operation.vaddr)
    return _finish_wait(operation, value, latency, spin_poll_ps)


def _load_vector(operation, port, spin_poll_ps) -> OpOutcome:
    values, latencies = port.load_batch(operation.vaddrs)
    return OpOutcome(sum(latencies), tuple(values), ops=max(1, len(latencies)))


def _store_vector(operation, port, spin_poll_ps) -> OpOutcome:
    latencies = port.store_batch(operation.vaddrs, operation.values)
    return OpOutcome(sum(latencies), ops=max(1, len(latencies)))


class _OpTable(dict):
    """``type -> OpEntry``; a missing type resolves through its MRO once."""

    def __missing__(self, op_type: type) -> OpEntry:
        entry = next((self[base] for base in op_type.__mro__[1:]
                      if base in self), RUNTIME)
        self[op_type] = entry
        return entry


#: Entries with no executor, which the loops recognise by identity.  Every
#: operation class not otherwise in the table (runtime services) is RUNTIME.
RUNTIME, COMPUTE, MALLOC, FREE = OpEntry(), OpEntry(), OpEntry(), OpEntry()

#: ``type(operation) -> OpEntry`` for every operation class.
OP_TABLE = _OpTable({
    Load: OpEntry(_load, lambda op: (OP_LOAD, op.vaddr, 0, 0), _finish_value),
    Store: OpEntry(_store, lambda op: (OP_STORE, op.vaddr, op.value, 0),
                   _finish_store),
    AtomicAdd: OpEntry(_atomic_add, lambda op: (OP_ATOMIC_ADD, op.vaddr,
                                                op.delta, 0), _finish_value),
    AtomicInc: OpEntry(_atomic_inc, lambda op: (OP_ATOMIC_ADD, op.vaddr, 1, 0),
                       _finish_value),
    AtomicDec: OpEntry(_atomic_dec, lambda op: (OP_ATOMIC_ADD, op.vaddr, -1, 0),
                       _finish_value),
    AtomicCAS: OpEntry(_atomic_cas, lambda op: (OP_ATOMIC_CAS, op.vaddr,
                                                op.expected, op.new),
                       _finish_value),
    # A spin-wait batches as the load its poll performs; ``finish``
    # re-applies the spin/retry decision.
    WaitValue: OpEntry(_wait_value, lambda op: (OP_LOAD, op.vaddr, 0, 0),
                       _finish_wait),
    LoadVector: OpEntry(_load_vector),
    StoreVector: OpEntry(_store_vector),
    Compute: COMPUTE,
    Malloc: MALLOC,
    Free: FREE,
})


def execute_memory_operation(operation: Operation, memory_port,
                             spin_poll_ps: int) -> Optional[OpOutcome]:
    """Execute ``operation`` if it is a plain memory operation.

    Returns ``None`` for operations this function does not handle (compute
    and runtime operations), so the calling core can deal with them.  The
    ``memory_port`` must provide ``load``, ``store``, ``atomic_add`` and
    ``atomic_cas`` methods that return ``(value, latency_ps)`` /
    ``latency_ps`` pairs (plus ``load_batch``/``store_batch`` for the vector
    operations) — see :class:`repro.mem.port.CoreMemoryPort`.
    """
    execute = OP_TABLE[type(operation)].execute
    return None if execute is None else execute(operation, memory_port,
                                                spin_poll_ps)


def batch_request(operation: Operation) -> Optional[BatchOp]:
    """Encode ``operation`` as a ``(kind, vaddr, a, b)`` batch op.

    Returns ``None`` for operations that cannot join a mixed batch —
    compute, runtime services, and the vector operations.
    """
    encode = OP_TABLE[type(operation)].encode
    return None if encode is None else encode(operation)


def batch_outcome(operation: Operation, value: object, latency_ps: int,
                  spin_poll_ps: int) -> OpOutcome:
    """Build the :class:`OpOutcome` for one batched operation's result.

    Mirrors exactly what :func:`execute_memory_operation` would have
    produced for the same operation and port result.
    """
    return OP_TABLE[type(operation)].finish(operation, value, latency_ps,
                                            spin_poll_ps)
