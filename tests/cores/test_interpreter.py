"""Tests for thread contexts and the shared operation interpreter."""

import pytest

from repro.baseline.apu import AMDAPU
from repro.cores.cpu import CPUCore
from repro.cores.interpreter import (
    OP_TABLE,
    RUNTIME,
    OpOutcome,
    ThreadContext,
    batch_outcome,
    batch_request,
    execute_memory_operation,
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
    Operation,
    Store,
    StoreVector,
    WaitValue,
)
from repro.cores.mttop import MTTOPCore
from repro.errors import KernelProgramError
from repro.mem.batch import scalar_run_batch, split_ops
from repro.sim.clock import ClockDomain
from repro.sim.engine import Engine


class FakePort:
    """Memory port over a plain dict, with unit latencies.

    ``batch_enabled`` asks an MTTOP core to batch its lanes' memory
    operations; ``batches`` records the size of every batch it ran.
    """

    def __init__(self, batch_enabled=False):
        self.words = {}
        self.batch_enabled = batch_enabled
        self.batches = []

    def run_batch(self, ops):
        self.batches.append(len(ops))
        return scalar_run_batch(self, *split_ops(ops))

    def load_batch(self, vaddrs):
        return scalar_run_batch(self, vaddrs, None, None, None)

    def store_batch(self, vaddrs, values):
        return [self.store(vaddr, value)
                for vaddr, value in zip(vaddrs, values)]

    def load(self, vaddr):
        return self.words.get(vaddr, 0), 10

    def store(self, vaddr, value):
        self.words[vaddr] = value
        return 20

    def atomic_add(self, vaddr, delta):
        old = self.words.get(vaddr, 0)
        self.words[vaddr] = old + delta
        return old, 30

    def atomic_cas(self, vaddr, expected, new):
        old = self.words.get(vaddr, 0)
        if old == expected:
            self.words[vaddr] = new
        return old, 30


class TestThreadContext:
    def test_values_flow_back_into_generator(self):
        seen = []

        def program():
            value = yield Load(0)
            seen.append(value)

        context = ThreadContext(tid=0, program=program())
        op = context.next_operation()
        context.complete(op, OpOutcome(value=99))
        assert context.next_operation() is None
        assert context.finished
        assert seen == [99]

    def test_retry_replays_same_operation(self):
        def program():
            yield WaitValue(0, 1)

        context = ThreadContext(tid=0, program=program())
        op = context.next_operation()
        context.complete(op, OpOutcome(retry=True))
        assert context.next_operation() is op

    def test_non_operation_yield_rejected(self):
        def program():
            yield "not an op"

        context = ThreadContext(tid=0, program=program())
        with pytest.raises(KernelProgramError):
            context.next_operation()

    def test_operations_executed_counter(self):
        def program():
            yield Compute(1)
            yield Compute(1)

        context = ThreadContext(tid=0, program=program())
        for _ in range(2):
            op = context.next_operation()
            context.complete(op, OpOutcome())
        assert context.operations_executed == 2


class TestExecuteMemoryOperation:
    def test_load(self):
        port = FakePort()
        port.words[8] = 5
        outcome = execute_memory_operation(Load(8), port, 0)
        assert outcome.value == 5 and outcome.latency_ps == 10

    def test_store(self):
        port = FakePort()
        outcome = execute_memory_operation(Store(8, 7), port, 0)
        assert port.words[8] == 7 and outcome.latency_ps == 20

    def test_atomic_add_inc_dec(self):
        port = FakePort()
        assert execute_memory_operation(AtomicAdd(0, 5), port, 0).value == 0
        assert execute_memory_operation(AtomicInc(0), port, 0).value == 5
        assert execute_memory_operation(AtomicDec(0), port, 0).value == 6
        assert port.words[0] == 5

    def test_atomic_cas(self):
        port = FakePort()
        port.words[0] = 3
        execute_memory_operation(AtomicCAS(0, 3, 9), port, 0)
        assert port.words[0] == 9
        execute_memory_operation(AtomicCAS(0, 3, 1), port, 0)
        assert port.words[0] == 9

    def test_waitvalue_satisfied(self):
        port = FakePort()
        port.words[0] = 1
        outcome = execute_memory_operation(WaitValue(0, 1), port, 500)
        assert not outcome.retry

    def test_waitvalue_unsatisfied_retries_and_charges_poll(self):
        port = FakePort()
        outcome = execute_memory_operation(WaitValue(0, 1), port, 500)
        assert outcome.retry and outcome.latency_ps == 510

    def test_waitvalue_negated(self):
        port = FakePort()
        port.words[0] = 0
        assert execute_memory_operation(WaitValue(0, 5, negate=True), port, 0).retry is False

    def test_non_memory_operation_returns_none(self):
        assert execute_memory_operation(Compute(3), FakePort(), 0) is None


# --------------------------------------------------------------------------- #
# The operation table
# --------------------------------------------------------------------------- #
#: ``(operation, initial words)``: every memory-operation class, with both
#: outcomes of the conditional ones.
MEMORY_CASES = {
    "load": (Load(8), {8: 5}),
    "store": (Store(8, 7), {}),
    "atomic_add": (AtomicAdd(8, 5), {8: 2}),
    "atomic_inc": (AtomicInc(8), {8: 2}),
    "atomic_dec": (AtomicDec(8), {8: 2}),
    "atomic_cas_swaps": (AtomicCAS(8, 3, 9), {8: 3}),
    "atomic_cas_fails": (AtomicCAS(8, 3, 9), {8: 4}),
    "wait_satisfied": (WaitValue(8, 1), {8: 1}),
    "wait_unsatisfied": (WaitValue(8, 1), {8: 0}),
    "wait_negated_satisfied": (WaitValue(8, 5, negate=True), {8: 0}),
    "wait_negated_unsatisfied": (WaitValue(8, 5, negate=True), {8: 5}),
    "load_vector": (LoadVector((8, 16, 8)), {8: 5, 16: 6}),
    "store_vector": (StoreVector((8, 16), (1, 2)), {}),
}


def _fields(outcome):
    return outcome.value, outcome.latency_ps, outcome.retry, outcome.ops


class TestOperationTable:
    @pytest.mark.parametrize("case", sorted(MEMORY_CASES))
    def test_batch_encoding_matches_scalar_execution(self, case):
        operation, words = MEMORY_CASES[case]
        scalar_port, batch_port = FakePort(), FakePort()
        scalar_port.words.update(words)
        batch_port.words.update(words)
        scalar = execute_memory_operation(operation, scalar_port, 500)
        request = batch_request(operation)
        if isinstance(operation, (LoadVector, StoreVector)):
            # Vectors batch internally and never join a mixed batch.
            assert request is None
            assert scalar.ops == len(operation.vaddrs)
            return
        values, latencies = batch_port.run_batch([request])
        batched = batch_outcome(operation, values[0], latencies[0], 500)
        assert _fields(batched) == _fields(scalar)
        assert batch_port.words == scalar_port.words

    def test_wait_outcomes(self):
        outcomes = {case: execute_memory_operation(MEMORY_CASES[case][0],
                                                   _port(MEMORY_CASES[case][1]),
                                                   500)
                    for case in MEMORY_CASES if case.startswith("wait")}
        assert not outcomes["wait_satisfied"].retry
        assert outcomes["wait_unsatisfied"].retry
        assert outcomes["wait_unsatisfied"].latency_ps == 510
        assert not outcomes["wait_negated_satisfied"].retry
        assert outcomes["wait_negated_unsatisfied"].retry

    def test_non_memory_operations_have_no_executor(self):
        for op_class in (Compute, Malloc, Free, _Custom):
            entry = OP_TABLE[op_class]
            assert entry.execute is entry.encode is entry.finish is None
        assert OP_TABLE[_Custom] is RUNTIME

    def test_subclass_resolves_to_base_entry(self):
        class Deeper(_TaggedLoad):
            pass

        assert OP_TABLE[Deeper] is OP_TABLE[Load]
        assert OP_TABLE[_TaggedStore] is OP_TABLE[Store]
        assert batch_request(Deeper(8)) == batch_request(Load(8))


def _port(words):
    port = FakePort()
    port.words.update(words)
    return port


class _TaggedLoad(Load):
    """A user subclass of an ISA class: it must execute as a Load."""


class _TaggedStore(Store):
    """A user subclass of an ISA class: it must execute as a Store."""


class _Custom(Operation):
    """A runtime-service operation no core executes itself."""


def _store_load_program(tid, load_cls, store_cls, base, seen):
    yield store_cls(base + tid * 8, 40 + tid)
    yield Compute(2)
    value = yield load_cls(base + tid * 8)
    seen.append(value)


def _run_cpu_core(load_cls, store_cls):
    seen = []
    core = CPUCore("cpu0", ClockDomain.from_ghz("cpu", 1.0), 2.0, FakePort())
    core.run_program(_store_load_program(0, load_cls, store_cls, 0, seen))
    engine = Engine()
    engine.add_agent(core)
    engine.run()
    return core.local_time_ps, seen, core.memory_port.words, \
        list(core.stats.to_dict().items())


def _run_mttop_core(load_cls, store_cls, batched):
    seen = []
    port = FakePort(batch_enabled=batched)
    core = MTTOPCore("mttop0", ClockDomain.from_mhz("mttop", 1000),
                     simd_width=4, thread_contexts=4, memory_port=port)
    core.assign_warp([ThreadContext(tid, _store_load_program(
        tid, load_cls, store_cls, 0, seen)) for tid in range(4)], 0)
    core.request_halt(0)
    engine = Engine()
    engine.add_agent(core)
    engine.run()
    assert port.batches == ([4, 4] if batched else [])
    return core.local_time_ps, seen, port.words, \
        list(core.stats.to_dict().items())


def _run_baseline_cpu(load_cls, store_cls):
    seen = []
    apu = AMDAPU()
    base = apu.allocate(64)
    result = apu.run_on_cpu(_store_load_program(0, load_cls, store_cls,
                                                base, seen))
    return result, seen, list(apu.stats.to_dict().items())


def _run_baseline_gpu(load_cls, store_cls):
    seen = []
    apu = AMDAPU()
    base = apu.allocate(64)
    result = apu.gpu.execute_kernel(
        lambda tid, args: _store_load_program(tid, load_cls, store_cls,
                                              base, seen), None, range(4))
    return result, seen, list(apu.stats.to_dict().items())


MACHINES = {
    "cpu_core": _run_cpu_core,
    "mttop_batched": lambda load, store: _run_mttop_core(load, store, True),
    "mttop_scalar": lambda load, store: _run_mttop_core(load, store, False),
    "baseline_cpu": _run_baseline_cpu,
    "baseline_gpu": _run_baseline_gpu,
}


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_isa_subclasses_execute_as_their_base(machine):
    run = MACHINES[machine]
    subclassed = run(_TaggedLoad, _TaggedStore)
    assert subclassed == run(Load, Store)
    assert sorted(subclassed[1]) == [40, 41, 42, 43][:len(subclassed[1])]


@pytest.mark.parametrize("batched", [True, False])
def test_runtime_operations_reach_the_handler_on_mttop(batched):
    calls = []

    def handler(core, lane, operation):
        calls.append((lane.tid, type(operation)))
        return OpOutcome(latency_ps=7, value=lane.tid * 10)

    def kernel(tid):
        value = yield _Custom()
        yield Store(tid * 8, value)

    core = MTTOPCore("mttop0", ClockDomain.from_mhz("mttop", 1000),
                     simd_width=2, thread_contexts=2,
                     memory_port=FakePort(batch_enabled=batched),
                     runtime_handler=handler)
    core.assign_warp([ThreadContext(tid, kernel(tid)) for tid in range(2)], 0)
    core.request_halt(0)
    engine = Engine()
    engine.add_agent(core)
    engine.run()
    assert calls == [(0, _Custom), (1, _Custom)]
    assert core.memory_port.words == {0: 0, 8: 10}


def test_runtime_operations_reach_the_handler_on_cpu():
    calls = []

    def handler(core, lane, operation):
        calls.append(type(operation))
        return OpOutcome(latency_ps=7, value=99)

    def program():
        value = yield _Custom()
        yield Store(0, value)

    core = CPUCore("cpu0", ClockDomain.from_ghz("cpu", 1.0), 2.0, FakePort(),
                   runtime_handler=handler)
    core.run_program(program())
    engine = Engine()
    engine.add_agent(core)
    engine.run()
    assert calls == [_Custom]
    assert core.memory_port.words == {0: 99}
    # Issue cost is added to the handler's latency, not into its outcome.
    assert core.local_time_ps == (2000 + 7) + (2000 + 20)
