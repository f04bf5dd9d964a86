"""The fused TLB-hit + L1-hit path is bit-identical to the legacy path.

The reference oracle is the port's ``fast_path=False`` general path.
Counters are compared as item lists — insertion order included, since
``--stats`` prints in that order.
"""

import random

import pytest

from repro.coherence.states import MOESIState
from repro.config import small_ccsvm_system, tiny_caches_ccsvm_system
from repro.core.chip import CCSVMChip
from repro.errors import CoherenceError, UnmappedAddressError
from repro.mem.batch import OP_ATOMIC_ADD, OP_ATOMIC_CAS, OP_LOAD, OP_STORE, scalar_op
from repro.memory.address import PAGE_SHIFT
from repro.systems import system_config
from repro.workloads.registry import get_variant

PRESETS = ["ccsvm", "ccsvm-l3", "ccsvm-no-tlb", "ccsvm-small"]


def _run_workload(config, fast):
    result = get_variant("matmul", "ccsvm").func(config, seed=7, size=8)
    assert result.verified
    return result


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("config_factory", [small_ccsvm_system,
                                                tiny_caches_ccsvm_system])
    def test_matmul_identical_time_and_counters(self, config_factory,
                                                monkeypatch):
        original = CCSVMChip.__init__
        outcomes = {}
        for fast in (True, False):
            # Workload variants build their own chips; flip the default.
            def patched(self, *args, _fast=fast, **kwargs):
                kwargs.setdefault("fast_access_path", _fast)
                original(self, *args, **kwargs)

            monkeypatch.setattr(CCSVMChip, "__init__", patched)
            result = _run_workload(config_factory(), fast)
            outcomes[fast] = (result.time_ps, result.dram_accesses,
                              result.counters)
        assert outcomes[True] == outcomes[False]


def _random_ops(rng, regions, count):
    """Loads, stores and atomics over a few pages, cold and hot words."""
    ops = []
    for _ in range(count):
        vaddr = rng.choice(regions) + 8 * rng.randrange(512)
        roll = rng.random()
        if roll < 0.5:
            ops.append((OP_LOAD, vaddr, 0, 0))
        elif roll < 0.85:
            ops.append((OP_STORE, vaddr, rng.randrange(-2**63, 2**63), 0))
        elif roll < 0.93:
            ops.append((OP_ATOMIC_ADD, vaddr, rng.randrange(-9, 10), 0))
        else:
            ops.append((OP_ATOMIC_CAS, vaddr, 0, rng.randrange(1, 99)))
    return ops


def _mixed_stream(config, fast):
    """A CPU and an MTTOP port sharing pages, issuing batches and single
    ops; returns (values, latencies, counter items)."""
    rng = random.Random(2024)
    chip = CCSVMChip(config, fast_access_path=fast)
    chip.create_process("oracle")
    regions = [chip.malloc(4096) for _ in range(6)]
    cpu = chip.cpu_cores[0].memory_port
    mttop = chip.mttop_cores[0].memory_port
    mttop.set_address_space(chip.process_space)
    values, latencies = [], []
    for step in range(120):
        port = mttop if step % 5 == 4 else cpu
        ops = _random_ops(rng, regions, rng.randrange(1, 40))
        if step % 3:
            chunk_values, chunk_latencies = port.run_batch(ops)
        else:
            chunk_values, chunk_latencies = zip(
                *(scalar_op(port, *op) for op in ops))
        values.extend(chunk_values)
        latencies.extend(chunk_latencies)
    return values, latencies, list(chip.stats.to_dict().items())


class TestPresetEquivalence:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_mixed_stream_matches_oracle(self, preset):
        assert _mixed_stream(system_config(preset), True) == \
            _mixed_stream(system_config(preset), False)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_workload_matches_oracle(self, preset, monkeypatch):
        original = CCSVMChip.__init__
        outcomes = {}
        for fast in (True, False):
            def patched(self, *args, _fast=fast, **kwargs):
                kwargs.setdefault("fast_access_path", _fast)
                original(self, *args, **kwargs)

            monkeypatch.setattr(CCSVMChip, "__init__", patched)
            result = get_variant("matmul", "ccsvm").func(
                system_config(preset), seed=3, size=8)
            assert result.verified
            outcomes[fast] = (result.time_ps, list(result.counters.items()))
        assert outcomes[True] == outcomes[False]


def _raised(action):
    """``(type, message)`` of the exception ``action()`` raises."""
    with pytest.raises(Exception) as info:
        action()
    return type(info.value), str(info.value)


class TestFastPathMechanics:
    def _port(self, fast=True):
        chip = CCSVMChip(small_ccsvm_system(), fast_access_path=fast)
        chip.create_process("fast_path_test")
        return chip, chip.cpu_cores[0].memory_port

    def test_probe_miss_leaves_miss_counting_to_slow_path(self):
        chip, port = self._port()
        vaddr = chip.malloc(64)
        port.load(vaddr)   # cold: walk + fill
        l1 = "l1d.cpu0"
        misses = chip.stats.get(f"{l1}.misses")
        hits = chip.stats.get(f"{l1}.hits")
        port.load(vaddr)   # fast path: one hit, no phantom miss
        assert chip.stats.get(f"{l1}.hits") == hits + 1
        assert chip.stats.get(f"{l1}.misses") == misses

    def test_store_upgrade_goes_through_shared_transaction(self):
        chip, port0 = self._port()
        port1 = chip.mttop_cores[0].memory_port
        port1.set_address_space(chip.process_space)
        vaddr = chip.malloc(64)
        port0.load(vaddr)
        port1.load(vaddr)          # line now SHARED in both L1s
        upgrades = chip.stats.get("coherence.upgrades")
        port0.store(vaddr, 7)      # fast path hit -> upgrade transaction
        assert chip.stats.get("coherence.upgrades") == upgrades + 1
        value, _ = port0.load(vaddr)
        assert value == 7

    def test_unknown_node_still_raises(self):
        chip, port = self._port()
        with pytest.raises(CoherenceError):
            chip.coherence.l1_load_hit_ps("ghost", 0x1000)
        with pytest.raises(CoherenceError):
            chip.coherence.l1_store_hit_ps("ghost", 0x1000)

    def _error_cases(self, setup, **chip_kwargs):
        """Errors a load and a store raise on the port ``setup`` prepares,
        plus the counters left behind."""
        chip = CCSVMChip(small_ccsvm_system(), **chip_kwargs)
        chip.create_process("fast_path_test")
        port = chip.cpu_cores[0].memory_port
        port, vaddr = setup(chip, port)
        errors = (_raised(lambda: port.load(vaddr)),
                  _raised(lambda: port.store(vaddr, 5)))
        return errors, chip.stats.to_dict()

    def _assert_raises_as_before(self, setup, error):
        """The fused path raises what the general path raises, leaving the
        same counters as the general fast path (an attached SC checker
        turns the fused path off and nothing else), and the same errors
        as the legacy path."""
        fused = self._error_cases(setup)
        assert fused[0][0][0] is error and fused[0][1][0] is error
        assert fused == self._error_cases(setup, check_sc=True)
        assert fused[0] == self._error_cases(setup, fast_access_path=False)[0]

    def test_out_of_range_paddr_raises_as_before(self):
        def setup(chip, port):
            # A cached translation and a resident line past the end of
            # physical memory.
            end = chip.physical_memory.size_bytes
            vaddr = 0x7FFF_0000
            port.tlb.insert(vaddr >> PAGE_SHIFT, end, True)
            chip.coherence._l1s[port.node].cache.insert(
                end, state=MOESIState.EXCLUSIVE)
            return port, vaddr

        self._assert_raises_as_before(setup, UnmappedAddressError)

    @pytest.mark.parametrize("state", ["transient", MOESIState.INVALID])
    def test_bad_l1_state_raises_as_before(self, state):
        def setup(chip, port):
            vaddr = chip.malloc(64)
            port.load(vaddr)
            chip.coherence._l1s[port.node].cache.peek(
                port.translate(vaddr, False)[0]).state = state
            return port, vaddr

        self._assert_raises_as_before(setup, CoherenceError)

    def test_unregistered_node_port_raises_as_before(self):
        def setup(chip, port):
            vaddr = chip.malloc(64)
            port.load(vaddr)
            ghost = chip._make_memory_port("ghost", 64)
            ghost.set_address_space(chip.process_space)
            ghost.tlb.insert(vaddr >> PAGE_SHIFT,
                             port.translate(vaddr, False)[0] & ~0xFFF, True)
            return ghost, vaddr

        self._assert_raises_as_before(setup, CoherenceError)
