"""Batched access is bit-identical to the reference access path.

Every test streams the same randomized mixed operation sequence through a
batching port and through the reference path on identically-built
systems, and demands identical values, identical per-op latencies, and an
identical statistics registry — counter insertion order included, since
``--stats`` prints in that order.  A batch's contract is pure speed, zero
observable difference.

The stream tests also check every returned value against a functional
word-memory oracle that knows nothing of caches, TLBs or ports.  The
oracle comes in two independent implementations, a numpy word array and a
plain dict, and each test runs once against each.
"""

import dataclasses
import random

import numpy
import pytest

from repro.baseline.apu import AMDAPU
from repro.config import small_ccsvm_system, tiny_caches_ccsvm_system
from repro.core.chip import CCSVMChip
from repro.mem.batch import (
    OP_ATOMIC_ADD,
    OP_ATOMIC_CAS,
    OP_LOAD,
    OP_STORE,
    scalar_op,
    split_ops,
)


# --------------------------------------------------------------------------- #
# Functional word-memory oracles
# --------------------------------------------------------------------------- #
WORD_MASK = (1 << 64) - 1


class PythonWords:
    """Words in a dict keyed by vaddr; ``wrap`` keeps them signed 64-bit."""

    def __init__(self, base, size_bytes, wrap):
        self.wrap = wrap
        self._words = {}

    def read(self, vaddr):
        return self._words.get(vaddr, 0)

    def write(self, vaddr, value):
        if self.wrap:
            value &= WORD_MASK
            value -= (value >> 63) << 64
        self._words[vaddr] = value


class NumpyWords:
    """Words in a numpy array over ``[base, base + size_bytes)``: int64
    (two's-complement wraparound) when ``wrap``, raw Python ints if not."""

    def __init__(self, base, size_bytes, wrap):
        self.base = base
        self.wrap = wrap
        self._words = numpy.zeros(size_bytes // 8,
                                  dtype=numpy.int64 if wrap else object)

    def read(self, vaddr):
        return int(self._words[(vaddr - self.base) >> 3])

    def write(self, vaddr, value):
        if self.wrap:
            value = numpy.uint64(value & WORD_MASK).astype(numpy.int64)
        self._words[(vaddr - self.base) >> 3] = value


ORACLES = {"numpy": NumpyWords, "python": PythonWords}


@pytest.fixture(params=sorted(ORACLES))
def oracle(request):
    """The word-memory oracle class a test checks its values against."""
    return ORACLES[request.param]


def oracle_values(oracle_class, ops, base, size_bytes, wrap):
    """What each op must return on a memory that starts all-zero."""
    words = oracle_class(base, size_bytes, wrap)
    values = []
    for kind, vaddr, a, b in ops:
        old = words.read(vaddr)
        if kind == OP_LOAD:
            values.append(old)
            continue
        if kind == OP_STORE:
            words.write(vaddr, a)
            values.append(None)
            continue
        if kind == OP_ATOMIC_ADD:
            words.write(vaddr, old + a)
        elif old == a:
            words.write(vaddr, b)
        values.append(old)
    return values


# --------------------------------------------------------------------------- #
# Randomized op streams
# --------------------------------------------------------------------------- #
def mixed_ops(rng, regions, count, page_bytes=4096):
    """A mixed load/store/atomic stream over several allocated regions.

    Touches cold pages (page-fault fallbacks), revisits hot words (the
    hit path), crosses lines and pages, and stores negative values (sign
    conversion).
    """
    words_per_region = page_bytes // 8
    ops = []
    for _ in range(count):
        vaddr = rng.choice(regions) + 8 * rng.randrange(words_per_region)
        roll = rng.random()
        if roll < 0.50:
            ops.append((OP_LOAD, vaddr, 0, 0))
        elif roll < 0.84:
            ops.append((OP_STORE, vaddr, rng.randrange(-2**40, 2**40), 0))
        elif roll < 0.93:
            ops.append((OP_ATOMIC_ADD, vaddr, rng.randrange(-5, 6), 0))
        else:
            ops.append((OP_ATOMIC_CAS, vaddr, 0, rng.randrange(1, 100)))
    return ops


def chunked(ops, rng):
    """Split a stream into randomly-sized run_batch calls (1..64 ops)."""
    chunks = []
    index = 0
    while index < len(ops):
        size = rng.randrange(1, 65)
        chunks.append(ops[index:index + size])
        index += size
    return chunks


def _counters(stats):
    """The registry's counters as an item list, insertion order included."""
    return list(stats.to_dict().items())


# --------------------------------------------------------------------------- #
# CCSVM (MOESI + TLB) equivalence against the fast_path=False oracle
# --------------------------------------------------------------------------- #
def _ccsvm_stream(config, fast, ops_seed, disturb):
    """Run one deterministic stream; return (values, latencies, counters,
    ops, regions)."""
    rng = random.Random(ops_seed)
    chip = CCSVMChip(config, fast_access_path=fast)
    chip.create_process("batch_eq")
    regions = [chip.malloc(4096) for _ in range(6)]
    port = chip.cpu_cores[0].memory_port
    other = chip.mttop_cores[0].memory_port
    other.set_address_space(chip.process_space)

    ops = mixed_ops(rng, regions, 1500)
    values, latencies = [], []
    for number, chunk in enumerate(chunked(ops, rng)):
        if disturb and number % 7 == 3:
            # Another core pulls a line SHARED mid-stream, so batched
            # stores hit the MOESI upgrade fallback.
            other.load(chunk[0][1])
        if disturb and number % 11 == 5 and port.tlb is not None:
            # A TLB invalidation lands between batches.
            port.tlb.invalidate(chunk[-1][1])
        chunk_values, chunk_latencies = port.run_batch(chunk)
        values.extend(chunk_values)
        latencies.extend(chunk_latencies)
    return values, latencies, _counters(chip.stats), ops, regions


class TestCCSVMEquivalence:
    @pytest.mark.parametrize("config_factory", [small_ccsvm_system,
                                                tiny_caches_ccsvm_system])
    @pytest.mark.parametrize("disturb", [False, True])
    def test_random_stream_bit_identical(self, config_factory, disturb,
                                         oracle):
        outcomes = {
            fast: _ccsvm_stream(config_factory(), fast, ops_seed=1234,
                                disturb=disturb)
            for fast in (True, False)
        }
        assert outcomes[True][0] == outcomes[False][0]   # values
        assert outcomes[True][1] == outcomes[False][1]   # latencies
        assert outcomes[True][2] == outcomes[False][2]   # counters
        ops, regions = outcomes[True][3], outcomes[True][4]
        assert outcomes[True][0] == oracle_values(
            oracle, ops, min(regions), max(regions) + 4096 - min(regions),
            wrap=True)

    def test_all_load_fast_lane_bit_identical(self, oracle):
        def run(fast):
            chip = CCSVMChip(small_ccsvm_system(), fast_access_path=fast)
            chip.create_process("batch_eq")
            base = chip.malloc(4096)
            port = chip.cpu_cores[0].memory_port
            port.store_batch([base + 8 * i for i in range(256)],
                             list(range(-128, 128)))
            out = port.load_batch([base + 8 * ((i * 7) % 256)
                                   for i in range(1024)])
            return out, _counters(chip.stats), base

        fast, reference = run(True), run(False)
        assert fast == reference
        base = fast[2]
        ops = ([(OP_STORE, base + 8 * i, value, 0)
                for i, value in enumerate(range(-128, 128))]
               + [(OP_LOAD, base + 8 * ((i * 7) % 256), 0, 0)
                  for i in range(1024)])
        assert fast[0][0] == oracle_values(oracle, ops, base, 4096,
                                           wrap=True)[256:]

    def test_store_batch_rejects_missing_values(self):
        chip = CCSVMChip(small_ccsvm_system())
        chip.create_process("batch_eq")
        base = chip.malloc(64)
        for port in (chip.cpu_cores[0].memory_port,
                     AMDAPU().cpu_cores[0].port):
            with pytest.raises(IndexError):
                port.store_batch([base, base + 8], [1])

    def test_disabled_by_config_flag(self):
        """``batch_access=false`` only turns off MTTOP lane coalescing."""
        config = dataclasses.replace(small_ccsvm_system(),
                                     batch_access=False)
        chip = CCSVMChip(config)
        chip.create_process("batch_eq")
        assert not chip.cpu_cores[0].memory_port.batch_enabled
        assert not chip.mttop_cores[0].memory_port.batch_enabled
        assert CCSVMChip(small_ccsvm_system()).mttop_cores[0] \
            .memory_port.batch_enabled


# --------------------------------------------------------------------------- #
# Steady-state mixed batches with atomics
# --------------------------------------------------------------------------- #
WORKING_SET_WORDS = 256  # resident in one page and the 8 KiB L1


def _steady_ops(count, base):
    """A 3:1 load:store stream over a resident working set, with atomics."""
    ops = []
    for index in range(count):
        vaddr = base + (index % WORKING_SET_WORDS) * 8
        slot = index & 15
        if slot == 7:
            ops.append((OP_ATOMIC_ADD, vaddr, 1, 0))
        elif slot == 11:
            ops.append((OP_ATOMIC_CAS, vaddr, 0, index))
        elif index & 3:
            ops.append((OP_LOAD, vaddr, 0, 0))
        else:
            ops.append((OP_STORE, vaddr, index, 0))
    return ops


def test_mixed_batch_is_bit_identical_to_scalar():
    """A warm mixed stream (atomics included) run as 512-op batches gives
    the values, latencies and counters of the same ops issued one by one
    through the reference path."""
    outcomes = {}
    for batched in (True, False):
        chip = CCSVMChip(small_ccsvm_system(), fast_access_path=batched)
        chip.create_process("mixed_batch")
        port = chip.cpu_cores[0].memory_port
        base = chip.malloc(WORKING_SET_WORDS * 8)
        for index in range(WORKING_SET_WORDS):
            port.store(base + index * 8, index)
        ops = _steady_ops(4096, base)
        values, latencies = [], []
        for start in range(0, len(ops), 512):
            chunk = ops[start:start + 512]
            if batched:
                chunk_values, chunk_latencies = port.run_batch(chunk)
            else:
                chunk_values, chunk_latencies = zip(
                    *(scalar_op(port, *op) for op in chunk))
            values.extend(chunk_values)
            latencies.extend(chunk_latencies)
        outcomes[batched] = (values, latencies, _counters(chip.stats))
    assert outcomes[True] == outcomes[False]


# --------------------------------------------------------------------------- #
# APU (flat memory) equivalence
# --------------------------------------------------------------------------- #
def _apu_stream(batch, ops_seed):
    """Run one deterministic stream; return (values, latencies, counters,
    ops, regions)."""
    rng = random.Random(ops_seed)
    apu = AMDAPU()
    regions = [apu.allocate(4096) for _ in range(4)]
    port = apu.cpu_cores[0].port
    ops = mixed_ops(rng, regions, 1200)
    values, latencies = [], []
    for chunk in chunked(ops, rng):
        if batch:
            chunk_values, chunk_latencies = port.run_batch(chunk)
        else:
            chunk_values, chunk_latencies = zip(
                *(scalar_op(port, *op) for op in chunk))
        values.extend(chunk_values)
        latencies.extend(chunk_latencies)
    return values, latencies, _counters(apu.stats), ops, regions


class TestAPUEquivalence:
    def test_random_stream_bit_identical(self, oracle):
        batched = _apu_stream(True, ops_seed=99)
        assert batched == _apu_stream(False, ops_seed=99)
        values, ops, regions = batched[0], batched[3], batched[4]
        assert values == oracle_values(
            oracle, ops, min(regions), max(regions) + 4096 - min(regions),
            wrap=False)

    def test_raw_word_semantics_preserved(self, oracle):
        # FlatMemory stores words raw (no 64-bit wraparound); batches must
        # not silently add masking.
        apu = AMDAPU()
        base = apu.allocate(64)
        port = apu.cpu_cores[0].port
        port.store_batch([base, base + 8], [-(2**70), 2**70])
        assert port.load_batch([base, base + 8])[0] == [-(2**70), 2**70]
        assert [port.load(base)[0], port.load(base + 8)[0]] == \
            [-(2**70), 2**70]
        ops = [(OP_STORE, base, -(2**70), 0), (OP_STORE, base + 8, 2**70, 0),
               (OP_LOAD, base, 0, 0), (OP_LOAD, base + 8, 0, 0)]
        assert oracle_values(oracle, ops, base, 64, wrap=False)[2:] == \
            [-(2**70), 2**70]


# --------------------------------------------------------------------------- #
# split_ops
# --------------------------------------------------------------------------- #
class TestSplitOps:
    def test_all_loads_collapse_to_fast_lane(self):
        vaddrs, kinds, vals, vals2 = split_ops([(OP_LOAD, 8, 0, 0),
                                                (OP_LOAD, 16, 0, 0)])
        assert vaddrs == [8, 16]
        assert kinds is None and vals is None and vals2 is None

    def test_mixed_ops_keep_columns(self):
        ops = [(OP_LOAD, 8, 0, 0), (OP_STORE, 16, 5, 0),
               (OP_ATOMIC_CAS, 24, 1, 2)]
        vaddrs, kinds, vals, vals2 = split_ops(ops)
        assert vaddrs == [8, 16, 24]
        assert kinds == [OP_LOAD, OP_STORE, OP_ATOMIC_CAS]
        assert vals == [0, 5, 1]
        assert vals2 == [0, 0, 2]
        assert split_ops([]) == ([], None, None, None)
