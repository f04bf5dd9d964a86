"""Microbenchmark: the fused TLB-hit + L1-hit access path.

Every instruction a simulated workload executes pays the per-word
translate → coherence → data path, so its Python overhead bounds the whole
simulator's throughput.  The fused hit path serves the overwhelmingly
common TLB-hit + L1-hit case inline in ``CoreMemoryPort.load``/``store``;
this benchmark drives a steady-state working set (everything resident in
the TLB and L1) through one CPU core's
:class:`~repro.mem.port.CoreMemoryPort` with the fast path on and off, in
interleaved trials, and records the median accesses/second ratio to
``benchmarks/results/access_path.{txt,json}``.

Timing, data values and statistics are bit-identical between the paths
and between batched and one-by-one issue (asserted here on the counters,
and by ``tests/mem/test_fast_path.py`` and ``tests/mem/test_batch.py`` on
whole-workload and randomized streams); only the host wall-clock differs.
"""

from __future__ import annotations

import time

from conftest import interleaved_ratio, run_once

from repro.config import small_ccsvm_system
from repro.core.chip import CCSVMChip
from repro.mem.batch import OP_LOAD, OP_STORE, scalar_op

ACCESSES = 40_000  # per trial and path
WORKING_SET_WORDS = 256  # fits one page and a fraction of the 8 KiB L1
TRIALS = 9


def _build_port(fast_path: bool):
    chip = CCSVMChip(small_ccsvm_system())
    chip.create_process("access_path_bench")
    port = chip.cpu_cores[0].memory_port
    port.fast_path = fast_path
    base = chip.malloc(WORKING_SET_WORDS * 8)
    # Warm the TLB and fill the L1 so the measured loop is pure hits —
    # the steady state the fast path exists for.
    for index in range(WORKING_SET_WORDS):
        port.store(base + index * 8, index)
    return chip, port, base


def _accesses_per_second(fast_path: bool,
                         accesses: int = ACCESSES) -> float:
    """One timing of a 3 loads : 1 store stream, like real kernels."""
    _chip, port, base = _build_port(fast_path)
    addresses = [base + (index % WORKING_SET_WORDS) * 8
                 for index in range(accesses)]
    load, store = port.load, port.store
    started = time.perf_counter()
    for index, address in enumerate(addresses):
        if index & 3:
            load(address)
        else:
            store(address, index)
    return accesses / (time.perf_counter() - started)


def _benchmark_ops(accesses: int, base: int):
    """The benchmark access stream as ``(kind, vaddr, a, b)`` batch ops."""
    ops = []
    for index in range(accesses):
        vaddr = base + (index % WORKING_SET_WORDS) * 8
        if index & 3:
            ops.append((OP_LOAD, vaddr, 0, 0))
        else:
            ops.append((OP_STORE, vaddr, index, 0))
    return ops


def test_access_fast_path_speedup(benchmark, record_figure, record_results):
    """The fast path is measurably faster at steady-state TLB+L1 hits."""
    ratio, fast_rate, slow_rate, ratios = run_once(
        benchmark, interleaved_ratio,
        lambda: _accesses_per_second(True),
        lambda: _accesses_per_second(False), TRIALS)
    text = (
        f"Access-path microbenchmark — {ACCESSES} warm accesses per trial "
        f"({WORKING_SET_WORDS}-word working set, 3:1 load:store), "
        f"median of {TRIALS} interleaved trials\n"
        f"fast path (fused TLB-hit + L1-hit):    {fast_rate:12,.0f} accesses/s\n"
        f"legacy path (AccessResult per access): {slow_rate:12,.0f} accesses/s\n"
        f"speedup: {ratio:.2f}x (trials {min(ratios):.2f}-{max(ratios):.2f}x)"
    )
    record_figure("access_path", text)
    record_results("access_path", {
        "accesses": ACCESSES,
        "trials": TRIALS,
        "working_set_words": WORKING_SET_WORDS,
        "fast_path_accesses_per_s": fast_rate,
        "legacy_path_accesses_per_s": slow_rate,
        "speedup": ratio,
        "trial_speedups": ratios,
    })
    print("\n" + text)
    assert ratio >= 1.2, (
        f"access fast path only {ratio:.2f}x the legacy path"
    )


def test_batch_and_scalar_modes_produce_identical_results():
    """The benchmark stream retires bit-identical results whether it is
    issued as batches or op by op."""
    outcomes = {}
    for batched in (True, False):
        chip, port, base = _build_port(True)
        ops = _benchmark_ops(4096, base)
        checksum = 0
        total_latency = 0
        for start in range(0, len(ops), 512):
            chunk = ops[start:start + 512]
            if batched:
                values, latencies = port.run_batch(chunk)
            else:
                values, latencies = zip(*(scalar_op(port, *op)
                                          for op in chunk))
            checksum += sum(v for v in values if v is not None)
            total_latency += sum(latencies)
        outcomes[batched] = (checksum, total_latency,
                             list(chip.stats_snapshot().items()))
    assert outcomes[True] == outcomes[False]


def test_access_paths_produce_identical_counters():
    """Both paths retire identical latencies and statistics."""
    outcomes = {}
    for fast_path in (True, False):
        chip, port, base = _build_port(fast_path)
        total_latency = 0
        checksum = 0
        for index in range(2048):
            address = base + (index % WORKING_SET_WORDS) * 8
            if index & 3:
                value, latency = port.load(address)
                checksum += value
            else:
                latency = port.store(address, index)
            total_latency += latency
        outcomes[fast_path] = (total_latency, checksum,
                               list(chip.stats_snapshot().items()))
    assert outcomes[True] == outcomes[False]
