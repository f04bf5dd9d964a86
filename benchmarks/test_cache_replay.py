"""Macrobenchmark: cache-only replay vs full trace-replay simulation.

The DSE engine's cost per design point is one full simulation of the
workload — cores, sim engine, scheduler and all.  The cache-only replayer
(:mod:`repro.mem.replay`) walks the captured reference stream straight
through an assembled hierarchy and nothing else, producing the identical
hierarchy counters (asserted here and gated by
``tests/mem/test_replay_equivalence.py``) at a fraction of the cost.

The stream is sized like a DSE sweep point (20k ops over a 32 KiB
footprint) and the replayer is measured warm — parsed trace and compiled
replay program cached, as in a sweep's steady state.  Both evaluators
are timed one evaluation at a time in interleaved trials, and the gate
is the median per-trial ratio; the floor is 2x.  The memory-system walk
is shared by both evaluators, so making it cheaper (the fused TLB-hit +
L1-hit path) speeds full simulation about as much as replay: what
replay removes is the cores, the engine and the scheduler.
"""

from __future__ import annotations

import json
import time

from conftest import interleaved_ratio, run_once

from repro.mem.replay import replay_trace
from repro.systems import system_config
from repro.workloads.trace_replay import capture_trace, run_replay

OPS = 20_000
WORDS = 4096
LOCALITY = 0.95
ATOMICS = 0.0  # atomics serialize both evaluators identically; dial out
TRIALS = 7
_NON_HIERARCHY_PREFIXES = ("cpu", "mttop", "engine.", "xthreads.", "mifd.",
                           "sched")


def _points_per_second(evaluate) -> float:
    """One timed evaluation of a design-point evaluator, as points/s."""
    started = time.perf_counter()
    evaluate()
    return 1.0 / (time.perf_counter() - started)


def _hierarchy(counters):
    return {name: value for name, value in counters.items()
            if not name.startswith(_NON_HIERARCHY_PREFIXES)}


def test_cache_replay_points_per_second(benchmark, tmp_path, record_figure,
                                        record_results):
    """Cache-only replay clears 2x full-simulation points/s (typ. 2.5-4x)."""
    trace_path = str(tmp_path / "mem_stream.trace.json")
    capture_trace("mem_stream", seed=7, path=trace_path, ops=OPS,
                  words=WORDS, locality=LOCALITY, atomics=ATOMICS)
    config = system_config("ccsvm")

    full = run_replay(trace_path, config=config)
    fast = replay_trace(trace_path, config)
    assert json.dumps(_hierarchy(full.counters), sort_keys=True) == \
        json.dumps(_hierarchy(fast.stats_snapshot()), sort_keys=True), \
        "cache-only replay diverged from full simulation"

    ratio, fast_rate, full_rate, ratios = run_once(
        benchmark, interleaved_ratio,
        lambda: _points_per_second(lambda: replay_trace(trace_path, config)),
        lambda: _points_per_second(lambda: run_replay(trace_path,
                                                      config=config)),
        TRIALS)
    text = (
        f"Cache-replay macrobenchmark — mem_stream trace "
        f"({OPS} ops over {WORDS} words, locality {LOCALITY}, no atomics), "
        f"ccsvm preset, median of {TRIALS} interleaved trials\n"
        f"cache-only replay (repro.mem.replay): {fast_rate:10.2f} points/s\n"
        f"full simulation (trace_replay):       {full_rate:10.2f} points/s\n"
        f"speedup: {ratio:.1f}x (trials {min(ratios):.1f}-{max(ratios):.1f}x)"
    )
    record_figure("cache_replay", text)
    record_results("cache_replay", {
        "trace_ops": OPS,
        "trace_words": WORDS,
        "locality": LOCALITY,
        "atomics": ATOMICS,
        "system": "ccsvm",
        "cache_replay_points_per_s": fast_rate,
        "full_simulation_points_per_s": full_rate,
        "speedup": ratio,
        "trials": TRIALS,
        "trial_speedups": ratios,
    })
    print("\n" + text)
    assert ratio >= 2.0, (
        f"cache-only replay only {ratio:.1f}x full simulation (floor 2x)"
    )
