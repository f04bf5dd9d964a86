"""Microbenchmark: heap-scheduled ready queue vs the historical linear scan.

Runs the same 16-agent configuration (the CCSVM chip's agent count: 4 CPU +
10 MTTOP cores, rounded up) under both engine schedulers and compares
steps/second.  The heap scheduler replaces an O(n) scan per engine step with
an O(log n) pop/push, which shows up directly in the simulator's hot loop.
The measured ratio is recorded to ``benchmarks/results/`` alongside the
figure tables.
"""

from __future__ import annotations

import time

from conftest import interleaved_ratio, run_once

from repro.sim.engine import Agent, Engine, StepOutcome

AGENTS = 16
STEPS_PER_AGENT = 20_000
TRIALS = 7


class BusyAgent(Agent):
    """Advances by a fixed per-agent stride until its step budget runs out."""

    def __init__(self, name: str, steps: int, stride_ps: int) -> None:
        super().__init__(name)
        self.remaining = steps
        self.stride_ps = stride_ps

    def step(self) -> StepOutcome:
        if self.remaining == 0:
            return self.finish()
        self.remaining -= 1
        self.advance(self.stride_ps)
        return StepOutcome.RAN


def _steps_per_second(scheduler: str, agents: int = AGENTS,
                      steps: int = STEPS_PER_AGENT) -> float:
    """Steps/second of one timed run under ``scheduler``."""
    engine = Engine(scheduler=scheduler)
    for index in range(agents):
        # Coprime-ish strides keep the agents interleaving rather than
        # stepping in long same-agent bursts.
        engine.add_agent(BusyAgent(f"agent{index}", steps, 97 + 13 * index))
    started = time.perf_counter()
    engine.run()
    return engine.steps_executed / (time.perf_counter() - started)


def test_engine_heap_scheduler_speedup(benchmark, record_figure, record_results):
    """The heap ready queue is >=2x faster than the linear scan at 16 agents."""
    ratio, heap_rate, linear_rate, ratios = run_once(
        benchmark, interleaved_ratio,
        lambda: _steps_per_second("heap"),
        lambda: _steps_per_second("linear"), TRIALS)
    text = (
        f"Engine scheduling microbenchmark — {AGENTS} agents x "
        f"{STEPS_PER_AGENT} steps, median of {TRIALS} interleaved trials\n"
        f"heap   scheduler: {heap_rate:12,.0f} steps/s\n"
        f"linear scheduler: {linear_rate:12,.0f} steps/s\n"
        f"speedup: {ratio:.2f}x (trials {min(ratios):.2f}-{max(ratios):.2f}x)"
    )
    record_figure("engine_scheduling", text)
    record_results("engine_scheduling", {
        "agents": AGENTS,
        "steps_per_agent": STEPS_PER_AGENT,
        "heap_steps_per_s": heap_rate,
        "linear_steps_per_s": linear_rate,
        "speedup": ratio,
        "trials": TRIALS,
        "trial_speedups": ratios,
    })
    print("\n" + text)
    assert ratio >= 2.0, (
        f"heap scheduler only {ratio:.2f}x the linear scan at {AGENTS} agents"
    )


def test_engine_schedulers_agree_on_final_state():
    """Both schedulers retire the identical step count and final time."""
    outcomes = {}
    for scheduler in ("heap", "linear"):
        engine = Engine(scheduler=scheduler)
        for index in range(AGENTS):
            engine.add_agent(BusyAgent(f"agent{index}", 500, 97 + 13 * index))
        final = engine.run()
        outcomes[scheduler] = (final, engine.steps_executed)
    assert outcomes["heap"] == outcomes["linear"]