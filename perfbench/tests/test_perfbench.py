"""Tests of the benchmark itself: span accounting, wrapper placement,
seeded inputs and the metric names it emits."""

from __future__ import annotations

import gc
import json
import os

import pytest

from perfbench import layers, run, workloads
from perfbench.tracer import Tracer

BENCHMARK_JSON = os.path.join(workloads.ROOT, "BENCHMARK.json")


class FakeClock:
    """A clock that moves only when the code under test says it worked."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_busy_minus_children_and_reentry_counts_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def a_direct():            # A called from A: part of the outer span
        clock.work(2)

    def a_inner():             # A called from B: a span of its own
        clock.work(4)

    def b_mid():
        clock.work(3)
        a_inner()
        clock.work(5)

    def a_outer():
        clock.work(1)
        a_direct()
        b_mid()
        clock.work(6)

    a_direct = tracer.wrap(a_direct, "A")
    a_inner = tracer.wrap(a_inner, "A")
    b_mid = tracer.wrap(b_mid, "B")
    a_outer = tracer.wrap(a_outer, "A")
    a_outer()

    a, b = tracer.layer("A"), tracer.layer("B")
    assert (a.self_s, b.self_s) == (1 + 2 + 4 + 6, 3 + 5)
    assert a.self_s + b.self_s == clock.now          # nothing counted twice
    assert (a.busy_s, b.busy_s) == (21, 12)          # A's busy time once
    assert (a.calls, b.calls) == (2, 1)              # entries into the layer
    assert a.depth == b.depth == 0


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fails():
        clock.work(1)
        raise ValueError("boom")

    wrapped = tracer.wrap(fails, "A")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.layer("A").busy_s == 1
    assert tracer.layer("A").depth == 0 and not tracer._stack


def test_wrappers_sit_where_callers_look_the_name_up(tmp_path):
    import repro.mem.replay as replay
    import repro.workloads.cache_replay as cache_replay
    from repro.workloads.registry import get_variant
    from repro.workloads.trace_replay import capture_trace

    trace = str(tmp_path / "tiny.trace.json")
    capture_trace("mem_stream", seed=3, path=trace, ops=200, words=256)
    original = replay.replay_trace
    original_variant = get_variant("cache_replay", "ccsvm")
    # The workload imported replay_trace by name: its own global is what
    # it calls, so wrapping only repro.mem.replay would miss every call.
    assert cache_replay.replay_trace is original

    tracer = Tracer()
    layers.install(tracer)
    try:
        assert cache_replay.replay_trace is not original
        assert cache_replay.replay_trace is replay.replay_trace
        get_variant("cache_replay", "ccsvm").func(None, trace=trace)
    finally:
        tracer.uninstall()

    assert tracer.layer("workloads").calls == 1
    # load_trace_cached, then replay_trace: two entries from the variant.
    assert tracer.layer("mem.replay").calls == 2
    assert tracer.layer("mem.replay").extra == {"lookups": 1, "parses": 1}
    assert tracer.layer("mem.port.batch").extra["ops"] > 0
    assert tracer.layer("coherence").calls > 0
    assert cache_replay.replay_trace is original
    assert replay.replay_trace is original
    assert get_variant("cache_replay", "ccsvm") is original_variant


def test_seed_regenerates_identical_inputs(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "STREAM", dict(workloads.STREAM, ops=300))

    def trace_bytes(seed: int, name: str) -> bytes:
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workloads.DseReplay(seed, str(workdir))
        workload.setup()
        with open(workload.trace_path, "rb") as handle:
            return handle.read()

    assert trace_bytes(5, "first") == trace_bytes(5, "again")
    assert trace_bytes(5, "first-b") != trace_bytes(6, "other")

    def full_points(seed: int):
        workload = workloads.DseFull(seed, str(tmp_path))
        workload.setup()
        space = workload.shape_space
        return [space.scenario(shape).points()[0].kwargs
                for shape in workload.shapes]

    assert full_points(5) == full_points(5)
    assert full_points(5) != full_points(6)


def test_tail_percentile_keeps_ten_samples_beyond_it(tmp_path):
    grid = workloads.PaperGrid(0, str(tmp_path))
    grid.setup()
    per_pass = {"paper_grid": grid.points, "dse_full": 18, "dse_replay": 18}
    for name, cls in workloads.WORKLOADS.items():
        samples = per_pass[name] * cls.min_passes
        rank = run.nearest_rank(samples, cls.tail_percentile)
        assert samples - rank >= 10, name


def _declared(group: str):
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)[group]]


def test_every_emitted_metric_is_declared_in_benchmark_json():
    per_layer = layers.report(Tracer(), passes=1)
    assert sorted(per_layer) == sorted(_declared("per_layer"))

    class Stub:
        tail_percentile = 75

    timed = run.Run(Stub())
    timed.passes = [workloads.PassResult(
        seconds=2.0, point_s=[0.1] * 40, probe_s=[0.01] * 40, attempted=40,
        simulated=40, output="")]
    timed.attempted = 40
    end_to_end = run._end_to_end(timed, Stub(), [0.5, 0.6, 0.7])
    assert sorted(end_to_end) == sorted(_declared("end_to_end"))
    assert all(value > 0 for value in end_to_end.values())


def test_probe_scales_by_the_square_root_of_its_slowdown():
    from perfbench import probe

    reference = probe.REFERENCE_S
    assert probe.scale([reference]) == 1.0
    assert probe.scale([4 * reference, 4 * reference, 1.0]) == 0.5
    assert probe.probe() > 0
    assert gc.isenabled()
