"""The layer table: which ``repro`` entry points are wrapped, and the
per-layer metrics computed from the spans they record.

Each layer is named after the ``repro`` package it measures.  The
mapping from each metric to the end-to-end metric and workload it should
move is in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from perfbench.tracer import LayerStats, Tracer

#: ``(layer, module, qualname)`` of every plain entry point.
ENTRY_POINTS = (
    ("harness", "repro.harness.runner", "SweepRunner.run_points"),
    ("dse", "repro.dse.search", "Explorer.explore"),
    ("store.load", "repro.store.filesystem", "FileStore.load"),
    ("store.store", "repro.store.filesystem", "FileStore.store"),
    ("core.build", "repro.core.chip", "CCSVMChip.__init__"),
    ("cache.build", "repro.cache.cache", "SetAssociativeCache.__init__"),
    ("cores.cpu", "repro.cores.cpu", "CPUCore.step"),
    ("cores.mttop", "repro.cores.mttop", "MTTOPCore.step"),
    ("mem.private", "repro.mem.private", "PrivateHierarchy.access"),
    ("mem.replay", "repro.mem.replay", "replay_trace"),
    ("mem.replay", "repro.mem.replay", "replay_trace_flat"),
    ("vm.translate", "repro.mem.port", "CoreMemoryPort.translate"),
    ("vm.translate", "repro.mem.port", "CoreMemoryPort._translate_slow"),
    ("vm.translate", "repro.vm.tlb", "TLB.translate_batch"),
    ("coherence", "repro.coherence.protocol", "CoherentMemorySystem.access"),
    ("coherence", "repro.coherence.protocol", "CoherentMemorySystem.load"),
    ("coherence", "repro.coherence.protocol", "CoherentMemorySystem.store"),
    ("coherence", "repro.coherence.protocol", "CoherentMemorySystem.atomic"),
    ("baseline.build", "repro.baseline.apu", "AMDAPU.__init__"),
    ("baseline.cpu", "repro.baseline.cpu", "BaselineCPUCore.run"),
    ("baseline.gpu", "repro.baseline.gpu", "RadeonGPUModel.execute_kernel"),
)

BATCH_METHODS = ("run_batch", "load_batch", "store_batch")
SCALAR_METHODS = ("load", "store", "atomic_add", "atomic_cas")
L1_HIT_PROBES = ("l1_load_hit_ps", "l1_store_hit_ps")
#: Batch-size histogram buckets: ``(largest size, label)``.
BATCH_BUCKETS = ((7, "1-7"), (15, "8-15"), (None, "16-up"))


def _bucket(size: int) -> str:
    return next(label for limit, label in BATCH_BUCKETS
                if limit is None or size <= limit)


def _count_batch(stats: LayerStats, args: tuple, kwargs: dict) -> None:
    # run_batch(ops), load_batch(vaddrs), store_batch(vaddrs, values)
    ops = args[1] if len(args) > 1 else kwargs.get("ops", kwargs.get("vaddrs"))
    stats.add("ops", len(ops))
    stats.add("hist." + _bucket(len(ops)))


def _count_fast_hit(stats: LayerStats, token: object, args: tuple,
                    result: object) -> None:
    if result is not None:
        stats.add("fast_hits")


def _steps_before(stats: LayerStats, args: tuple, kwargs: dict) -> int:
    return args[0].steps_executed


def _steps_after(stats: LayerStats, before: object, args: tuple,
                 result: object) -> None:
    stats.add("steps", args[0].steps_executed - before)


def _counter(key: str):
    def count(stats: LayerStats, args: tuple, kwargs: dict) -> None:
        stats.add(key)
    return count


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (undo with ``tracer.uninstall()``)."""
    import repro.workloads.registry as registry

    for layer, module, qualname in ENTRY_POINTS:
        tracer.install(module, qualname, layer)
    for name in BATCH_METHODS:
        tracer.install("repro.mem.port", f"CoreMemoryPort.{name}",
                       "mem.port.batch", enter=_count_batch)
    batch = tracer.layer("mem.port.batch")

    def count_scalar(stats: LayerStats, args: tuple, kwargs: dict) -> None:
        if batch.depth:
            stats.add("in_batch")

    for name in SCALAR_METHODS:
        tracer.install("repro.mem.port", f"CoreMemoryPort.{name}",
                       "mem.port.scalar", enter=count_scalar)
    for name in L1_HIT_PROBES:
        tracer.install("repro.coherence.protocol",
                       f"CoherentMemorySystem.{name}", "coherence",
                       leave=_count_fast_hit)
    tracer.install("repro.sim.engine", "Engine.run", "sim",
                   enter=_steps_before, leave=_steps_after)
    tracer.install("repro.mem.replay", "load_trace_cached", "mem.replay",
                   enter=_counter("lookups"))
    tracer.install("repro.mem.trace", "Trace.load", "mem.replay",
                   enter=_counter("parses"))
    # The benchmark's own host-speed probe runs between points, inside the
    # harness and dse spans; as a layer of its own it is not their time.
    tracer.install("perfbench.workloads", "probe", "probe")

    # Scenario points reach a workload through the registry, so the
    # registered variant is what gets replaced (plus any module global
    # that still names the function).
    registry.load_builtin_workloads()
    for key, variant in list(registry._VARIANTS.items()):
        wrapped = tracer.wrap(variant.func, "workloads")
        tracer.patch_item(registry._VARIANTS, key,
                          dataclasses.replace(variant, func=wrapped))
        tracer.replace_everywhere(variant.func, wrapped)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def report(tracer: Tracer, passes: int, warm: Optional[Tracer] = None,
           overhead_ratio: float = 0.0,
           time_scale: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics, per traced pass, from a tracer's spans.

    ``warm`` is the tracer of the store-warm pass; ``overhead_ratio`` is
    the traced pass time over the untraced pass time; every time is
    multiplied by ``time_scale`` (see ``perfbench/probe.py``).
    """
    layer = tracer.layer

    def per_pass(value: float) -> float:
        return value / passes

    metrics: Dict[str, float] = {}

    def self_s(name: str) -> None:
        metrics[f"{name}.self_s"] = per_pass(layer(name).self_s)

    def calls(name: str) -> None:
        metrics[f"{name}.calls"] = per_pass(layer(name).calls)

    self_s("harness")
    self_s("dse")
    for name in ("store.load", "store.store"):
        calls(name)
        metrics[f"{name}.busy_s"] = per_pass(layer(name).busy_s)
    warm_load = (warm or Tracer()).layer("store.load")
    metrics["warm.store.load.calls"] = float(warm_load.calls)
    metrics["warm.store.load.busy_s"] = warm_load.busy_s
    self_s("workloads")
    calls("core.build")
    calls("cache.build")
    for name in ("core.build", "cache.build", "baseline.build"):
        metrics[f"{name}_s"] = per_pass(layer(name).busy_s)

    sim = layer("sim")
    steps = sim.extra.get("steps", 0)
    self_s("sim")
    metrics["sim.steps"] = per_pass(steps)
    metrics["sim.ns_per_step"] = _ratio(sim.self_s * 1e9, steps)
    for name in ("cores.cpu", "cores.mttop"):
        calls(name)
        self_s(name)

    batch, scalar = layer("mem.port.batch"), layer("mem.port.scalar")
    batch_ops = batch.extra.get("ops", 0)
    in_batch = scalar.extra.get("in_batch", 0)
    calls("mem.port.batch")
    metrics["mem.port.batch.ops"] = per_pass(batch_ops)
    for _, label in BATCH_BUCKETS:
        metrics[f"mem.port.batch.ops_hist.{label}"] = per_pass(
            batch.extra.get("hist." + label, 0))
    self_s("mem.port.batch")
    metrics["mem.port.batch.fallback_ratio"] = _ratio(in_batch, batch_ops)
    calls("mem.port.scalar")
    self_s("mem.port.scalar")
    port_ops = batch_ops + scalar.calls - in_batch
    metrics["mem.port.ns_per_op"] = _ratio(
        (batch.self_s + scalar.self_s) * 1e9, port_ops)

    self_s("mem.private")
    replay = layer("mem.replay")
    lookups = replay.extra.get("lookups", 0)
    self_s("mem.replay")
    metrics["mem.replay.trace_cache_hit_ratio"] = _ratio(
        lookups - min(lookups, replay.extra.get("parses", 0)), lookups)
    calls("vm.translate")
    self_s("vm.translate")
    coherence = layer("coherence")
    calls("coherence")
    self_s("coherence")
    metrics["coherence.fast_hit_ratio"] = _ratio(
        coherence.extra.get("fast_hits", 0), coherence.calls)
    self_s("baseline.cpu")
    self_s("baseline.gpu")
    for name in metrics:
        if name.endswith("_s") or ".ns_per_" in name:
            metrics[name] *= time_scale
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics
