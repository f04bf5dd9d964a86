"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes one untraced pass, then wraps each layer's entry
points (see ``perfbench/layers.py``) and reports per-layer metrics per
traced pass.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; lines
before it describe the run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # Run as a script: make this package and the repro sources importable.
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import layers, probe  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Set-up is repeated in this many fresh processes besides this one.
SETUP_REPEATS = 2
#: Host-speed probes taken right after set-up, to scale its time.
SETUP_PROBE_COUNT = 9


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def nearest_rank(count: int, pct: float) -> int:
    """The 1-based rank of the nearest-rank ``pct`` percentile."""
    return max(1, math.ceil(pct / 100 * count))


def _declared_metrics() -> Dict[str, Dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def _setup_in_fresh_process(args: argparse.Namespace) -> float:
    """Time the workload's set-up in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(completed.stdout.splitlines()[-1])["setup_s"])


def _traced(tracer, func, *args):
    """``func(*args)``, with every layer wrapped into ``tracer`` if given."""
    if tracer is None:
        return func(*args)
    layers.install(tracer)
    try:
        return func(*args)
    finally:
        tracer.uninstall()


class Run:
    """Passes of one workload, with their checks and totals."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.passes = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def measure(self, tracer=None) -> object:
        self.last_store = self.workload.new_store_dir()
        result = _traced(tracer, self.workload.run_pass, self.last_store)
        self.passes.append(result)
        return result

    def check(self, result) -> None:
        self.workload.check_pass(result)
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems.extend(result.problems)

    def warm_pass(self, tracer=None) -> None:
        """Rerun on the last pass's store: 0 points simulated, same bytes."""
        result = _traced(tracer, self.workload.run_pass, self.last_store)
        self.workload.check_pass(result)
        if result.simulated:
            result.problems.append(f"{result.simulated} points simulated")
        if result.output != self.passes[-1].output:
            result.problems.append("output differs from the cold pass")
        if result.problems:
            self.failed += result.attempted
            self.problems.extend(f"warm pass: {p}" for p in result.problems)

    def final_checks(self) -> None:
        problems = self.workload.final_checks()
        self.failed += len(problems)
        self.problems.extend(problems)


def _timings(passes, tail: int) -> Dict[str, float]:
    """Throughput, median and tail point time of ``passes``, from their
    times as given (unscaled or scaled)."""
    point_s = sorted(s for result in passes for s in result.point_s)
    return {"points_per_s": sum(r.attempted for r in passes)
            / sum(r.seconds for r in passes),
            "point_ms_p50": statistics.median(point_s) * 1e3,
            "point_ms_tail": point_s[nearest_rank(len(point_s), tail) - 1] * 1e3}


def _scaled(result):
    """``result`` with its times at the reference host speed: each point
    by the probe taken just before it, the pass by its median probe."""
    return dataclasses.replace(
        result, seconds=result.seconds * probe.scale(result.probe_s),
        point_s=[s * probe.scale([c])
                 for s, c in zip(result.point_s, result.probe_s)])


def _end_to_end(run: Run, workload, setup_samples: List[float]
                ) -> Dict[str, float]:
    samples = sum(len(result.point_s) for result in run.passes)
    tail = workload.tail_percentile
    print(f"point_ms_tail is p{tail} of {samples} point samples "
          f"({samples - nearest_rank(samples, tail)} beyond it) over "
          f"{len(run.passes)} passes")
    raw = _timings(run.passes, tail)
    print("unscaled host time: " + ", ".join(
        f"{name} {value:.4f}" for name, value in raw.items()))
    print("scaled setup_s samples: "
          + ", ".join(f"{s:.4f}" for s in setup_samples))
    return {
        **_timings([_scaled(result) for result in run.passes], tail),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_frac": 1 - min(run.failed, run.attempted) / run.attempted,
    }


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(ROOT, ".perfbench-work"))
    try:
        started = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_s = time.perf_counter() - started
        setup_s *= probe.scale(probe.probes(SETUP_PROBE_COUNT))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = _measure(args, workload, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


def _measure(args: argparse.Namespace, workload, setup_s: float) -> dict:
    declared = _declared_metrics()
    run = Run(workload)
    if args.trace:
        group = "per_layer"
        base = run.measure()
        run.check(base)
        tracer = Tracer()
        traced = []
        while not traced or sum(r.seconds for r in traced) < args.seconds:
            result = run.measure(tracer)
            run.check(result)
            traced.append(result)
        warm = Tracer()
        run.warm_pass(warm)
        overhead = (statistics.mean(_scaled(r).seconds for r in traced)
                    / _scaled(base).seconds)
        factor = probe.scale([s for r in traced for s in r.probe_s])
        metrics = layers.report(tracer, len(traced), warm, overhead, factor)
    else:
        group = "end_to_end"
        setup_samples = [setup_s] + [_setup_in_fresh_process(args)
                                     for _ in range(SETUP_REPEATS)]
        elapsed = 0.0
        while len(run.passes) < workload.min_passes or elapsed < args.seconds:
            result = run.measure()
            run.check(result)
            elapsed += result.seconds
        run.warm_pass()
        metrics = _end_to_end(run, workload, setup_samples)
    run.final_checks()
    for problem in run.problems:
        print(f"check failed: {problem}")
    missing = set(declared[group]) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": min(run.failed, run.attempted),
            "metrics": {name: {"value": value, "unit": declared[group][name]}
                        for name, value in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
