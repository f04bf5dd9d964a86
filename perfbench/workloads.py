"""The benchmark's three workloads and their output checks.

Each workload is set up once (imports, inputs) and then runs *passes*.
A pass is one complete unit a user waits for — ``repro run all`` on the
default grid, or one grid DSE over the 18-shape space — against a fresh
empty result store, on the serial backend, in this process.  Checking a
pass's output is a separate, untimed step, so the per-layer trace sees
only the pass itself.  A pass can be repeated on its warm store to show
that the store serves every point without simulating any.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench.probe import probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "experiments", "golden",
                      "all_sweeps_default.txt")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

KB = 1024
MB = 1024 * KB
#: The seeded mem_stream every DSE shape is scored on: 20k ops over a
#: 32 KiB footprint (4096 8-byte words), between the 16 and 64 KiB L1s.
STREAM = {"ops": 20_000, "words": 4096, "locality": 0.95, "atomics": 0.05}
#: Counter prefixes that belong to cores and the engine, which cache-only
#: replay does not model; everything else must match full simulation.
NON_HIERARCHY_PREFIXES = ("cpu", "mttop", "engine.", "xthreads.", "mifd.",
                          "sched")


def timed_serial_backend():
    """A serial backend that records the host seconds of every point,
    and a host-speed probe taken just before each point."""
    from repro.harness.backends import SerialBackend

    class TimedSerialBackend(SerialBackend):
        def __init__(self) -> None:
            super().__init__()
            self.point_s: List[float] = []
            self.probe_s: List[float] = []

        def run_iter(self, points):
            self.probe_s.append(probe())
            started = time.perf_counter()
            for done, item in enumerate(super().run_iter(points), 1):
                self.point_s.append(time.perf_counter() - started)
                yield item
                if done < len(points):
                    self.probe_s.append(probe())
                started = time.perf_counter()

    return TimedSerialBackend()


@dataclass
class PassResult:
    """What one pass did; ``failed`` and ``problems`` come from the check.

    ``seconds`` and ``point_s`` are host seconds, probes excluded.
    """

    seconds: float
    point_s: List[float]
    probe_s: List[float]
    attempted: int
    simulated: int
    output: str
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Whatever the check needs from the pass (store, explorer, ...).
    context: object = None


class Workload:
    """One benchmark workload: set up once, then run and check passes."""

    name = ""
    #: Passes every run makes at least, so the tail percentile below has
    #: at least ten samples beyond it.
    min_passes = 1
    #: The percentile reported as ``point_ms_tail``.
    tail_percentile = 50

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self._stores = 0

    def setup(self) -> None:
        raise NotImplementedError

    def new_store_dir(self) -> str:
        self._stores += 1
        return os.path.join(self.workdir, f"store-{self._stores}")

    def run_pass(self, store_dir: str) -> PassResult:
        raise NotImplementedError

    def check_pass(self, result: PassResult) -> None:
        """Fill in ``result.problems`` and ``result.failed``."""
        raise NotImplementedError

    def final_checks(self) -> List[str]:
        """Checks made once per run, after the passes."""
        return []


class PaperGrid(Workload):
    """``repro run all`` on the default grid, byte-compared to the golden."""

    name = "paper_grid"
    min_passes = 2          # 66 point samples
    tail_percentile = 75    # 16 samples beyond it

    def setup(self) -> None:
        from repro.harness import get_spec, spec_names

        self.specs = [get_spec(name) for name in spec_names()]
        self.points = sum(len(spec.build_points(full=False))
                          for spec in self.specs)
        with open(GOLDEN, encoding="utf-8") as handle:
            self.golden = handle.read()

    def run_pass(self, store_dir: str) -> PassResult:
        from repro.errors import ReproError
        from repro.harness import SweepRunner
        from repro.store import FileStore

        backend = timed_serial_backend()
        runner = SweepRunner(store=FileStore(store_dir), backend=backend)
        blocks: List[str] = []
        errors: List[str] = []
        simulated = 0
        started = time.perf_counter()
        for spec in self.specs:
            try:
                outcome = runner.run_spec(spec, full=False)
            except ReproError as error:
                errors.append(f"{spec.name}: {error}")
                continue
            simulated += outcome.points_total - outcome.points_from_cache
            blocks.append(spec.render(outcome.result))
        seconds = time.perf_counter() - started - sum(backend.probe_s)
        return PassResult(seconds, backend.point_s, backend.probe_s,
                          self.points, simulated, "\n\n".join(blocks) + "\n",
                          problems=errors)

    def check_pass(self, result: PassResult) -> None:
        if result.output != self.golden:
            result.problems.append(
                "rendered sweeps differ from "
                + os.path.relpath(GOLDEN, ROOT))
        if result.problems:
            result.failed = result.attempted


class _Dse(Workload):
    """Grid DSE over 18 ccsvm shapes scored on one seeded mem_stream:
    ``cpu.l1_size_bytes`` 16/32/64 KiB x ``l2.total_size_bytes``
    1/2/4 MiB x ``l3.enabled``."""

    def space(self):
        raise NotImplementedError

    def axes(self):
        from repro.dse import BoolAxis, CategoricalAxis

        return (CategoricalAxis("cpu.l1_size_bytes", (16 * KB, 32 * KB, 64 * KB)),
                CategoricalAxis("l2.total_size_bytes", (1 * MB, 2 * MB, 4 * MB)),
                BoolAxis("l3.enabled"))

    def setup(self) -> None:
        from repro.workloads.registry import load_builtin_workloads

        load_builtin_workloads()
        self.shape_space = self.space()
        self.shapes = self.shape_space.shapes()
        self.reference = load_reference().get(self.name, {}).get(str(self.seed))
        self.first_output: Optional[str] = None

    def run_pass(self, store_dir: str) -> PassResult:
        from repro.dse import DseError, Explorer, GridSearch
        from repro.store import FileStore

        backend = timed_serial_backend()
        store = FileStore(store_dir)
        explorer = Explorer(self.shape_space, objective="time_ms",
                            cost="sram_bytes", backend=backend, store=store)
        started = time.perf_counter()
        try:
            exploration = explorer.explore(GridSearch(), include_dominated=True)
            output, errors = exploration.result.to_csv(), []
        except DseError as error:
            output, errors = "", [str(error)]
        seconds = time.perf_counter() - started - sum(backend.probe_s)
        return PassResult(seconds, backend.point_s, backend.probe_s,
                          len(self.shapes), explorer.stats.points_simulated,
                          output, problems=errors, context=(explorer, store))

    def check_pass(self, result: PassResult) -> None:
        """Every shape stored and verified; the frontier bytes equal the
        reference recorded for this seed, and the run's first pass."""
        from repro.store import point_cache_key

        explorer, store = result.context
        result.context = None
        unverified = 0
        for shape in self.shapes:
            point = explorer.point_for(shape, None)
            entry = store.load(point.spec, point_cache_key(point))
            if entry is None or not all(row.get("verified") is True
                                        for row in entry.rows):
                unverified += 1
        if unverified:
            result.problems.append(f"{unverified} shapes unverified")
        digest = frontier_digest(result.output)
        if self.reference is not None and digest != self.reference:
            result.problems.append(
                f"frontier sha256 {digest} differs from the reference "
                f"{self.reference} recorded for seed {self.seed}")
        if self.first_output is None:
            self.first_output = result.output
        elif result.output != self.first_output:
            result.problems.append("frontier differs from the first pass")
        if result.problems:
            result.failed = result.attempted


class DseFull(_Dse):
    """Each shape fully simulates the stream: cores, engine, ports."""

    name = "dse_full"
    min_passes = 2          # 36 point samples
    tail_percentile = 70    # 10 samples beyond it

    def space(self):
        from repro.dse import ShapeSpace

        return ShapeSpace("mem_stream", system="ccsvm", axes=self.axes(),
                          params=STREAM, seed=self.seed,
                          name="perfbench-dse-full")


class DseReplay(_Dse):
    """Each shape replays the captured stream cache-only (``--replay``)."""

    name = "dse_replay"
    min_passes = 3          # 54 point samples
    tail_percentile = 80    # 10 samples beyond it

    def setup(self) -> None:
        from repro.mem.replay import replay_trace
        from repro.workloads.trace_replay import capture_trace

        self.trace_path = os.path.join(self.workdir, "mem_stream.trace.json")
        trace = capture_trace("mem_stream", seed=self.seed,
                              path=self.trace_path, **STREAM)
        if not trace.meta.get("verified"):
            raise RuntimeError("the captured mem_stream failed its own check")
        super().setup()
        # First call: parse the trace file and compile its replay program,
        # which every later shape reuses.
        replay_trace(self.trace_path, self.shape_space.config(self.shapes[0]))

    def space(self):
        from repro.dse import ShapeSpace

        return ShapeSpace("cache_replay", system="ccsvm", axes=self.axes(),
                          params={"trace": self.trace_path},
                          name="perfbench-dse-replay")

    def final_checks(self) -> List[str]:
        """Replay of one seed-chosen shape is counter-exact against full
        simulation of the same trace."""
        from repro.mem.replay import replay_trace
        from repro.workloads.trace_replay import run_replay

        shape = self.shapes[self.seed % len(self.shapes)]
        config = self.shape_space.config(shape)
        full = hierarchy_counters(run_replay(self.trace_path,
                                             config=config).counters)
        fast = hierarchy_counters(
            replay_trace(self.trace_path, config).stats_snapshot())
        if full != fast:
            differing = sorted(name for name in set(full) | set(fast)
                               if full.get(name) != fast.get(name))
            return [f"replay counters differ from full simulation on "
                    f"{shape.shape_id}: {', '.join(differing[:5])}"]
        return []


def hierarchy_counters(counters: Dict[str, int]) -> Dict[str, int]:
    return {name: value for name, value in counters.items()
            if not name.startswith(NON_HIERARCHY_PREFIXES)}


def frontier_digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()


def load_reference() -> Dict[str, Dict[str, str]]:
    """Recorded frontier digests: ``{workload: {seed: sha256}}``."""
    try:
        with open(REFERENCE, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


WORKLOADS = {cls.name: cls for cls in (PaperGrid, DseFull, DseReplay)}
