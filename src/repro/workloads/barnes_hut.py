"""Barnes-Hut n-body simulation (Figure 7).

The paper ports the pthreads Barnes-Hut benchmark to xthreads to show that
CCSVM makes *pointer-chasing, recursive, frequently-toggling* code viable on
a CPU/MTTOP chip: every timestep interleaves a sequential phase (the CPU
builds the octree) with a parallel phase (the MTTOP threads traverse the
tree to compute forces), and on a loosely-coupled chip the cost of switching
between those phases kills any benefit.

The implementation uses fixed-point integer arithmetic (the simulator's
memory holds 64-bit words) and a monopole force approximation without a
square root; physical accuracy is irrelevant here — what the experiment
measures is the memory behaviour of building and traversing a pointer-based
octree shared between core types.

Variants: CCSVM/xthreads, a single APU CPU core, and a 4-thread pthreads run
on the APU (there is no OpenCL version, exactly as in the paper).
Correctness is checked by comparing every variant's final body positions
against a functional execution of the same algorithm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baseline.apu import AMDAPU
from repro.config import APUSystemConfig, CCSVMSystemConfig, ccsvm_system
from repro.core.chip import CCSVMChip
from repro.core.xthreads.api import CreateMThread, WaitCond, mttop_signal
from repro.cores.interpreter import OP_TABLE, ZERO_OUTCOME, OpOutcome, ThreadContext
from repro.cores.isa import Compute, Load, Malloc, Store, word_addr
from repro.workloads.base import WorkloadResult
from repro.workloads.generators import Body, nbody_bodies
from repro.workloads.registry import register_variant

WORKLOAD = "barnes_hut"

#: Side length of the (cubic) simulation space in fixed-point units.
SPACE = 1 << 16

#: Octree node layout (word offsets within a node).
F_CENTER_X, F_CENTER_Y, F_CENTER_Z = 0, 1, 2
F_HALF = 3
F_MASS = 4
F_SUM_X, F_SUM_Y, F_SUM_Z = 5, 6, 7
F_CHILD0 = 8          # eight children: offsets 8..15
F_BODY = 16           # body index + 1 when the node is a single-body leaf
F_COUNT = 17          # bodies contained in the subtree
NODE_WORDS = 18

#: Maximum insertion depth; below this, bodies simply accumulate in a node.
MAX_DEPTH = 12

#: Integration divisor applied to accelerations when updating positions.
STEP_DIVISOR = 1 << 8


# --------------------------------------------------------------------------- #
# Body array layout helpers
# --------------------------------------------------------------------------- #
def _body_arrays(count: int, allocate) -> Dict[str, int]:
    """Allocate the structure-of-arrays body storage."""
    names = ("pos_x", "pos_y", "pos_z", "mass", "acc_x", "acc_y", "acc_z")
    return {name: allocate(count * 8) for name in names}


def _octant(x: int, y: int, z: int, cx: int, cy: int, cz: int) -> int:
    """Index (0..7) of the child octant containing ``(x, y, z)``."""
    return (1 if x >= cx else 0) | (2 if y >= cy else 0) | (4 if z >= cz else 0)


def _child_center(cx: int, cy: int, cz: int, half: int, octant: int) -> tuple:
    quarter = max(1, half // 2)
    return (cx + quarter if octant & 1 else cx - quarter,
            cy + quarter if octant & 2 else cy - quarter,
            cz + quarter if octant & 4 else cz - quarter,
            quarter)


# --------------------------------------------------------------------------- #
# Generator phases (shared by every variant)
# --------------------------------------------------------------------------- #
def load_bodies_phase(arrays: Dict[str, int], bodies: Sequence[Body]) -> object:
    """Write the initial body state into memory (host, sequential)."""
    for index, body in enumerate(bodies):
        yield Store(word_addr(arrays["pos_x"], index), body.x)
        yield Store(word_addr(arrays["pos_y"], index), body.y)
        yield Store(word_addr(arrays["pos_z"], index), body.z)
        yield Store(word_addr(arrays["mass"], index), body.mass)
        yield Store(word_addr(arrays["acc_x"], index), 0)
        yield Store(word_addr(arrays["acc_y"], index), 0)
        yield Store(word_addr(arrays["acc_z"], index), 0)


def build_tree_phase(arrays: Dict[str, int], count: int, pool_base: int,
                     pool_cursor: int) -> object:
    """Sequential octree construction (the CPU phase of each timestep).

    Nodes are allocated from a pre-allocated pool by bumping the cursor word
    at ``pool_cursor``; the root is always the pool's first node.  Yields
    the loads/stores a pointer-based builder performs.  The root node's
    address is left in the cursor word's neighbour? — no: the root is
    ``pool_base`` by construction, which every force thread knows.
    """
    def node_addr(index: int) -> int:
        return pool_base + index * NODE_WORDS * 8

    # Reset the pool cursor and initialise the root node.
    yield Store(pool_cursor, 1)
    root = node_addr(0)
    for offset in range(NODE_WORDS):
        yield Store(root + offset * 8, 0)
    yield Store(root + F_CENTER_X * 8, SPACE // 2)
    yield Store(root + F_CENTER_Y * 8, SPACE // 2)
    yield Store(root + F_CENTER_Z * 8, SPACE // 2)
    yield Store(root + F_HALF * 8, SPACE // 2)

    for body_index in range(count):
        x = yield Load(word_addr(arrays["pos_x"], body_index))
        y = yield Load(word_addr(arrays["pos_y"], body_index))
        z = yield Load(word_addr(arrays["pos_z"], body_index))
        mass = yield Load(word_addr(arrays["mass"], body_index))

        node = root
        depth = 0
        while True:
            count_before = yield Load(node + F_COUNT * 8)
            node_mass = yield Load(node + F_MASS * 8)
            sum_x = yield Load(node + F_SUM_X * 8)
            sum_y = yield Load(node + F_SUM_Y * 8)
            sum_z = yield Load(node + F_SUM_Z * 8)
            yield Store(node + F_COUNT * 8, count_before + 1)
            yield Store(node + F_MASS * 8, node_mass + mass)
            yield Store(node + F_SUM_X * 8, sum_x + mass * x)
            yield Store(node + F_SUM_Y * 8, sum_y + mass * y)
            yield Store(node + F_SUM_Z * 8, sum_z + mass * z)
            yield Compute(6)

            if count_before == 0:
                yield Store(node + F_BODY * 8, body_index + 1)
                break
            if depth >= MAX_DEPTH:
                # Depth cap: let the node aggregate several bodies.
                break

            cx = yield Load(node + F_CENTER_X * 8)
            cy = yield Load(node + F_CENTER_Y * 8)
            cz = yield Load(node + F_CENTER_Z * 8)
            half = yield Load(node + F_HALF * 8)

            if count_before == 1:
                # The node was a single-body leaf: push its body down first.
                existing = (yield Load(node + F_BODY * 8)) - 1
                yield Store(node + F_BODY * 8, 0)
                ex = yield Load(word_addr(arrays["pos_x"], existing))
                ey = yield Load(word_addr(arrays["pos_y"], existing))
                ez = yield Load(word_addr(arrays["pos_z"], existing))
                emass = yield Load(word_addr(arrays["mass"], existing))
                octant = _octant(ex, ey, ez, cx, cy, cz)
                child = yield Load(node + (F_CHILD0 + octant) * 8)
                if child == 0:
                    cursor = yield Load(pool_cursor)
                    yield Store(pool_cursor, cursor + 1)
                    child = node_addr(cursor)
                    ncx, ncy, ncz, nhalf = _child_center(cx, cy, cz, half, octant)
                    for offset in range(NODE_WORDS):
                        yield Store(child + offset * 8, 0)
                    yield Store(child + F_CENTER_X * 8, ncx)
                    yield Store(child + F_CENTER_Y * 8, ncy)
                    yield Store(child + F_CENTER_Z * 8, ncz)
                    yield Store(child + F_HALF * 8, nhalf)
                    yield Store(node + (F_CHILD0 + octant) * 8, child)
                ccount = yield Load(child + F_COUNT * 8)
                cmass = yield Load(child + F_MASS * 8)
                csx = yield Load(child + F_SUM_X * 8)
                csy = yield Load(child + F_SUM_Y * 8)
                csz = yield Load(child + F_SUM_Z * 8)
                yield Store(child + F_COUNT * 8, ccount + 1)
                yield Store(child + F_MASS * 8, cmass + emass)
                yield Store(child + F_SUM_X * 8, csx + emass * ex)
                yield Store(child + F_SUM_Y * 8, csy + emass * ey)
                yield Store(child + F_SUM_Z * 8, csz + emass * ez)
                if ccount == 0:
                    yield Store(child + F_BODY * 8, existing + 1)
                yield Compute(8)

            # Now descend with the new body.
            octant = _octant(x, y, z, cx, cy, cz)
            child = yield Load(node + (F_CHILD0 + octant) * 8)
            if child == 0:
                cursor = yield Load(pool_cursor)
                yield Store(pool_cursor, cursor + 1)
                child = node_addr(cursor)
                ncx, ncy, ncz, nhalf = _child_center(cx, cy, cz, half, octant)
                for offset in range(NODE_WORDS):
                    yield Store(child + offset * 8, 0)
                yield Store(child + F_CENTER_X * 8, ncx)
                yield Store(child + F_CENTER_Y * 8, ncy)
                yield Store(child + F_CENTER_Z * 8, ncz)
                yield Store(child + F_HALF * 8, nhalf)
                yield Store(node + (F_CHILD0 + octant) * 8, child)
            node = child
            depth += 1


def force_phase_kernel(tid: int, args) -> object:
    """Compute accelerations for bodies ``tid, tid+stride, ...``.

    A pointer-chasing traversal of the octree with an explicit stack and the
    Barnes-Hut opening criterion (theta = 0.5); the force uses a monopole
    ``m / d^2`` approximation in integer arithmetic.
    """
    arrays, root, count, stride = args
    for body_index in range(tid, count, stride):
        x = yield Load(word_addr(arrays["pos_x"], body_index))
        y = yield Load(word_addr(arrays["pos_y"], body_index))
        z = yield Load(word_addr(arrays["pos_z"], body_index))
        acc_x = acc_y = acc_z = 0
        stack = [root]
        while stack:
            node = stack.pop()
            node_mass = yield Load(node + F_MASS * 8)
            if node_mass == 0:
                continue
            node_count = yield Load(node + F_COUNT * 8)
            body_tag = yield Load(node + F_BODY * 8)
            if node_count == 1 and body_tag - 1 == body_index:
                continue
            half = yield Load(node + F_HALF * 8)
            sum_x = yield Load(node + F_SUM_X * 8)
            sum_y = yield Load(node + F_SUM_Y * 8)
            sum_z = yield Load(node + F_SUM_Z * 8)
            com_x = sum_x // node_mass
            com_y = sum_y // node_mass
            com_z = sum_z // node_mass
            dx, dy, dz = com_x - x, com_y - y, com_z - z
            dist2 = dx * dx + dy * dy + dz * dz + 1
            yield Compute(12)
            # Open the node unless it is a leaf or far enough (theta = 0.5,
            # i.e. open when (2*half)^2 >= 0.25 * dist2).
            if node_count == 1 or 16 * half * half < dist2:
                acc_x += node_mass * dx // dist2
                acc_y += node_mass * dy // dist2
                acc_z += node_mass * dz // dist2
                yield Compute(9)
            else:
                for child_index in range(8):
                    child = yield Load(node + (F_CHILD0 + child_index) * 8)
                    if child != 0:
                        stack.append(child)
        yield Store(word_addr(arrays["acc_x"], body_index), acc_x)
        yield Store(word_addr(arrays["acc_y"], body_index), acc_y)
        yield Store(word_addr(arrays["acc_z"], body_index), acc_z)


def force_phase_xthreads_kernel(tid: int, args) -> object:
    """xthreads wrapper around the force phase: compute, then signal."""
    arrays, root, count, stride, done = args
    yield from force_phase_kernel(tid, (arrays, root, count, stride))
    yield from mttop_signal(done, tid)


def update_phase(arrays: Dict[str, int], count: int) -> object:
    """Sequential position update (the CPU phase closing each timestep)."""
    for body_index in range(count):
        for axis in ("x", "y", "z"):
            position = yield Load(word_addr(arrays[f"pos_{axis}"], body_index))
            acceleration = yield Load(word_addr(arrays[f"acc_{axis}"], body_index))
            yield Compute(3)
            new_position = position + acceleration // STEP_DIVISOR
            new_position = max(0, min(SPACE - 1, new_position))
            yield Store(word_addr(arrays[f"pos_{axis}"], body_index), new_position)


# --------------------------------------------------------------------------- #
# Functional reference executor
# --------------------------------------------------------------------------- #
_LOAD, _STORE = OP_TABLE[Load], OP_TABLE[Store]


class _FunctionalMemory:
    """Zero-cost executor used to produce the golden final positions."""

    def __init__(self) -> None:
        self.words: Dict[int, int] = {}
        self._next = 0x1000

    def allocate(self, size: int) -> int:
        address = self._next
        self._next += size + (-size % 8)
        return address

    def run(self, program) -> None:
        context = ThreadContext(tid=0, program=program)
        words = self.words
        while True:
            operation = context.next_operation()
            if operation is None:
                return
            entry = OP_TABLE[type(operation)]
            if entry is _LOAD:
                context.complete(operation, OpOutcome(
                    value=words.get(operation.vaddr & ~7, 0)))
                continue
            if entry is _STORE:
                words[operation.vaddr & ~7] = operation.value
            context.complete(operation, ZERO_OUTCOME)

    def read_array(self, base: int, count: int) -> List[int]:
        return [self.words.get((base + 8 * i) & ~7, 0) for i in range(count)]


def reference_positions(bodies: Sequence[Body], timesteps: int,
                        threads: int = 1) -> List[int]:
    """Golden final positions (x, y, z interleaved per body)."""
    memory = _FunctionalMemory()
    count = len(bodies)
    arrays = _body_arrays(count, memory.allocate)
    pool_base = memory.allocate((count * (MAX_DEPTH + 2) + 8) * NODE_WORDS * 8)
    pool_cursor = memory.allocate(8)
    memory.run(load_bodies_phase(arrays, bodies))
    for _ in range(timesteps):
        memory.run(build_tree_phase(arrays, count, pool_base, pool_cursor))
        for tid in range(threads):
            memory.run(force_phase_kernel(tid, (arrays, pool_base, count, threads)))
        memory.run(update_phase(arrays, count))
    out: List[int] = []
    for index in range(count):
        out.append(memory.read_array(word_addr(arrays["pos_x"], index), 1)[0])
        out.append(memory.read_array(word_addr(arrays["pos_y"], index), 1)[0])
        out.append(memory.read_array(word_addr(arrays["pos_z"], index), 1)[0])
    return out


def _collect_positions(arrays: Dict[str, int], count: int, read_word) -> List[int]:
    out: List[int] = []
    for index in range(count):
        out.append(read_word(word_addr(arrays["pos_x"], index)))
        out.append(read_word(word_addr(arrays["pos_y"], index)))
        out.append(read_word(word_addr(arrays["pos_z"], index)))
    return out


def _pool_words(count: int) -> int:
    return (count * (MAX_DEPTH + 2) + 8) * NODE_WORDS


# --------------------------------------------------------------------------- #
# CCSVM / xthreads
# --------------------------------------------------------------------------- #
def run_ccsvm(bodies_count: int = 64, timesteps: int = 2, seed: int = 5,
              config: Optional[CCSVMSystemConfig] = None,
              threads: Optional[int] = None) -> WorkloadResult:
    """Barnes-Hut with xthreads: CPU builds the tree, MTTOPs compute forces."""
    system = config if config is not None else ccsvm_system()
    bodies = nbody_bodies(bodies_count, seed)
    if threads is None:
        threads = min(system.mttop.total_thread_contexts, bodies_count)
    expected = reference_positions(bodies, timesteps, threads)

    chip = CCSVMChip(system)
    chip.create_process(WORKLOAD)
    arrays = _body_arrays(bodies_count, chip.malloc)
    pool_base = chip.malloc(_pool_words(bodies_count) * 8)
    pool_cursor = chip.malloc(8)
    done = chip.malloc(threads * 8)
    for t in range(threads):
        chip.write_word(word_addr(done, t), 0)

    def host():
        yield from load_bodies_phase(arrays, bodies)
        for _ in range(timesteps):
            yield from build_tree_phase(arrays, bodies_count, pool_base, pool_cursor)
            for t in range(threads):
                yield Store(word_addr(done, t), 0)
            yield CreateMThread(force_phase_xthreads_kernel,
                                (arrays, pool_base, bodies_count, threads, done),
                                0, threads - 1)
            yield WaitCond(done, 0, threads - 1)
            yield from update_phase(arrays, bodies_count)

    result = chip.run(host())
    produced = _collect_positions(arrays, bodies_count, chip.read_word)
    return WorkloadResult(system="ccsvm_xthreads", workload=WORKLOAD,
                          params={"bodies": bodies_count, "timesteps": timesteps,
                                  "threads": threads},
                          time_ps=result.time_ps,
                          dram_accesses=result.dram_accesses,
                          verified=produced == expected,
                          counters=result.stats.to_dict())


# --------------------------------------------------------------------------- #
# Single AMD CPU core
# --------------------------------------------------------------------------- #
def run_cpu(bodies_count: int = 64, timesteps: int = 2, seed: int = 5,
            config: Optional[APUSystemConfig] = None) -> WorkloadResult:
    """Sequential Barnes-Hut on one APU CPU core."""
    apu = AMDAPU(config)
    bodies = nbody_bodies(bodies_count, seed)
    expected = reference_positions(bodies, timesteps, threads=1)

    arrays = _body_arrays(bodies_count, apu.allocate)
    pool_base = apu.allocate(_pool_words(bodies_count) * 8)
    pool_cursor = apu.allocate(8)

    def program():
        yield from load_bodies_phase(arrays, bodies)
        for _ in range(timesteps):
            yield from build_tree_phase(arrays, bodies_count, pool_base, pool_cursor)
            yield from force_phase_kernel(0, (arrays, pool_base, bodies_count, 1))
            yield from update_phase(arrays, bodies_count)

    run = apu.run_on_cpu(program())
    produced = _collect_positions(arrays, bodies_count, apu.memory.read_word)
    return WorkloadResult(system="apu_cpu", workload=WORKLOAD,
                          params={"bodies": bodies_count, "timesteps": timesteps},
                          time_ps=run.time_ps,
                          dram_accesses=apu.dram_accesses,
                          verified=produced == expected)


# --------------------------------------------------------------------------- #
# pthreads on the APU's four CPU cores
# --------------------------------------------------------------------------- #
def run_pthreads(bodies_count: int = 64, timesteps: int = 2, seed: int = 5,
                 num_threads: int = 4,
                 config: Optional[APUSystemConfig] = None) -> WorkloadResult:
    """The pthreads baseline of Figure 7: force phase across 4 CPU threads."""
    apu = AMDAPU(config)
    bodies = nbody_bodies(bodies_count, seed)
    expected = reference_positions(bodies, timesteps, threads=num_threads)

    machine = apu.pthreads(num_threads)
    arrays = _body_arrays(bodies_count, apu.allocate)
    pool_base = apu.allocate(_pool_words(bodies_count) * 8)
    pool_cursor = apu.allocate(8)

    machine.run_sequential(load_bodies_phase(arrays, bodies))
    for _ in range(timesteps):
        machine.run_sequential(
            build_tree_phase(arrays, bodies_count, pool_base, pool_cursor))
        machine.run_parallel([
            force_phase_kernel(tid, (arrays, pool_base, bodies_count,
                                     machine.num_threads))
            for tid in range(machine.num_threads)
        ])
        machine.run_sequential(update_phase(arrays, bodies_count))
    machine.join()

    produced = _collect_positions(arrays, bodies_count, apu.memory.read_word)
    return WorkloadResult(system="apu_pthreads", workload=WORKLOAD,
                          params={"bodies": bodies_count, "timesteps": timesteps,
                                  "threads": machine.num_threads},
                          time_ps=machine.total_time_ps,
                          dram_accesses=apu.dram_accesses,
                          verified=produced == expected)


# --------------------------------------------------------------------------- #
# Registry variants — uniform signature run(config, *, seed, **params)
# --------------------------------------------------------------------------- #
@register_variant(WORKLOAD, "cpu",
                  description="sequential tree build + force phase on one "
                              "APU CPU core")
def cpu_variant(config: Optional[APUSystemConfig] = None, *, seed: int = 5,
                bodies: int = 64, timesteps: int = 2) -> WorkloadResult:
    return run_cpu(bodies_count=bodies, timesteps=timesteps, seed=seed,
                   config=config)


@register_variant(WORKLOAD, "pthreads",
                  description="force phase across the APU's four CPU cores")
def pthreads_variant(config: Optional[APUSystemConfig] = None, *, seed: int = 5,
                     bodies: int = 64, timesteps: int = 2) -> WorkloadResult:
    return run_pthreads(bodies_count=bodies, timesteps=timesteps, seed=seed,
                        config=config)


@register_variant(WORKLOAD, "ccsvm",
                  description="xthreads force phase on the CCSVM chip "
                              "(no OpenCL version, as in the paper)")
def ccsvm_variant(config: Optional[CCSVMSystemConfig] = None, *, seed: int = 5,
                  bodies: int = 64, timesteps: int = 2) -> WorkloadResult:
    return run_ccsvm(bodies_count=bodies, timesteps=timesteps, seed=seed,
                     config=config)
