"""Batched memory access: the op encoding and the reference scalar loop.

A core (or workload) may hand its memory port a whole batch of operations
at once — a vector load/store, or an MTTOP warp's lanes — instead of one
call per word.  A batch is a sequence of ``(kind, vaddr, a, b)`` tuples
run strictly in order, so its values, latencies and every statistics
counter equal the same ops issued one by one through the scalar port
methods.

:func:`scalar_run_batch` is that one-by-one loop.  It works against any
:class:`~repro.mem.port.MemoryPort` and is what the APU baseline's port
runs.  :class:`~repro.mem.port.CoreMemoryPort` runs the same loop with
its TLB-hit + L1-hit path inlined, falling back to the scalar methods
for every other op.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

#: Operation kind codes used in batch columns.
OP_LOAD = 0
OP_STORE = 1
OP_ATOMIC_ADD = 2
OP_ATOMIC_CAS = 3

#: A batch op: ``(kind, vaddr, operand_a, operand_b)``.  ``operand_a`` is
#: the stored value / atomic delta / CAS expected value; ``operand_b`` is
#: the CAS new value (0 otherwise).
BatchOp = Tuple[int, int, int, int]

#: Batch results: per-op values (None for stores) and latencies.
BatchResult = Tuple[List[object], List[int]]


def scalar_op(port, kind: int, vaddr: int, a: int, b: int):
    """Execute one op through the scalar port methods; ``(value, latency)``."""
    if kind == OP_LOAD:
        return port.load(vaddr)
    if kind == OP_STORE:
        return None, port.store(vaddr, a)
    if kind == OP_ATOMIC_ADD:
        return port.atomic_add(vaddr, a)
    if kind == OP_ATOMIC_CAS:
        return port.atomic_cas(vaddr, a, b)
    raise ValueError(f"unknown batch op kind {kind!r}")


def scalar_run_batch(port, vaddrs: Sequence[int],
                     kinds: Optional[Sequence[int]],
                     vals: Optional[Sequence[int]],
                     vals2: Optional[Sequence[int]]) -> BatchResult:
    """Reference implementation: a plain loop over the scalar port methods.

    ``kinds is None`` means every op is a load.  Works against any
    :class:`~repro.mem.port.MemoryPort`.
    """
    n = len(vaddrs)
    values: List[object] = [None] * n
    lats = [0] * n
    if kinds is None:
        load = port.load
        for i in range(n):
            values[i], lats[i] = load(vaddrs[i])
        return values, lats
    for i in range(n):
        values[i], lats[i] = scalar_op(
            port, kinds[i], vaddrs[i],
            vals[i] if vals is not None else 0,
            vals2[i] if vals2 is not None else 0)
    return values, lats


def split_ops(ops: Sequence[BatchOp]):
    """Split ``(kind, vaddr, a, b)`` tuples into columns.

    Returns ``(vaddrs, kinds, vals, vals2)`` with ``kinds`` collapsed to
    ``None`` when every op is a load.
    """
    if not ops:
        return [], None, None, None
    kinds, vaddrs, vals, vals2 = map(list, zip(*ops))
    if not any(kinds):
        return vaddrs, None, None, None
    return vaddrs, kinds, vals, vals2
