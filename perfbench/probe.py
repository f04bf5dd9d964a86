"""A fixed host-speed probe, used to scale measured host time to a
reference host speed.

The hosts this benchmark runs on share CPU cores with other tenants, and
their speed drifts by 20-40% over tens of seconds to minutes, which is
longer than a run.  A run therefore also times a fixed piece of pure
Python — a two-level set-associative cache walk over a fixed address list,
code of the same kind as the simulator's — once before every point and
after set-up.  No ``repro`` code runs in it, so it moves with the host,
not with the program under test.

Measured over 30 consecutive ``dse_replay`` passes in one process on a
2-core x86-64 container, the pass-to-pass spread of this walk (and of a
simpler dict-and-object loop) was 1.8-2.1 times the simulator's
(correlation 0.9), so host time is scaled by the *square root* of the
probe's slowdown::

    scaled = measured * (REFERENCE_S / probe seconds) ** EXPONENT

In those passes it cut the spread (IQR over median) of three-pass totals
from 8.1% to 2.0%.  Garbage collection is off while the probe runs, so a
heap grown by the program under test does not slow the probe.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Sequence

#: Probe time taken as the reference host speed (a typical probe on the
#: container named above), so scaled times read as host seconds there.
REFERENCE_S = 0.008
#: The probe's contention sensitivity relative to the simulator is ~2.
EXPONENT = 0.5


class _Line:
    __slots__ = ("tag", "dirty", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.dirty = False
        self.stamp = stamp


class _Cache:
    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [{} for _ in range(sets)]
        self.ways = ways
        self.clock = 0

    def access(self, address: int, write: bool) -> int:
        self.clock += 1
        tag = address >> 6
        lines = self.sets[tag % len(self.sets)]
        line = lines.get(tag)
        if line is not None:
            line.stamp = self.clock
            line.dirty = line.dirty or write
            return 1
        if len(lines) >= self.ways:
            victim = min(lines.values(), key=lambda entry: entry.stamp)
            del lines[victim.tag]
        lines[tag] = _Line(tag, self.clock)
        return 10


#: Mostly sequential words with every fifth access scattered over 4 MiB.
_ADDRESSES = [((i * 2654435761) % (1 << 22)) & ~7 if i % 5 == 0
              else (i * 8) % (1 << 16) for i in range(6000)]


def _walk() -> int:
    l1, l2 = _Cache(64, 8), _Cache(1024, 16)
    total = 0
    for index, address in enumerate(_ADDRESSES):
        latency = l1.access(address, index % 4 == 0)
        if latency > 1:
            latency += l2.access(address, False)
        total += latency
    return total


def probe() -> float:
    """Seconds one probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _walk()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def probes(count: int) -> List[float]:
    return [probe() for _ in range(count)]


def scale(samples: Sequence[float]) -> float:
    """The factor that turns host seconds measured alongside ``samples``
    into seconds at the reference host speed."""
    return (REFERENCE_S / statistics.median(samples)) ** EXPONENT
