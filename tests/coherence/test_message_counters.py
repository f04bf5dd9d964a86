"""Network and coherence-message counters pinned against a recorded fixture.

``golden/message_counters.json`` holds every ``network.*`` and
``coherence.msg.*`` counter, in insertion order, of two seeded workloads on
each CCSVM preset: the host-only ``mem_stream`` reference stream (with
atomics, and a footprint large enough to evict from the L1s and, on
``ccsvm-small``, the L2) and a small MTTOP ``apsp`` run, whose barriers
drive forwards, upgrades and invalidation/ack rounds.

The ``port.fast_path = False`` oracle and the fused path share the same
message-charging code, so the counter-equivalence tests cannot see a wrong
route cost or a counter charged out of order; this fixture can.  It was
recorded before the network model gained its route table.  Re-record it
(only for a deliberate change of what is counted) with::

    PYTHONPATH=src python tests/coherence/test_message_counters.py --record
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.systems import system_config
from repro.workloads.registry import get_variant

FIXTURE = os.path.join(os.path.dirname(__file__), "golden",
                       "message_counters.json")

PRESETS = ("ccsvm", "ccsvm-l3", "ccsvm-no-tlb", "ccsvm-small")

CASES = {
    "mem_stream": dict(seed=3, ops=3000, words=32768, locality=0.5,
                       atomics=0.10),
    "apsp": dict(size=8),
}

_PREFIXES = ("network.", "coherence.msg.")


def message_counters(preset: str, workload: str):
    """``[name, value]`` pairs of the message counters, insertion order."""
    result = get_variant(workload, "ccsvm").func(system_config(preset),
                                                 **CASES[workload])
    assert result.verified
    return [[name, value] for name, value in result.counters.items()
            if name.startswith(_PREFIXES)]


def _record() -> None:
    recorded = {f"{preset}/{workload}": message_counters(preset, workload)
                for preset in PRESETS for workload in CASES}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1)
        handle.write("\n")


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_case(recorded):
    assert sorted(recorded) == sorted(f"{preset}/{workload}"
                                      for preset in PRESETS
                                      for workload in CASES)


@pytest.mark.parametrize("workload", sorted(CASES))
@pytest.mark.parametrize("preset", PRESETS)
def test_message_counters_match_fixture(recorded, preset, workload):
    assert message_counters(preset, workload) == \
        recorded[f"{preset}/{workload}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_message_counters.py --record")
    _record()
