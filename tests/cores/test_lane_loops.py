"""The MTTOP core's two lane loops give bit-for-bit identical runs.

``batch_access=true`` (the default) hands each warp step's consecutive lane
memory operations to the port as one batch; ``batch_access=false`` issues
them one lane at a time.  The config documents the two as identical, so
every MTTOP workload must produce the same rows, the same simulated time and
the same counter registry, in the same insertion order, either way.
"""

from __future__ import annotations

import pytest

from repro.api import run_scenario_point
from repro.systems import system_config
from repro.workloads.registry import get_variant

CASES = {
    "matmul": {"size": 8},
    "apsp": {"size": 8},
    "barnes_hut": {"bodies": 16, "timesteps": 1},
    "sparse_matmul": {"size": 16},
}


@pytest.mark.parametrize("workload", sorted(CASES))
def test_batched_and_scalar_lane_loops_agree(workload):
    params = CASES[workload]
    runs = {}
    for batched in (True, False):
        overrides = {"batch_access": batched}
        config = system_config("ccsvm", overrides)
        assert config.batch_access is batched
        result = get_variant(workload, "ccsvm").func(config, **params)
        point = run_scenario_point(workload, "ccsvm", dict(params), overrides)
        runs[batched] = (result, point)
    (batched, batched_point), (scalar, scalar_point) = runs[True], runs[False]
    assert batched.verified and scalar.verified
    assert batched.time_ps == scalar.time_ps
    assert list(batched.counters.items()) == list(scalar.counters.items())
    assert batched == scalar
    assert batched_point.rows == scalar_point.rows
    assert list(batched_point.stats.items()) == \
        list(scalar_point.stats.items())
    # The run really went through the warp loops.
    assert batched.counters["mttop0.lane_instructions"] > 0
