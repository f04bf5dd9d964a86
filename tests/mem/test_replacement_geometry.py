"""Replacement policies and cache geometry, driven through *both* machines.

The same `repro.mem` levels underlie the CCSVM chip's coherent L1s and
the APU baseline's private hierarchies, so one set of cases covers both
assemblies: each case is expressed as a dotted-path configuration
override and asserted on the machine-level behaviour, proving the policy
and the geometry validation actually reach the built tag stores on each
machine (not just the standalone cache unit).
"""

import pytest

from repro.baseline.apu import AMDAPU
from repro.cache.replacement import (
    LRUReplacement,
    PseudoLRUReplacement,
    RandomReplacement,
)
from repro.config import amd_apu_system, apply_overrides, small_ccsvm_system
from repro.core.chip import CCSVMChip
from repro.errors import CacheError, ConfigurationError

POLICY_CLASSES = {"lru": LRUReplacement, "plru": PseudoLRUReplacement,
                  "random": RandomReplacement}

POLICIES = sorted(POLICY_CLASSES)


def _ccsvm_l1(policy):
    config = apply_overrides(small_ccsvm_system(),
                             {"cpu.l1_replacement": policy})
    chip = CCSVMChip(config)
    return chip.coherence._l1s["cpu0"].cache


def _apu_l1(policy):
    config = apply_overrides(amd_apu_system(), {"cpu.l1_replacement": policy})
    return AMDAPU(config).cpu_cores[0].hierarchy.l1


BUILDERS = {"ccsvm": _ccsvm_l1, "apu": _apu_l1}


class TestReplacementThroughBothMachines:
    @pytest.mark.parametrize("machine", sorted(BUILDERS))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_override_selects_policy_in_built_l1(self, machine, policy):
        cache = BUILDERS[machine](policy)
        assert cache.config.replacement == policy
        # A set's policy is built by its first fill.
        for set_index in range(cache._num_sets):
            cache.insert(set_index * cache.config.line_size)
        assert all(isinstance(p, POLICY_CLASSES[policy])
                   for p in cache._policies)

    @pytest.mark.parametrize("machine", sorted(BUILDERS))
    def test_lru_victim_order_in_built_l1(self, machine):
        cache = BUILDERS[machine]("lru")
        assoc = cache.config.associativity
        line = cache.config.line_size
        way_stride = cache._num_sets * line  # same set, different tags
        lines = [way * way_stride for way in range(assoc + 1)]
        for address in lines[:assoc]:
            cache.insert(address)
        cache.lookup(lines[0])  # touch the oldest: next victim is lines[1]
        _, victim = cache.insert(lines[assoc])
        assert victim is not None
        assert victim.line_address == lines[1]

    @pytest.mark.parametrize("machine", sorted(BUILDERS))
    def test_random_policy_is_seeded_and_reproducible(self, machine):
        def victim_sequence():
            cache = BUILDERS[machine]("random")
            assoc = cache.config.associativity
            way_stride = cache._num_sets * cache.config.line_size
            victims = []
            for index in range(assoc * 3):
                _, victim = cache.insert(index * way_stride)
                if victim is not None:
                    victims.append(victim.line_address)
            return victims

        assert victim_sequence() == victim_sequence()

    @pytest.mark.parametrize("machine", sorted(BUILDERS))
    def test_unknown_policy_rejected_at_config_time(self, machine):
        base = small_ccsvm_system() if machine == "ccsvm" else amd_apu_system()
        with pytest.raises(ConfigurationError, match="replacement"):
            apply_overrides(base, {"cpu.l1_replacement": "fifo"})


class TestGeometryThroughBothMachines:
    def test_ccsvm_rejects_non_power_of_two_sets(self):
        # 24 KiB / (4 * 64) = 96 sets: not a power of two.  The shared
        # CacheConfig validation fires while the chip assembles its L1s.
        config = apply_overrides(small_ccsvm_system(),
                                 {"cpu.l1_size_bytes": "24KiB"})
        with pytest.raises(CacheError, match="power of two"):
            CCSVMChip(config)

    def test_apu_rejects_non_power_of_two_sets(self):
        config = apply_overrides(amd_apu_system(),
                                 {"cpu.l1_size_bytes": "24KiB"})
        with pytest.raises(CacheError, match="power of two"):
            AMDAPU(config)

    def test_ccsvm_rejects_indivisible_size(self):
        config = apply_overrides(small_ccsvm_system(),
                                 {"cpu.l1_size_bytes": 1000})
        with pytest.raises(CacheError, match="not divisible"):
            CCSVMChip(config)

    def test_apu_rejects_indivisible_size(self):
        config = apply_overrides(amd_apu_system(),
                                 {"cpu.l2_size_bytes": 1000})
        with pytest.raises(CacheError, match="not divisible"):
            AMDAPU(config)
