"""Tests for the network timing model."""

import math

import pytest

from repro.coherence.messages import MessageType
from repro.core.chip import CCSVMChip
from repro.errors import InterconnectError
from repro.interconnect.network import CONTROL_MESSAGE_BYTES, DATA_MESSAGE_BYTES, NetworkModel
from repro.interconnect.topology import Torus2DTopology
from repro.mem.assemble import CCSVMMemory
from repro.sim.stats import StatsRegistry
from repro.systems import system_config


def make_network(stats=None):
    names = [f"n{i}" for i in range(9)]
    return NetworkModel(Torus2DTopology(names, 3, 3), link_bandwidth_gbps=12.0,
                        per_hop_latency_ns=1.0, stats=stats)


class TestTiming:
    def test_latency_grows_with_hops(self):
        network = make_network()
        near = network.send("n0", "n1")
        far = network.send("n0", "n4")
        assert far.hops > near.hops
        assert far.latency_ps > near.latency_ps

    def test_serialisation_depends_on_size(self):
        network = make_network()
        small = network.send("n0", "n1", size_bytes=8)
        large = network.send("n0", "n1", size_bytes=72)
        assert large.latency_ps > small.latency_ps

    def test_self_message_pays_only_serialisation(self):
        network = make_network()
        message = network.send("n0", "n0", size_bytes=72)
        assert message.hops == 0
        assert message.latency_ps == network._serialisation_ps(72)

    def test_control_and_data_sizes(self):
        network = make_network()
        assert network.control("n0", "n1").size_bytes == CONTROL_MESSAGE_BYTES
        assert network.data("n0", "n1").size_bytes == DATA_MESSAGE_BYTES

    def test_round_trip_is_sum(self):
        network = make_network()
        total = network.round_trip("n0", "n4")
        assert total > 0

    def test_zero_bandwidth_means_no_serialisation(self):
        names = ["a", "b"]
        network = NetworkModel(Torus2DTopology(names, 2, 1), link_bandwidth_gbps=0)
        assert network.send("a", "b", size_bytes=1000).latency_ps == \
            network.per_hop_latency_ps


class TestAccounting:
    def test_messages_and_bytes_counted(self):
        stats = StatsRegistry()
        network = make_network(stats)
        network.send("n0", "n1", size_bytes=64, kind="data")
        network.send("n1", "n2", size_bytes=8, kind="inv")
        assert network.total_messages == 2
        assert network.total_bytes == 72
        assert stats["network.messages_data"] == 1
        assert stats["network.messages_inv"] == 1
        assert stats["network.hops"] == 2


class TestRouteTable:
    """Every route of the default CCSVM torus against independent oracles."""

    @pytest.fixture(scope="class")
    def chip_network(self):
        return CCSVMChip(system_config("ccsvm")).network

    @pytest.mark.parametrize("size", [CONTROL_MESSAGE_BYTES, DATA_MESSAGE_BYTES])
    def test_every_pair_matches_dimension_order_walk(self, chip_network, size):
        network = chip_network
        topology = network.topology
        config = system_config("ccsvm").noc
        hop_ps = round(config.hop_latency_ns * 1000)
        serialisation_ps = round(size * 1000 / config.link_bandwidth_gbps)
        # Big enough in both dimensions for wrap-around to shorten routes.
        assert topology.width >= 4 and topology.height >= 4
        for src in topology.nodes:
            for dst in topology.nodes:
                route = network.route(src, dst, size, "data")
                walked = len(topology.route(src, dst)) - 1
                assert route.hops == walked, (src, dst)
                assert route.latency_ps == walked * hop_ps + serialisation_ps
                assert route.size_bytes == size
                # A repeated lookup returns the very same entry.
                assert network.route(src, dst, size, "data") is route

    def test_send_charges_counters_in_order_including_zero_hops(self):
        stats = StatsRegistry()
        network = make_network(stats)
        message = network.send("n3", "n3", size_bytes=8, kind="ack")
        assert message.hops == 0
        assert list(stats.to_dict().items()) == [
            ("network.messages", 1), ("network.messages_ack", 1),
            ("network.hops", 0), ("network.bytes", 8)]

    @pytest.mark.parametrize("src, dst", [("n0", "zz"), ("zz", "n0"),
                                          ("zz", "zz")])
    def test_unknown_node_raises_every_time_and_is_not_cached(self, src, dst):
        stats = StatsRegistry()
        network = make_network(stats)
        for _ in range(3):
            with pytest.raises(InterconnectError):
                network.route(src, dst)
            with pytest.raises(InterconnectError):
                network.send(src, dst)
        assert network._routes == {}
        assert len(stats) == 0

    def test_coherence_binding_raises_every_time_and_is_not_cached(self):
        chip = CCSVMChip(system_config("ccsvm-small"))
        coherence = chip.coherence
        before = chip.stats.to_dict()
        for _ in range(3):
            with pytest.raises(InterconnectError):
                coherence._msg("cpu0", "nowhere", MessageType.DATA)
        assert "nowhere" not in coherence._routes.get("cpu0", {})
        assert chip.stats.to_dict() == before

    @pytest.mark.parametrize("src, dst", [("cpu0", "l2b0"), ("l2b0", "l2b0")])
    def test_coherence_charges_like_send_then_message_type(self, src, dst):
        chip = CCSVMChip(system_config("ccsvm-small"))
        chip.stats.reset()
        latency = chip.coherence._msg(src, dst, MessageType.WRITEBACK)
        expected = chip.network.route(src, dst, DATA_MESSAGE_BYTES, "wb")
        assert (expected.hops == 0) == (src == dst)
        assert latency == expected.latency_ps
        assert list(chip.stats.to_dict().items()) == [
            ("network.messages", 1), ("network.messages_wb", 1),
            ("network.hops", expected.hops),
            ("network.bytes", DATA_MESSAGE_BYTES),
            ("coherence.msg.wb", 1)]


class TestParameterValidation:
    TOPOLOGY = Torus2DTopology(["a", "b"], 2, 1)

    @pytest.mark.parametrize("hop_ns", [-5, -0.001, math.nan])
    def test_bad_hop_latency_rejected(self, hop_ns):
        with pytest.raises(InterconnectError, match="per-hop latency"):
            NetworkModel(self.TOPOLOGY, per_hop_latency_ns=hop_ns)

    @pytest.mark.parametrize("bandwidth", [-12.0, -1, math.nan])
    def test_bad_bandwidth_rejected(self, bandwidth):
        with pytest.raises(InterconnectError, match="link bandwidth"):
            NetworkModel(self.TOPOLOGY, link_bandwidth_gbps=bandwidth)

    def test_zero_hop_latency_and_bandwidth_accepted(self):
        network = NetworkModel(self.TOPOLOGY, link_bandwidth_gbps=0,
                               per_hop_latency_ns=0)
        assert network.send("a", "b").latency_ps == 0

    @pytest.mark.parametrize("override", [{"noc.hop_latency_ns": -5},
                                          {"noc.link_bandwidth_gbps": -12}])
    def test_chip_rejects_bad_noc(self, override):
        with pytest.raises(InterconnectError):
            CCSVMChip(system_config("ccsvm", override))

    @pytest.mark.parametrize("override", [{"noc.hop_latency_ns": -5},
                                          {"noc.link_bandwidth_gbps": -12}])
    def test_replay_hierarchy_rejects_bad_noc(self, override):
        with pytest.raises(InterconnectError):
            CCSVMMemory(system_config("ccsvm", override), StatsRegistry())
