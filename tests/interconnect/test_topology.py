"""Tests for network topologies."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import InterconnectError
from repro.interconnect.topology import CrossbarTopology, Torus2DTopology


class TestTorus:
    def test_fit_builds_roughly_square_grid(self):
        torus = Torus2DTopology.fit([f"n{i}" for i in range(19)])
        assert torus.width * torus.height >= 19
        assert abs(torus.width - torus.height) <= 1

    def test_self_distance_zero(self):
        torus = Torus2DTopology(["a", "b", "c", "d"], 2, 2)
        assert torus.hops("a", "a") == 0

    def test_neighbour_distance_one(self):
        torus = Torus2DTopology(["a", "b", "c", "d"], 2, 2)
        assert torus.hops("a", "b") == 1
        assert torus.hops("a", "c") == 1

    def test_wraparound_shortens_path(self):
        names = [f"n{i}" for i in range(16)]
        torus = Torus2DTopology(names, 4, 4)
        # n0 at (0,0), n3 at (3,0): distance 1 thanks to wraparound.
        assert torus.hops("n0", "n3") == 1

    def test_symmetry(self):
        names = [f"n{i}" for i in range(12)]
        torus = Torus2DTopology(names, 4, 3)
        for a in names[:6]:
            for b in names[6:]:
                assert torus.hops(a, b) == torus.hops(b, a)

    def test_route_endpoints_and_length(self):
        names = [f"n{i}" for i in range(16)]
        torus = Torus2DTopology(names, 4, 4)
        route = torus.route("n0", "n10")
        assert route[0] == torus.coordinate("n0")
        assert route[-1] == torus.coordinate("n10")
        assert len(route) - 1 == torus.hops("n0", "n10")

    def test_unknown_node_rejected(self):
        torus = Torus2DTopology(["a"], 1, 1)
        with pytest.raises(InterconnectError):
            torus.hops("a", "zzz")
        # Even a "self" message needs a node that exists.
        with pytest.raises(InterconnectError):
            torus.hops("zzz", "zzz")

    def test_too_many_nodes_rejected(self):
        with pytest.raises(InterconnectError):
            Torus2DTopology(["a", "b", "c"], 1, 2)

    def test_duplicate_names_rejected(self):
        with pytest.raises(InterconnectError):
            Torus2DTopology(["a", "a"], 2, 2)

    @given(st.integers(2, 6), st.integers(2, 6))
    def test_triangle_inequality(self, width, height):
        names = [f"n{i}" for i in range(width * height)]
        torus = Torus2DTopology(names, width, height)
        a, b, c = names[0], names[len(names) // 2], names[-1]
        assert torus.hops(a, c) <= torus.hops(a, b) + torus.hops(b, c)


class TestCrossbar:
    def test_all_pairs_one_hop(self):
        xbar = CrossbarTopology(["a", "b", "c"])
        assert xbar.hops("a", "b") == 1
        assert xbar.hops("b", "c") == 1

    def test_self_zero(self):
        assert CrossbarTopology(["a", "b"]).hops("a", "a") == 0

    def test_unknown_rejected(self):
        with pytest.raises(InterconnectError):
            CrossbarTopology(["a"]).hops("a", "b")
