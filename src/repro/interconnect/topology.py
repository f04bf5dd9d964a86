"""Network topologies: 2D torus and crossbar.

A topology knows where nodes sit and how many link hops separate any pair.
It is purely geometric — message timing lives in
:class:`repro.interconnect.network.NetworkModel`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import InterconnectError


class Topology(ABC):
    """Abstract topology: a set of named nodes and a hop-count metric."""

    def __init__(self, node_names: Sequence[str]) -> None:
        if len(set(node_names)) != len(node_names):
            raise InterconnectError("node names must be unique")
        self._names: List[str] = list(node_names)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self._names)}

    @property
    def nodes(self) -> List[str]:
        """Node names in placement order."""
        return list(self._names)

    def node_index(self, name: str) -> int:
        """Return the placement index of ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise InterconnectError(f"unknown network node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @abstractmethod
    def hops(self, src: str, dst: str) -> int:
        """Number of link traversals between ``src`` and ``dst``."""


@dataclass(frozen=True)
class TorusCoordinate:
    """Position of a node on the 2D torus grid."""

    x: int
    y: int


class Torus2DTopology(Topology):
    """A 2D torus with dimension-order (X then Y) minimal routing.

    Nodes are placed row-major onto a ``width`` × ``height`` grid; giving
    more nodes than ``width*height`` is an error (:meth:`fit` sizes a grid
    to the nodes).  Wrap-around links make the distance in each dimension
    ``min(|d|, size - |d|)``.
    """

    def __init__(self, node_names: Sequence[str], width: int, height: int) -> None:
        super().__init__(node_names)
        if width <= 0 or height <= 0:
            raise InterconnectError("torus dimensions must be positive")
        if len(node_names) > width * height:
            raise InterconnectError(
                f"{len(node_names)} nodes do not fit a {width}x{height} torus"
            )
        self.width = width
        self.height = height
        self._coords: Dict[str, TorusCoordinate] = {}
        for index, name in enumerate(self.nodes):
            self._coords[name] = TorusCoordinate(x=index % width, y=index // width)

    @staticmethod
    def fit(node_names: Sequence[str]) -> "Torus2DTopology":
        """Build a torus just big enough (roughly square) for the nodes."""
        count = max(1, len(node_names))
        width = 1
        while width * width < count:
            width += 1
        height = (count + width - 1) // width
        return Torus2DTopology(node_names, width=width, height=height)

    def coordinate(self, name: str) -> TorusCoordinate:
        """Return the grid coordinate of ``name``."""
        self.node_index(name)
        return self._coords[name]

    def _wrap_distance(self, a: int, b: int, size: int) -> int:
        direct = abs(a - b)
        return min(direct, size - direct)

    def hops(self, src: str, dst: str) -> int:
        a = self.coordinate(src)
        b = self.coordinate(dst)
        return (self._wrap_distance(a.x, b.x, self.width)
                + self._wrap_distance(a.y, b.y, self.height))

    def route(self, src: str, dst: str) -> List[TorusCoordinate]:
        """Return the dimension-order route as a list of coordinates.

        The route includes the source and destination coordinates and is
        used by tests and by the (optional) per-link contention model.
        """
        a = self.coordinate(src)
        b = self.coordinate(dst)
        path = [a]
        x, y = a.x, a.y

        def step_towards(current: int, target: int, size: int) -> int:
            if current == target:
                return current
            forward = (target - current) % size
            backward = (current - target) % size
            if forward <= backward:
                return (current + 1) % size
            return (current - 1) % size

        while x != b.x:
            x = step_towards(x, b.x, self.width)
            path.append(TorusCoordinate(x=x, y=y))
        while y != b.y:
            y = step_towards(y, b.y, self.height)
            path.append(TorusCoordinate(x=x, y=y))
        return path


class CrossbarTopology(Topology):
    """A full crossbar: every node is one hop from every other node.

    Used for the APU baseline, whose CPU cores are connected to each other
    via a crossbar and to the memory controllers directly (Table 2).
    """

    def hops(self, src: str, dst: str) -> int:
        self.node_index(src)
        self.node_index(dst)
        return 0 if src == dst else 1


def pair_key(src: str, dst: str) -> Tuple[str, str]:
    """Canonical unordered pair key for per-link statistics."""
    return (src, dst) if src <= dst else (dst, src)
