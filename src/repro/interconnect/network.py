"""Message timing over a topology.

The network model charges each message a per-hop router/link latency plus a
serialisation delay derived from the configured link bandwidth (12 GB/s in
Table 2).  Contention is not modelled — consistent with the paper's
deliberately conservative, unoptimised memory system — but every message,
hop and byte is counted so experiments can report traffic.

Without contention a message's cost depends only on its route and size, so
it is computed once: :meth:`NetworkModel.route` keeps a route table with one
:class:`Route` per ``(src, dst, size, kind)`` — hop count, latency and the
four counter keys a send charges — filled on first use.  A lookup that fails
(an unknown node) raises :class:`~repro.errors.InterconnectError` and caches
nothing.  :meth:`NetworkModel.send` is a table lookup plus the counter
charge.  Every message charges, in this order, ``<name>.messages``,
``<name>.messages_<kind>``, ``<name>.hops`` (even when it adds zero) and
``<name>.bytes``; the coherence protocol, which charges the routes it binds
straight into the registry, keeps that order, so counter snapshots list
their names in the same first-increment order either way.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro.errors import InterconnectError
from repro.interconnect.topology import Topology
from repro.sim.clock import ns_to_ps
from repro.sim.stats import StatsRegistry

#: Control messages (requests, invalidations, acks) are a few header bytes.
CONTROL_MESSAGE_BYTES = 8

#: Data messages carry a cache line plus a header.
DATA_MESSAGE_BYTES = 72


@dataclass(frozen=True)
class Message:
    """A single network traversal, returned for inspection/testing."""

    src: str
    dst: str
    size_bytes: int
    hops: int
    latency_ps: int
    kind: str = "data"


class Route(NamedTuple):
    """The cost of one ``(src, dst, size, kind)`` message and its counters."""

    hops: int
    latency_ps: int
    size_bytes: int
    messages_key: str   #: ``<name>.messages``
    kind_key: str       #: ``<name>.messages_<kind>``
    hops_key: str       #: ``<name>.hops``
    bytes_key: str      #: ``<name>.bytes``


class NetworkModel:
    """Computes message latencies over a :class:`Topology`.

    Parameters
    ----------
    topology:
        Node placement and hop metric.
    link_bandwidth_gbps:
        Link bandwidth in gigabytes per second (12 GB/s in Table 2).  Zero
        means no serialisation delay.
    per_hop_latency_ns:
        Router pipeline plus link traversal latency for each hop.

    Both must be non-negative; anything else raises
    :class:`~repro.errors.InterconnectError`.
    """

    def __init__(self, topology: Topology,
                 link_bandwidth_gbps: float = 12.0,
                 per_hop_latency_ns: float = 1.0,
                 stats: Optional[StatsRegistry] = None,
                 name: str = "network") -> None:
        if not link_bandwidth_gbps >= 0:
            raise InterconnectError(
                f"link bandwidth must be >= 0 GB/s (0 disables serialisation "
                f"delay), got {link_bandwidth_gbps!r}")
        if not per_hop_latency_ns >= 0:
            raise InterconnectError(
                f"per-hop latency must be >= 0 ns, got {per_hop_latency_ns!r}")
        self.topology = topology
        self.link_bandwidth_gbps = link_bandwidth_gbps
        self.per_hop_latency_ps = ns_to_ps(per_hop_latency_ns)
        self.stats = stats if stats is not None else StatsRegistry()
        self.name = name
        self._messages_key = f"{name}.messages"
        self._hops_key = f"{name}.hops"
        self._bytes_key = f"{name}.bytes"
        self._routes: Dict[Tuple[str, str, int, str], Route] = {}

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #
    def _serialisation_ps(self, size_bytes: int) -> int:
        if self.link_bandwidth_gbps <= 0:
            return 0
        bytes_per_ns = self.link_bandwidth_gbps  # 1 GB/s == 1 byte/ns
        return ns_to_ps(size_bytes / bytes_per_ns)

    def route(self, src: str, dst: str, size_bytes: int = DATA_MESSAGE_BYTES,
              kind: str = "data") -> Route:
        """Return the route-table entry of a message, computing it once.

        A message between a node and itself (for example a core whose home
        L2 bank is co-located) still pays the serialisation delay but no hop
        latency.
        """
        key = (src, dst, size_bytes, kind)
        route = self._routes.get(key)
        if route is None:
            hops = self.topology.hops(src, dst)
            route = Route(
                hops=hops,
                latency_ps=(hops * self.per_hop_latency_ps
                            + self._serialisation_ps(size_bytes)),
                size_bytes=size_bytes,
                # Shared key objects keep each entry to one small tuple.
                messages_key=self._messages_key,
                kind_key=sys.intern(f"{self.name}.messages_{kind}"),
                hops_key=self._hops_key,
                bytes_key=self._bytes_key)
            self._routes[key] = route
        return route

    def send(self, src: str, dst: str, size_bytes: int = DATA_MESSAGE_BYTES,
             kind: str = "data") -> Message:
        """Send one message and return its accounting record."""
        route = self.route(src, dst, size_bytes, kind)
        add = self.stats.add
        add(route.messages_key)
        add(route.kind_key)
        add(route.hops_key, route.hops)
        add(route.bytes_key, size_bytes)
        return Message(src=src, dst=dst, size_bytes=size_bytes, hops=route.hops,
                       latency_ps=route.latency_ps, kind=kind)

    def control(self, src: str, dst: str, kind: str = "control") -> Message:
        """Send a small control message (request, invalidation, ack)."""
        return self.send(src, dst, size_bytes=CONTROL_MESSAGE_BYTES, kind=kind)

    def data(self, src: str, dst: str, kind: str = "data") -> Message:
        """Send a cache-line-sized data message."""
        return self.send(src, dst, size_bytes=DATA_MESSAGE_BYTES, kind=kind)

    def round_trip(self, a: str, b: str,
                   request_bytes: int = CONTROL_MESSAGE_BYTES,
                   response_bytes: int = DATA_MESSAGE_BYTES) -> int:
        """Latency of a request/response pair between ``a`` and ``b``."""
        there = self.send(a, b, size_bytes=request_bytes, kind="request")
        back = self.send(b, a, size_bytes=response_bytes, kind="response")
        return there.latency_ps + back.latency_ps

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def total_messages(self) -> int:
        """Number of messages sent so far."""
        return self.stats.get(self._messages_key)

    @property
    def total_bytes(self) -> int:
        """Total bytes carried so far."""
        return self.stats.get(self._bytes_key)
