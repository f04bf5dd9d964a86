"""Wire protocol spoken between the sweep service, its workers and clients.

Messages are *length-prefixed JSON frames*: a 4-byte big-endian payload
length followed by a UTF-8 JSON object.  Framing keeps the protocol
stream-safe over TCP; JSON keeps it debuggable (``tcpdump`` shows readable
frames).  Sweep points themselves carry arbitrary picklable kwargs
(seeds, parameter dicts, ...), so a point travels inside the JSON frame as
a base64-encoded pickle — the same picklability contract the
``multiprocessing`` backend already imposes.  Built-in sweep points name
their function as ``"module:qualname"`` and systems/workloads by registry
key, so the payload is plain data that workers resolve by import.

There is one protocol version, :data:`PROTOCOL_VERSION`; every peer ships
from this tree, so there is no compatibility matrix.  A ``hello`` or
``client_hello`` advertising any other version — or a worker ``hello``
without a positive ``slots`` count — is answered with an ``error`` frame
and the connection is closed.

Worker frames:

============ ============================================================
``hello``     worker -> service greeting (``pid``, ``proto``, ``slots``)
``welcome``   service -> peer: the greeting was accepted (``proto``,
              ``role``)
``point``     service -> worker: one sweep point (``task_id``, ``point``)
``result``    worker -> service: ``task_id`` + ``ok`` + ``result``/``error``
``shutdown``  service -> worker: exit
``error``     service -> peer: the request (or greeting) was refused
============ ============================================================

Flow control is *credit-based*: the ``hello`` frame advertises ``slots``
— how many points the worker can execute concurrently — and the service
keeps at most that many ``point`` frames outstanding per connection.
``result`` frames may arrive in any order; each echoes its point's
``task_id``, a job-scoped ``"<job>/<index>"`` string the worker treats as
an opaque token.

Clients (``repro submit``/``status``/``result``/``cancel`` and
``--backend service``) open with ``client_hello`` and then speak
``submit`` / ``status`` / ``result`` / ``watch`` / ``cancel`` — see
:mod:`repro.service`.

The pickle payload means workers must only ever connect to a service
they trust (and vice versa); the harness binds to localhost by default.
"""

from __future__ import annotations

import asyncio
import base64
import json
import pickle
import socket
import struct
from typing import Dict, Optional

from repro.harness.spec import PointResult, SweepPoint

#: The wire protocol version, carried in ``hello`` and ``client_hello``
#: frames.  Peers advertising any other version are refused.
PROTOCOL_VERSION = 3

#: Frames larger than this are rejected as corrupt rather than allocated.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def send_frame(sock: socket.socket, message: Dict[str, object]) -> None:
    """Serialise ``message`` as one length-prefixed JSON frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Read one frame, or ``None`` if the peer closed the connection."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"oversized frame ({length} bytes)")
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    message = json.loads(payload.decode("utf-8"))
    if not isinstance(message, dict):
        raise ConnectionError("malformed frame: expected a JSON object")
    return message


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on a clean EOF at a boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None  # peer closed between frames
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def encode_point(point: SweepPoint) -> str:
    """Pack a sweep point for transport inside a JSON frame."""
    return base64.b64encode(pickle.dumps(point)).decode("ascii")


def decode_point(blob: str) -> SweepPoint:
    """Inverse of :func:`encode_point`."""
    point = pickle.loads(base64.b64decode(blob.encode("ascii")))
    if not isinstance(point, SweepPoint):
        raise ConnectionError(
            f"frame payload decoded to {type(point).__name__}, not SweepPoint")
    return point


def encode_result(result: PointResult) -> str:
    """Pack a point result for transport inside a JSON frame.

    Results are pickled like points are, not flattened to JSON, so rows
    keep their exact Python types (tuples stay tuples) and distributed
    sweeps stay row-for-row identical to serial ones.
    """
    return base64.b64encode(pickle.dumps(result)).decode("ascii")


def decode_result(blob: str) -> PointResult:
    """Inverse of :func:`encode_result`."""
    result = pickle.loads(base64.b64decode(blob.encode("ascii")))
    if not isinstance(result, PointResult):
        raise ConnectionError(
            f"frame payload decoded to {type(result).__name__}, not PointResult")
    return result


# --------------------------------------------------------------------------- #
# Asyncio stream variants (the ``repro serve`` service speaks these)
# --------------------------------------------------------------------------- #
async def read_frame_async(reader: asyncio.StreamReader
                           ) -> Optional[Dict[str, object]]:
    """Async :func:`recv_frame`: one frame, or ``None`` on a clean EOF."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # peer closed between frames
        raise ConnectionError("connection closed mid-frame") from error
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"oversized frame ({length} bytes)")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ConnectionError("connection closed mid-frame") from error
    message = json.loads(payload.decode("utf-8"))
    if not isinstance(message, dict):
        raise ConnectionError("malformed frame: expected a JSON object")
    return message


async def write_frame_async(writer: asyncio.StreamWriter,
                            message: Dict[str, object]) -> None:
    """Async :func:`send_frame`."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    writer.write(_LENGTH.pack(len(payload)) + payload)
    await writer.drain()


# --------------------------------------------------------------------------- #
# Greeting checks and socket options
# --------------------------------------------------------------------------- #
def negotiate_proto(hello: Dict[str, object]) -> int:
    """The protocol version of a ``hello``/``client_hello`` frame.

    Only :data:`PROTOCOL_VERSION` is accepted; anything else (an older
    version, a missing or malformed advert) raises :class:`ValueError`.
    """
    proto = hello.get("proto")
    if type(proto) is not int or proto != PROTOCOL_VERSION:
        raise ValueError(f"unsupported protocol version {proto!r}; this "
                         f"service speaks only v{PROTOCOL_VERSION}")
    return proto


def hello_slots(hello: Dict[str, object]) -> int:
    """Execution slots a worker ``hello`` advertises.

    The count must be an explicit positive int; anything else raises
    :class:`ValueError`.
    """
    slots = hello.get("slots")
    if type(slots) is not int or slots < 1:
        raise ValueError(f"worker hello must advertise a positive int "
                         f"'slots' count, got {slots!r}")
    return slots


def enable_keepalive(conn: socket.socket) -> None:
    """Make a vanished peer *host* surface as a connection error.

    A peer process that crashes sends a FIN/RST and is noticed at once; a
    host that vanishes (power loss, network partition) sends nothing, so
    without keepalive a blocked read would wait forever.  The parameters
    below detect that within ~a minute without bounding how long a
    legitimate point may compute.
    """
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for option, value in (("TCP_KEEPIDLE", 30), ("TCP_KEEPINTVL", 10),
                          ("TCP_KEEPCNT", 3)):
        if hasattr(socket, option):  # platform-dependent
            conn.setsockopt(socket.IPPROTO_TCP, getattr(socket, option), value)


def parse_address(address: str) -> "tuple[str, int]":
    """Split ``host:port`` (the form both CLI flags use) into its parts."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)
