"""Client side of the sweep service: :class:`ServiceClient` and the
``--backend service`` :class:`ServiceBackend`.

:class:`ServiceClient` is a thin synchronous wrapper over the v3 client
frames (``submit`` / ``status`` / ``result`` / ``watch`` / ``cancel``) —
the ``repro submit``-family CLI commands are built on it.

:class:`ServiceBackend` plugs the service into the unchanged
:class:`~repro.harness.runner.SweepRunner`: ``run_iter`` submits the
pending points as one job, watches it, and yields each point's result the
moment the service streams it back — so the runner's incremental cache
writes and declaration-order merge work identically to every other
backend, and ``repro run figure5 --backend service`` is byte-for-byte the
serial output.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import JobSpec, JobStatus
from repro.harness.backends import (
    BackendResult,
    ExecutionBackend,
    PointFailure,
    default_service_address,
    point_failure,
)
from repro.harness.spec import SweepPoint
from repro.harness.wire import (
    PROTOCOL_VERSION,
    decode_result,
    enable_keepalive,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.service.jobs import ServiceError

__all__ = ["ServiceBackend", "ServiceClient", "default_service_address"]


class ServiceClient:
    """One client connection to a running ``repro serve``.

    Lazily connected; usable as a context manager.  Requests are
    strictly sequential per connection (the service replies in order),
    so use one client per thread.
    """

    def __init__(self, connect: Optional[str] = None,
                 timeout: float = 10.0) -> None:
        self.connect = connect or default_service_address()
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None

    # -- plumbing ---------------------------------------------------------- #
    def _ensure(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        host, port = parse_address(self.connect)
        try:
            sock = socket.create_connection((host, port),
                                            timeout=self.timeout)
        except OSError as error:
            raise ServiceError(
                f"could not reach the sweep service at {self.connect} "
                f"(is `repro serve` running?): {error}") from error
        try:
            enable_keepalive(sock)
            send_frame(sock, {"type": "client_hello",
                              "proto": PROTOCOL_VERSION, "pid": os.getpid()})
            welcome = recv_frame(sock)
        except (OSError, ConnectionError) as error:
            sock.close()
            raise ServiceError(
                f"handshake with {self.connect} failed: {error}") from error
        if not welcome or welcome.get("type") != "welcome":
            sock.close()
            raise ServiceError(
                f"{self.connect} is not a sweep service "
                f"(no welcome frame, got {welcome!r})")
        sock.settimeout(None)  # point execution takes as long as it takes
        self._sock = sock
        return sock

    def _request(self, frame: Dict[str, object]) -> Dict[str, object]:
        sock = self._ensure()
        try:
            send_frame(sock, frame)
            reply = recv_frame(sock)
        except (OSError, ConnectionError) as error:
            self.close()
            raise ServiceError(
                f"lost the sweep service at {self.connect}: {error}"
            ) from error
        if reply is None:
            self.close()
            raise ServiceError(
                f"the sweep service at {self.connect} closed the connection")
        if reply.get("type") == "error":
            raise ServiceError(str(reply.get("error", "unknown error")))
        return reply

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- requests ---------------------------------------------------------- #
    def submit(self, spec: JobSpec) -> str:
        """Submit a job; returns its service-assigned job id."""
        reply = self._request({"type": "submit", "job": spec.to_json()})
        return str(reply.get("job_id"))

    def status_payload(self, job_id: Optional[str] = None
                       ) -> Dict[str, object]:
        """The raw ``status`` reply: jobs, workers, draining flag."""
        frame: Dict[str, object] = {"type": "status"}
        if job_id is not None:
            frame["job"] = job_id
        return self._request(frame)

    def status(self, job_id: Optional[str] = None) -> List[JobStatus]:
        payload = self.status_payload(job_id)
        jobs = payload.get("jobs")
        return [JobStatus.from_json(entry)
                for entry in (jobs if isinstance(jobs, list) else [])]

    def result(self, job_id: str) -> Dict[str, object]:
        """Block until ``job_id`` settles; returns the full result reply."""
        return self._request({"type": "result", "job": job_id})

    def watch(self, job_id: str) -> Iterator[Dict[str, object]]:
        """Stream a job's events; ends after the ``job_end`` frame."""
        sock = self._ensure()
        send_frame(sock, {"type": "watch", "job": job_id})
        while True:
            frame = recv_frame(sock)
            if frame is None:
                self.close()
                raise ServiceError(
                    f"the sweep service at {self.connect} closed the "
                    f"connection mid-watch")
            if frame.get("type") == "error":
                raise ServiceError(str(frame.get("error", "unknown error")))
            yield frame
            if frame.get("type") == "job_end":
                return

    def cancel(self, job_id: str) -> JobStatus:
        reply = self._request({"type": "cancel", "job": job_id})
        return JobStatus.from_json(reply.get("status"))


class ServiceBackend(ExecutionBackend):
    """Run sweep points as one job on a running ``repro serve``.

    One :meth:`run_iter` call is one service job; the job's priority and
    submitter identity come from the constructor.  A point that cannot be
    encoded (unpicklable kwargs) gets a :class:`PointFailure` in its slot
    and the rest are still submitted.  :meth:`cancel` ends the stream at
    once and opens a short second connection to cancel the job
    server-side, so a DSE early-stop releases the fleet for other
    submitters immediately.
    """

    name = "service"

    def __init__(self, connect: Optional[str] = None, priority: int = 0,
                 submitter: Optional[str] = None,
                 timeout: float = 10.0) -> None:
        self.connect = connect or default_service_address()
        self.priority = priority
        self.submitter = submitter or \
            f"{socket.gethostname()}/pid={os.getpid()}"
        self.timeout = timeout
        self._job_lock = threading.Lock()
        self._job_id: Optional[str] = None
        #: run_iter index -> worker label, for provenance (see SweepRunner)
        self.last_point_workers: Dict[int, str] = {}

    def run_iter(self, points: Sequence[SweepPoint]
                 ) -> Iterator[Tuple[int, BackendResult]]:
        points = list(points)
        self.last_point_workers = {}
        #: job point index -> run_iter index, for the encodable points
        submitted: List[int] = []
        entries: List[Dict[str, object]] = []
        for index, point in enumerate(points):
            try:
                entries.append(JobSpec.encode_point(point))
            except Exception as error:  # noqa: BLE001 - reported per point
                yield index, point_failure(point, error)
            else:
                submitted.append(index)
        if not submitted:
            return
        spec = JobSpec(name=points[0].spec, submitter=self.submitter,
                       priority=self.priority, points=entries)
        with ServiceClient(self.connect, timeout=self.timeout) as client:
            job_id = client.submit(spec)
            with self._job_lock:
                self._job_id = job_id
            if self._cancelled:
                # cancel() raced the submission; cancel server-side now.
                self._cancel_remote(job_id)
            try:
                for frame in client.watch(job_id):
                    if self._cancelled:
                        return  # the abandoned tail is never yielded
                    if frame.get("type") != "point_result":
                        continue  # job_end ends the watch generator itself
                    job_index = frame.get("index")
                    if not isinstance(job_index, int) \
                            or not 0 <= job_index < len(submitted):
                        continue
                    index = submitted[job_index]
                    worker = frame.get("worker")
                    if isinstance(worker, str):
                        self.last_point_workers[index] = worker
                    yield index, self._decode(points[index], frame)
            finally:
                with self._job_lock:
                    self._job_id = None

    @staticmethod
    def _decode(point: SweepPoint, frame: Dict[str, object]) -> BackendResult:
        if not frame.get("ok"):
            return PointFailure(spec=point.spec, point_id=point.point_id,
                                error=str(frame.get("error",
                                                    "unknown service error")))
        try:
            return decode_result(str(frame.get("result", "")))
        except Exception as error:  # noqa: BLE001 - reported per point
            return point_failure(point, error)

    def cancel(self) -> None:
        super().cancel()
        with self._job_lock:
            job_id = self._job_id
        if job_id is not None:
            self._cancel_remote(job_id)

    def _cancel_remote(self, job_id: str) -> None:
        try:
            with ServiceClient(self.connect, timeout=self.timeout) as client:
                client.cancel(job_id)
        except ServiceError:
            pass  # the job may have settled (or the service died) already
