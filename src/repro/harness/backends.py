"""Pluggable execution backends for the sweep harness.

A backend executes :class:`~repro.harness.spec.SweepPoint` s.  The core
API is :meth:`ExecutionBackend.run_iter`, which yields ``(index, result)``
pairs **as points complete** (in whatever order the backend finishes
them), plus :meth:`ExecutionBackend.cancel`, which abandons whatever has
not completed yet; :meth:`ExecutionBackend.run` is a shim over
``run_iter`` that reassembles the results **in declaration order** — that
ordering contract is what keeps rendered tables byte-identical across
backends and worker counts.  Four implementations ship:

- :class:`SerialBackend` — in-process, one point at a time.  The library
  and unit-test default.
- :class:`ProcessPoolBackend` — a ``multiprocessing`` pool with
  as-completed dispatch (one task per point, no ``map`` chunking), so a
  single slow point no longer straggles the whole sweep behind it.
- :class:`~repro.service.client.ServiceBackend` (``--backend service``) —
  submits the points as one job to an always-on ``repro serve`` fleet and
  streams the per-point results back (see :mod:`repro.service`).
- :class:`DistributedBackend` — the same, against a private sweep service
  it starts in-process on ``--bind``: workers started with ``repro worker
  --connect HOST:PORT`` (possibly on other hosts) join it, and points lost
  to a dying worker are retried on the survivors.  There is one fleet
  coordinator, :class:`~repro.service.server.SweepService`; this backend
  only adds the wait for ``min_workers`` and fails the run when its last
  worker leaves.

A point whose *function* raises does not tear the sweep down from inside a
worker: every backend returns a :class:`PointFailure` in that point's slot
and :class:`~repro.harness.runner.SweepRunner` raises a
:class:`~repro.harness.spec.HarnessError` naming the point.

Backends only execute; cache lookups and stores stay on the coordinator
side (in the runner), so remote workers never touch ``.repro-cache/``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import multiprocessing
import os
import queue
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from repro.harness.spec import HarnessError, PointResult, SweepPoint, execute_point

if TYPE_CHECKING:
    from repro.service import ServiceBackend, ServiceThread, SweepService
    from repro.service.server import _WorkerLink

#: Environment variable naming the CLI's default backend.
BACKEND_ENV = "REPRO_BACKEND"
#: Environment variable naming the CLI's default coordinator address.
BIND_ENV = "REPRO_BIND"
#: Environment variable naming the sweep-service address clients dial.
SERVICE_ENV = "REPRO_SERVICE"
#: The coordinator/service address the CLI uses unless told otherwise.
DEFAULT_BIND = "127.0.0.1:7421"

BACKEND_NAMES = ("serial", "process", "distributed", "service")


@dataclass
class PointFailure:
    """A point a backend could not produce a result for.

    Carried in the result list in the failed point's slot so declaration
    order survives even partial sweeps; the runner turns it into a
    :class:`~repro.harness.spec.HarnessError` naming the point.
    """

    spec: str
    point_id: str
    error: str


BackendResult = Union[PointResult, PointFailure]


@dataclass
class WorkerRunStats:
    """Coordinator-side throughput record of one worker connection's run.

    ``busy_s`` sums the dispatch-to-result duration of every point the
    connection completed during the run (a multi-slot worker can
    accumulate more busy task-seconds than wall-seconds); ``wall_s`` is
    how long the connection served the run.  Exposed per run as
    :attr:`DistributedBackend.last_run_worker_stats` and printed by the
    CLI under ``--stats``.
    """

    worker: str
    slots: int
    points: int
    busy_s: float
    wall_s: float

    @property
    def points_per_s(self) -> float:
        """Completed points per wall-clock second of connection service."""
        return self.points / self.wall_s if self.wall_s > 0 else 0.0


class ExecutionBackend:
    """Protocol for sweep-point executors.

    Subclasses implement :meth:`run_iter`: results stream out as points
    complete, which is what lets the runner write cache entries
    incrementally and lets callers stop early via :meth:`cancel`.
    :meth:`run` collects them in declaration order.  ``name`` appears in
    error messages and the CLI's per-sweep summary line.
    """

    name = "abstract"
    _cancelled = False

    def run_iter(self, points: List[SweepPoint]
                 ) -> Iterator[Tuple[int, BackendResult]]:
        """Yield ``(index, result)`` pairs as points complete.

        ``index`` is the point's position in ``points``; yield order is
        *completion* order, which backends make no promises about.  After
        :meth:`cancel`, the iterator stops yielding — points still in
        flight are abandoned (their eventual results dropped) and points
        never dispatched are simply not run.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement run_iter()")

    def run(self, points: List[SweepPoint]) -> List[BackendResult]:
        """Execute every point; results in declaration order.

        A shim over :meth:`run_iter`.  Points the iterator never yielded
        (a :meth:`cancel` mid-run, or a buggy backend) come back as
        :class:`PointFailure` s so the list always matches ``points``
        slot-for-slot.
        """
        results: List[Optional[BackendResult]] = [None] * len(points)
        for index, result in self.run_iter(points):
            if 0 <= index < len(results):
                results[index] = result
        for index, result in enumerate(results):
            if result is None:
                point = points[index]
                results[index] = PointFailure(
                    spec=point.spec, point_id=point.point_id,
                    error="point was cancelled before it completed")
        return results  # type: ignore[return-value]

    def cancel(self) -> None:
        """Abandon the sweep: stop dispatching, drop in-flight points.

        Takes effect at the current :meth:`run_iter` iteration's next
        check; already-yielded results are unaffected.  Safe to call from
        another thread (the design point: an early-stopping search or a
        client disconnect cancels a sweep its consumer is blocked on).
        """
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been requested on this backend."""
        return self._cancelled

    def reset(self) -> None:
        """Re-arm the backend after a :meth:`cancel`, for another run.

        :meth:`cancel` deliberately poisons the backend — every subsequent
        :meth:`run_iter` stops immediately — so a late cancel racing the
        end of one sweep cannot silently leak into an unrelated one.  A
        caller that cancels *on purpose* and intends to keep using the
        backend (the successive-halving search drops a rung's losers, then
        dispatches the next rung on the same worker fleet) calls ``reset``
        between runs.  Must not be called while a ``run_iter`` is being
        consumed.
        """
        self._cancelled = False

    def close(self) -> None:
        """Release any long-lived resources (workers, sockets)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def point_failure(point: SweepPoint, error: BaseException) -> PointFailure:
    """The :class:`PointFailure` reporting ``error`` for ``point``."""
    return PointFailure(spec=point.spec, point_id=point.point_id,
                        error=f"{type(error).__name__}: {error}")


def _run_serially(backend: ExecutionBackend, points: List[SweepPoint]
                  ) -> Iterator[Tuple[int, BackendResult]]:
    """In-process point loop shared by the serial and one-job pool paths.

    Checks ``backend``'s cancel flag between points, so cancelling an
    in-process sweep stops it at the next point boundary.
    """
    for index, point in enumerate(points):
        if backend.cancelled:
            return
        try:
            yield index, execute_point(point)
        except Exception as error:  # noqa: BLE001 - reported per point
            yield index, point_failure(point, error)


class SerialBackend(ExecutionBackend):
    """Execute every point in the calling process, one after another."""

    name = "serial"

    def run_iter(self, points: List[SweepPoint]
                 ) -> Iterator[Tuple[int, BackendResult]]:
        return _run_serially(self, points)


def pool_context() -> "multiprocessing.context.BaseContext":
    """The ``multiprocessing`` context local point pools run on.

    Shared by :class:`ProcessPoolBackend` and the worker's ``--jobs`` pool
    so both prefer ``fork`` where the platform offers it (points and their
    kwargs are already in memory; no re-import needed) and fall back to
    the platform default elsewhere.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class ProcessPoolBackend(ExecutionBackend):
    """Fan points out over a local ``multiprocessing`` pool.

    Each point is submitted as its own task (``apply_async``), so idle
    workers pull the next pending point as soon as they finish — unlike
    ``pool.map``, whose chunked dispatch can leave one worker grinding
    through a chunk of slow points while the rest of the pool sits idle.
    """

    name = "process"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run_iter(self, points: List[SweepPoint]
                 ) -> Iterator[Tuple[int, BackendResult]]:
        if self.jobs == 1 or len(points) <= 1:
            yield from _run_serially(self, points)
            return
        context = pool_context()
        workers = min(self.jobs, len(points))
        # Completion-order delivery: every task posts its (index, payload)
        # to this queue from the pool's result-handler thread, so results
        # stream out as they finish instead of in declaration order.
        completions: "queue.Queue[Tuple[int, object]]" = queue.Queue()
        with context.Pool(processes=workers) as pool:
            for index, point in enumerate(points):
                pool.apply_async(
                    execute_point, (point,),
                    callback=lambda result, index=index:
                        completions.put((index, result)),
                    error_callback=lambda error, index=index:
                        completions.put((index, error)))
            received = 0
            while received < len(points):
                if self.cancelled:
                    return  # the with-block terminates the pool's children
                try:
                    index, payload = completions.get(timeout=0.05)
                except queue.Empty:
                    continue
                received += 1
                if isinstance(payload, BaseException):
                    yield index, point_failure(points[index], payload)
                else:
                    yield index, payload  # type: ignore[misc]


# --------------------------------------------------------------------------- #
# Distributed backend
# --------------------------------------------------------------------------- #
async def _await_workers(service: SweepService, count: int
                         ) -> Dict[_WorkerLink, Tuple[int, float]]:
    """Wait for ``count`` workers; returns every worker's counters then."""
    while len(service.workers) < count:
        await asyncio.sleep(0.01)
    return {link: (link.points_done, link.busy_s) for link in service.workers}


async def _fail_when_fleet_empties(service: SweepService) -> None:
    """Fail the run's points whenever no worker is left to run them
    (``repro serve`` instead keeps a job waiting for workers to return)."""
    while True:
        if not service.workers and service.queue.unfinished():
            service.fail_unfinished(
                "all workers disconnected before the point ran")
        await asyncio.sleep(0.02)


def _run_worker_stats(service: SweepService,
                      baseline: Dict[_WorkerLink, Tuple[int, float]],
                      started: float) -> List[WorkerRunStats]:
    """Per-worker work of one run: the counters' growth since ``baseline``,
    for every worker connected at its start or end (a leaver until it left)."""
    now = time.monotonic()
    stats = []
    for link in dict.fromkeys([*baseline, *service.workers]):
        points, busy_s = baseline.get(link, (0, 0.0))
        ended = link.left_at if link.left_at is not None else now
        stats.append(WorkerRunStats(
            worker=link.label, slots=link.slots,
            points=link.points_done - points, busy_s=link.busy_s - busy_s,
            wall_s=max(ended - max(started, link.joined_at), 0.0)))
    return stats


class DistributedBackend(ExecutionBackend):
    """Stream sweep points to ``repro worker`` processes over TCP.

    :meth:`listen` starts an ephemeral
    :class:`~repro.service.server.SweepService` on ``bind`` (``HOST:PORT``;
    port ``0`` picks a free port — read it back from :meth:`listen`) on a
    :class:`~repro.service.server.ServiceThread`, and each run is one job
    submitted through a :class:`~repro.service.client.ServiceBackend`.
    Workers are separate processes, usually on other hosts, started with::

        repro worker --connect HOST:PORT --jobs N

    The service schedules the points (``N`` in flight per worker, requeue
    of a lost worker's points up to ``max_retries`` times).  This backend
    waits for ``min_workers`` before the first point and fails every
    unfinished point when the last worker leaves.  Workers stay connected
    between runs, so ``repro run all --backend distributed`` reuses one
    fleet; :meth:`close` sends them ``shutdown``.

    Parameters
    ----------
    bind:
        ``HOST:PORT`` to listen on (default ``127.0.0.1:0``).
    min_workers:
        How many workers to wait for before dispatching the first point.
    start_timeout:
        Seconds to wait for ``min_workers`` connections before failing.
    max_retries:
        Per-point retry budget for worker-loss requeues.
    """

    name = "distributed"

    def __init__(self, bind: str = "127.0.0.1:0", min_workers: int = 1,
                 start_timeout: float = 30.0, max_retries: int = 3) -> None:
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        self.bind = bind
        self.min_workers = min_workers
        self.start_timeout = start_timeout
        self.max_retries = max_retries
        self.address: Optional[Tuple[str, int]] = None
        self._fleet: Optional[ServiceThread] = None
        self._client: Optional[ServiceBackend] = None
        #: Per-worker throughput of the most recent :meth:`run`, in
        #: join order (see :class:`WorkerRunStats`).
        self.last_run_worker_stats: List[WorkerRunStats] = []

    @property
    def last_point_workers(self) -> Dict[int, str]:
        """run_iter index -> worker label, for provenance (see SweepRunner)."""
        return self._client.last_point_workers if self._client else {}

    def listen(self) -> Tuple[str, int]:
        """Start the service and its loop thread, accepting workers.

        Returns the actual ``(host, port)`` — useful with port ``0``.
        Idempotent: subsequent calls return the existing address.
        """
        if self._fleet is None:
            # Imported lazily: repro.service depends on this module.
            from repro.service import ServiceBackend, ServiceThread, SweepService

            fleet = ServiceThread(SweepService(
                bind=self.bind, max_retries=self.max_retries, quiet=True))
            self.address = fleet.start()
            self._fleet = fleet
            self._client = ServiceBackend(connect=fleet.address)
        assert self.address is not None
        return self.address

    def run_iter(self, points: List[SweepPoint]
                 ) -> Iterator[Tuple[int, BackendResult]]:
        if not points or self.cancelled:
            return
        self.listen()
        fleet, client = self._fleet, self._client
        assert fleet is not None and client is not None
        service = fleet.service
        waiting = fleet.submit(_await_workers(service, self.min_workers))
        try:
            baseline = waiting.result(timeout=self.start_timeout)
        except concurrent.futures.TimeoutError:
            waiting.cancel()
            connected = fleet.call(lambda: len(service.workers))
            raise HarnessError(
                f"distributed backend: only {connected} of "
                f"{self.min_workers} workers connected to {fleet.address} "
                f"within {self.start_timeout:.0f}s — start them with "
                f"'repro worker --connect HOST:PORT'") from None
        started = time.monotonic()
        guard = fleet.submit(_fail_when_fleet_empties(service))
        try:
            yield from client.run_iter(points)
        finally:
            guard.cancel()
            if self._fleet is fleet:  # not closed while the run was open
                self.last_run_worker_stats = fleet.call(
                    _run_worker_stats, service, baseline, started)
                fleet.call(service.forget_finished)

    def cancel(self) -> None:
        super().cancel()
        if self._client is not None:
            self._client.cancel()

    def reset(self) -> None:
        super().reset()
        if self._client is not None:
            self._client.reset()

    def close(self) -> None:
        """Shut the workers down and stop listening; frees the port."""
        fleet, self._fleet = self._fleet, None
        if fleet is not None:
            fleet.stop()


# --------------------------------------------------------------------------- #
# Factory
# --------------------------------------------------------------------------- #
def default_bind() -> str:
    """The coordinator address the CLI uses unless told otherwise."""
    return os.environ.get(BIND_ENV, DEFAULT_BIND)


def default_service_address() -> str:
    """The ``repro serve`` address service clients dial unless told otherwise."""
    return os.environ.get(SERVICE_ENV, DEFAULT_BIND)


def create_backend(name: str, jobs: int = 1, bind: Optional[str] = None,
                   min_workers: int = 1, start_timeout: float = 30.0,
                   connect: Optional[str] = None) -> ExecutionBackend:
    """Build a backend from CLI-shaped arguments.

    ``name`` is one of ``serial``, ``process``, ``distributed`` or
    ``service`` (see ``BACKEND_NAMES``); the CLI defaults it from
    ``$REPRO_BACKEND``.  ``connect`` is the ``service`` backend's
    ``HOST:PORT`` of a running ``repro serve`` (default:
    ``$REPRO_SERVICE``, else the standard localhost address).

    ``jobs`` is validated here with the same ``ValueError`` the backend
    constructors raise, rather than silently clamped, so a bad ``--jobs``
    surfaces identically no matter which entry point it came through.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(jobs=jobs)
    if name == "distributed":
        return DistributedBackend(bind=bind or default_bind(),
                                  min_workers=min_workers,
                                  start_timeout=start_timeout)
    if name == "service":
        # Imported lazily: repro.service.client depends on this module.
        from repro.service.client import ServiceBackend

        return ServiceBackend(connect=connect or default_service_address())
    known = ", ".join(BACKEND_NAMES)
    raise HarnessError(f"unknown backend {name!r}; known backends: {known}")
