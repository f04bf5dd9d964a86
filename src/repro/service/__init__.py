"""The always-on sweep service (``repro serve``) and its clients.

The service is the harness's one fleet coordinator.  It owns a worker
fleet (``repro worker`` processes, all speaking the one wire protocol
version) and a named job queue with priorities and fair-share
scheduling across submitters.  ``repro serve`` runs it standalone;
``--backend distributed`` runs a private one in-process on a
:class:`~repro.service.server.ServiceThread`.  Jobs are declarative
:class:`~repro.api.JobSpec` payloads — ``module:qualname`` function
references, never pickled callables.

- :mod:`repro.service.jobs` — the queue and scheduling policy (pure,
  loop-free Python).
- :mod:`repro.service.server` — the asyncio server behind ``repro
  serve`` and the distributed backend: worker fleet, result streaming,
  SIGTERM drain, and the :class:`~repro.service.server.ServiceThread`
  that runs it on a background event loop.
- :mod:`repro.service.client` — :class:`~repro.service.client.ServiceClient`
  (the ``repro submit``/``status``/``result``/``cancel`` plumbing) and
  :class:`~repro.service.client.ServiceBackend` (``--backend service``).
"""

from repro.service.client import (
    ServiceBackend,
    ServiceClient,
    default_service_address,
)
from repro.service.jobs import JobQueue, ServiceError, ServiceJob
from repro.service.server import ServiceThread, SweepService, run_service

__all__ = [
    "JobQueue",
    "ServiceBackend",
    "ServiceClient",
    "ServiceError",
    "ServiceJob",
    "ServiceThread",
    "SweepService",
    "default_service_address",
    "run_service",
]
