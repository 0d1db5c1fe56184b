"""Rearrangement-as-a-service: the long-lived scheduling server.

The package turns the batch-first scheduling core into a network
service: concurrent clients submit occupancy frames and stream back
schedules, while the server's micro-batching loop groups same-geometry
requests into one :func:`repro.baselines.base.schedule_batch` call per
wake-up — so N concurrent clients pay the amortised cost of one QRM
stack (:meth:`~repro.core.qrm.QrmScheduler.schedule_batch`) instead of
N serial dispatch sequences.

* :mod:`repro.service.server` — the asyncio server
  (:class:`SchedulingService`), its micro-batch dispatcher, and the
  :class:`ServiceThread` harness for embedding a server in-process;
* :mod:`repro.service.client` — the blocking :class:`ServiceClient`
  (background sender, bounded in-flight window, reconnect and
  timeout/retry-with-backoff);
* :mod:`repro.service.cache` — the warm per-geometry LRU of scheduler
  instances (``QuadrantFrame`` coefficients, scan limits);
* :mod:`repro.service.wire` — the asyncio side of the length-prefixed
  pickle frame protocol plus the JSON front door codec.
"""

from repro.service.cache import SchedulerCache, SchedulerKey, resolve_scheduler
from repro.service.client import ServiceClient
from repro.service.server import SchedulingService, ServiceThread, serve_in_thread

__all__ = [
    "SchedulerCache",
    "SchedulerKey",
    "SchedulingService",
    "ServiceClient",
    "ServiceThread",
    "resolve_scheduler",
    "serve_in_thread",
]
