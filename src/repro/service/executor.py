"""Campaign executor that schedules through a running service.

:class:`ServiceExecutor` slots behind the standard
:class:`~repro.campaign.executors.CampaignExecutor` protocol, but
instead of moving trials to other *processes* it moves the scheduling
work to the *service*: trials execute in-process (loading, metrics,
loss simulation are cheap and deterministic) while
:func:`repro.campaign.trial._resolve_algorithm` is routed — via the
:func:`~repro.campaign.trial.use_scheduler_factory` hook — to a
:class:`~repro.service.client.RemoteAlgorithm` bound to one shared
:class:`~repro.service.client.ServiceClient`.

Because the service returns results bit-identical to local scheduling,
campaign aggregates through this executor are byte-identical to the
serial executor's CSV — the property the CI ``service-smoke`` job
pins.  Batched campaigns (``--batch-size N``) submit each group as N
concurrent requests, which the server's micro-batcher coalesces into
one :meth:`~repro.core.qrm.QrmScheduler.schedule_batch` wave.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.campaign.protocol import parse_hostport
from repro.campaign.trial import use_scheduler_factory
from repro.service.client import RemoteAlgorithm, ServiceClient

T = TypeVar("T")


class ServiceExecutor:
    """Run campaign trials as clients of a scheduling service.

    Parameters
    ----------
    address:
        ``(host, port)`` of the service, or a ``"host:port"`` string
        (the CLI's ``--service-addr`` form, parsed and range-checked by
        :func:`~repro.campaign.protocol.parse_hostport`).
    """

    def __init__(self, address: str | tuple[str, int]):
        host, port = parse_hostport(address) if isinstance(address, str) else address
        self.address = (str(host), int(port))

    def run(
        self, fn: Callable[[T], Any], items: Sequence[T]
    ) -> Iterator[tuple[int, Any]]:
        items = list(items)
        if not items:
            return
        with ServiceClient(self.address) as client:

            def factory(cell, geometry):
                return RemoteAlgorithm.for_cell(client, cell, geometry)

            with use_scheduler_factory(factory):
                for index, item in enumerate(items):
                    yield index, fn(item)
