"""Pluggable trial executors.

The engine hands an executor a picklable function and a list of items
(trial batches, see :func:`repro.campaign.engine.batch_trials`); the
executor yields ``(index, result)`` pairs in whatever order the items
finish.  The engine re-keys results, so completion order never
affects aggregates — which is what lets serial and pooled execution
produce bit-identical campaign results.  How many trials travel per
item is the engine's ``batch_size``, never the executor's.

Two in-process executors live here:

* :class:`SerialExecutor` — submission order, no concurrency;
* :class:`MultiprocessingExecutor` — a local process pool, one future
  per item; a worker that dies (killed, out of memory) fails the run
  at once instead of hanging it.

Dispatch to remote ``repro worker --listen`` daemons lives in
:mod:`repro.campaign.dispatch` behind the same protocol.
"""

from __future__ import annotations

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol, Sequence, TypeVar

from repro.errors import ConfigurationError, ExecutionError

T = TypeVar("T")

#: Executor kinds accepted by :func:`make_executor` and the CLI.
EXECUTOR_KINDS = ("process", "service", "distributed")


class CampaignExecutor(Protocol):
    """Anything that can map a function over trial batches."""

    def run(
        self, fn: Callable[[T], Any], items: Sequence[T]
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, fn(items[index]))`` in completion order."""
        ...


class SerialExecutor:
    """In-process execution, in submission order."""

    def run(
        self, fn: Callable[[T], Any], items: Sequence[T]
    ) -> Iterator[tuple[int, Any]]:
        for index, item in enumerate(items):
            yield index, fn(item)


@dataclass
class MultiprocessingExecutor:
    """Local process-pool execution on ``ProcessPoolExecutor``.

    Every item is one submitted future, and results are yielded as
    they complete.  Closing the result iterator early, or an exception
    escaping an item, cancels every future not yet started and shuts
    the pool down.  A worker that dies mid-run breaks the pool, which
    surfaces as :class:`ExecutionError` rather than a hang.

    Parameters
    ----------
    workers:
        Pool size; defaults to the CPU count.  Capped at the number of
        items so tiny campaigns don't fork idle processes, and one
        worker runs in-process (serial order).
    """

    workers: int | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")

    def run(
        self, fn: Callable[[T], Any], items: Sequence[T]
    ) -> Iterator[tuple[int, Any]]:
        items = list(items)
        workers = min(self.workers or os.cpu_count() or 1, len(items))
        if workers <= 1:
            yield from SerialExecutor().run(fn, items)
            return
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {pool.submit(fn, item): index for index, item in enumerate(items)}
            for future in concurrent.futures.as_completed(futures):
                yield futures[future], future.result()
        except BrokenProcessPool as exc:
            raise ExecutionError(
                "a campaign pool worker died (killed, or out of memory); "
                "a run started with --journal can be resumed with "
                "'repro campaign --resume JOURNAL'"
            ) from exc
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def make_executor(
    workers: int | str | None,
    kind: str = "process",
    service_addr: str | tuple[str, int] | None = None,
) -> CampaignExecutor:
    """CLI helper mapping ``--workers``/``--executor`` to an executor.

    ``kind`` is one of :data:`EXECUTOR_KINDS`.  For the default
    ``"process"`` kind, 0/1/None workers run in-process and more fan
    out over a :class:`MultiprocessingExecutor` pool; ``"service"``
    runs trials as clients of a scheduling server (``repro serve``) and
    requires ``service_addr``; ``"distributed"`` fans trials out across
    running ``repro worker --listen`` daemons, and ``workers`` must then
    name them as ``"host:port[,host:port...]"``.
    """
    if kind not in EXECUTOR_KINDS:
        raise ConfigurationError(
            f"unknown executor kind '{kind}'; choose from {EXECUTOR_KINDS}"
        )
    if kind == "distributed":
        if service_addr is not None:
            raise ConfigurationError(
                "--service-addr only applies to the service executor, "
                "not 'distributed'"
            )
        from repro.campaign.dispatch import DistributedExecutor, parse_workers

        return DistributedExecutor(workers=parse_workers(workers))
    if isinstance(workers, str):
        raise ConfigurationError(
            f"--workers {workers!r} (worker endpoints) only applies to "
            f"the distributed executor, not '{kind}'"
        )
    if kind == "service":
        if service_addr is None:
            raise ConfigurationError(
                "the service executor needs the server address "
                "(--service-addr host:port)"
            )
        from repro.service.executor import ServiceExecutor

        return ServiceExecutor(service_addr)
    if service_addr is not None:
        raise ConfigurationError(
            f"--service-addr only applies to the service executor, "
            f"not '{kind}'"
        )
    if workers is None or workers <= 1:
        return SerialExecutor()
    return MultiprocessingExecutor(workers=workers)
