"""Pluggable trial executors.

The engine hands an executor a picklable function and a list of items
(trial batches, see :func:`repro.campaign.engine.batch_trials`); the
executor yields ``(index, result)`` pairs in whatever order the items
finish.  The engine re-keys results, so completion order never
affects aggregates — which is what lets serial and pooled execution
produce bit-identical campaign results.  How many trials travel per
item is the engine's ``batch_size``, never the executor's.

Two local executors live here:

* :class:`SerialExecutor` — submission order, no concurrency;
* :class:`MultiprocessingExecutor` — a local process pool, one future
  per item; a worker that dies (killed, out of memory) fails the run
  at once instead of hanging it.

Dispatch to remote ``repro worker --listen`` daemons lives in
:mod:`repro.campaign.dispatch` behind the same protocol, and
:func:`make_executor` picks one of the three from the form of
``--workers``.
"""

from __future__ import annotations

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol, Sequence, TypeVar

from repro.errors import ConfigurationError, ExecutionError

T = TypeVar("T")


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


def make_executor(workers: int | str | None) -> CampaignExecutor:
    """CLI helper mapping ``--workers`` to an executor by its form.

    No value, 0 or 1 runs in-process; a count N > 1 fans out over a
    :class:`MultiprocessingExecutor` pool of N processes; and
    ``"host:port[,host:port...]"`` dials running ``repro worker
    --listen`` daemons through
    :class:`~repro.campaign.dispatch.DistributedExecutor`.  A negative
    count raises :class:`ConfigurationError`.
    """
    if isinstance(workers, str):
        try:
            workers = int(workers)
        except ValueError:
            from repro.campaign.dispatch import DistributedExecutor, parse_workers

            return DistributedExecutor(workers=parse_workers(workers))
    if workers is not None and workers < 0:
        raise ConfigurationError(
            f"--workers takes a process count >= 0 or "
            f"host:port[,host:port...], got {workers}"
        )
    if workers is None or workers <= 1:
        return SerialExecutor()
    return MultiprocessingExecutor(workers=workers)
