"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch one base class at an API
boundary while tests can assert on the precise subclass.

:func:`format_error` is the shared renderer for exceptions that cross a
process or wire boundary as plain strings (worker error frames, service
error frames): ``"Type: message"`` plus a bounded traceback tail, so a
remote failure stays debuggable without shipping unbounded text.
"""

from __future__ import annotations

import traceback


def format_error(exc: BaseException, tb_limit: int = 20) -> str:
    """Render ``exc`` as ``"Type: message"`` plus a traceback tail.

    ``tb_limit`` bounds the number of traceback lines kept (the *last*
    lines — the frames nearest the failure); earlier lines are elided
    with a marker.  An exception with no traceback renders as just the
    head line.
    """
    head = f"{type(exc).__name__}: {exc}"
    if exc.__traceback__ is None:
        return head
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    lines = text.rstrip("\n").splitlines()
    if len(lines) > tb_limit:
        elided = len(lines) - tb_limit
        lines = [f"... ({elided} traceback lines elided)"] + lines[-tb_limit:]
    return head + "\n" + "\n".join(lines)


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object was constructed with invalid values."""


class GeometryError(ConfigurationError):
    """An array geometry is inconsistent (odd sizes, target too large...)."""


class UnsupportedGeometryError(GeometryError):
    """An algorithm was asked to schedule a geometry it cannot handle.

    Raised by baseline schedulers whose published algorithm is defined
    only for centred rectangular targets when handed a non-rectangular
    :class:`~repro.lattice.mask.TargetMask`, and routed through
    :func:`repro.baselines.base.resolve_algorithms` so a campaign fails
    fast with the offending algorithm named instead of mid-run.
    """


class LoadingError(ReproError):
    """Stochastic loading was asked to do something impossible."""


class MoveError(ReproError):
    """A single move is malformed or cannot be applied to a grid."""


class ScheduleValidationError(ReproError):
    """A full schedule failed validation against its initial array."""


class ExecutionError(ReproError):
    """A campaign trial (or its worker transport) failed while running."""


class ServiceError(ExecutionError):
    """A scheduling-service request failed (server error or dead link)."""


class ServiceTimeoutError(ServiceError):
    """A service request exhausted its timeout and retry budget."""


class SimulationError(ReproError):
    """The FPGA cycle-level simulation reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The dataflow simulation stopped making progress before finishing."""


class DetectionError(ReproError):
    """The imaging/detection pipeline could not produce an occupancy map."""


class WaveformError(ReproError):
    """The AWG compiler could not translate a schedule into waveforms."""
