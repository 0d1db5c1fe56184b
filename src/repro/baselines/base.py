"""Algorithm registry shared by experiments, benchmarks and the CLI.

Every rearrangement algorithm — the paper's QRM, the Sec. III-A typical
procedure, and the three published baselines — registers a factory here
under a stable name, so experiment runners can be parameterised by
string.  Factories share one construction signature,
``(geometry, *, rng=None, **params)``: ``rng`` is reserved for
stochastic algorithms (the built-ins are deterministic and ignore it)
and ``params`` forwards algorithm-specific knobs (QRM's
:class:`~repro.config.QrmParameters` fields, PSCA's tweezer budget, …).
The per-command oracle implementations register too, under
``"<name>-reference"`` keys, so differential tests and the perf suite
resolve both sides of every fast/reference pair through this one
registry.

The API is batch-first: :func:`schedule_batch` dispatches a stack of
same-geometry arrays to an algorithm's native ``schedule_batch`` when it
has one (QRM's cross-trial engine) and otherwise falls back to looping
``schedule`` — so every algorithm can be driven through the batched
campaign path unchanged.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

from repro.core.result import RearrangementResult
from repro.errors import ExecutionError, UnsupportedGeometryError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry


class RearrangementAlgorithm(Protocol):
    """Anything that can analyse an array and emit a schedule."""

    name: str

    def schedule(self, array: AtomArray) -> RearrangementResult:
        """Compute the move schedule for ``array``."""
        ...


AlgorithmFactory = Callable[..., RearrangementAlgorithm]

#: The canonical benchmark line-up (QRM vs the published baselines) —
#: the single source ``repro campaign`` defaults to.
DEFAULT_ALGORITHMS = ("qrm", "tetris", "psca", "mta1")

_REGISTRY: dict[str, AlgorithmFactory] = {}

#: Algorithms whose published formulation is defined only for centred
#: rectangular targets; they raise
#: :class:`~repro.errors.UnsupportedGeometryError` on masked geometries.
_RECT_ONLY: set[str] = set()


def register_algorithm(
    name: str, factory: AlgorithmFactory, *, rect_only: bool = False
) -> None:
    """Register ``factory`` under ``name`` (overwrites silently in tests).

    New factories should accept ``(geometry, *, rng=None, **params)``;
    plain single-argument factories keep working as long as they are
    resolved without extra keyword arguments.  ``rect_only`` declares
    that the algorithm cannot assemble non-rectangular target masks —
    :func:`resolve_algorithms` uses it to fail campaigns fast.
    """
    _REGISTRY[name] = factory
    if rect_only:
        _RECT_ONLY.add(name)
    else:
        _RECT_ONLY.discard(name)


def unregister_algorithm(name: str) -> None:
    """Remove a registration (primarily for test cleanup)."""
    _REGISTRY.pop(name, None)
    _RECT_ONLY.discard(name)


def supports_geometry(name: str, geometry: ArrayGeometry) -> bool:
    """Can registered algorithm ``name`` schedule ``geometry``?

    False only for rect-only algorithms handed a non-rectangular target
    mask; unknown names raise ``KeyError`` like :func:`get_algorithm`.
    """
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown algorithm '{name}'; known: {known}")
    return geometry.is_rect_target or name not in _RECT_ONLY


def get_algorithm(
    name: str,
    geometry: ArrayGeometry,
    *,
    rng=None,
    **params,
) -> RearrangementAlgorithm:
    """Instantiate a registered algorithm for ``geometry``.

    ``rng`` and ``params`` forward to the factory only when provided, so
    legacy single-argument factories stay resolvable.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown algorithm '{name}'; known: {known}") from None
    if rng is None and not params:
        return factory(geometry)
    if rng is not None:
        params["rng"] = rng
    return factory(geometry, **params)


def list_algorithms() -> list[str]:
    return sorted(_REGISTRY)


def resolve_algorithms(
    names: Iterable[str] | None = None,
    geometry: ArrayGeometry | None = None,
) -> tuple[str, ...]:
    """Validate a requested algorithm line-up against the registry.

    ``None`` resolves to :data:`DEFAULT_ALGORITHMS`.  This is the one
    code path both the bench and campaign CLIs use, so an unknown name
    fails identically everywhere.  When a ``geometry`` is given, the
    line-up is also checked against its target: rect-only algorithms on
    a non-rectangular mask raise
    :class:`~repro.errors.UnsupportedGeometryError` up front, naming the
    offenders and the mask-capable alternatives.
    """
    chosen = DEFAULT_ALGORITHMS if names is None else tuple(names)
    unknown = [name for name in chosen if name not in _REGISTRY]
    if unknown:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown algorithm(s): {', '.join(unknown)}; known: {known}"
        )
    if geometry is not None:
        rect_only = [
            name for name in chosen if not supports_geometry(name, geometry)
        ]
        if rect_only:
            capable = ", ".join(sorted(set(_REGISTRY) - _RECT_ONLY))
            raise UnsupportedGeometryError(
                f"algorithm(s) {', '.join(rect_only)} only support "
                "rectangular targets, but the geometry carries a "
                f"non-rectangular mask; mask-capable algorithms: {capable}"
            )
    return chosen


def schedule_batch(
    algorithm: RearrangementAlgorithm,
    arrays: Iterable[AtomArray],
) -> list[RearrangementResult]:
    """Batch-first dispatch with a loop-over-``schedule`` fallback.

    Algorithms with a native ``schedule_batch`` (QRM's cross-trial
    engine) get the whole stack in one call; everything else schedules
    the arrays one by one — same results, same order, no batch-only
    capability required of implementors.

    A failure inside the fallback loop is wrapped in
    :class:`~repro.errors.ExecutionError` naming the failing trial's
    position in the batch, so callers grouping many trials into one
    call (the batched campaign path, the service dispatcher) can report
    *which* trial is at fault; siblings scheduled before the failure are
    untouched (the loop materialises one result at a time).
    """
    batch = list(arrays)
    native = getattr(algorithm, "schedule_batch", None)
    if callable(native):
        return native(batch)
    results = []
    for index, array in enumerate(batch):
        try:
            results.append(algorithm.schedule(array))
        except Exception as exc:
            raise ExecutionError(
                f"schedule_batch fallback: trial {index} of {len(batch)} "
                f"failed in {algorithm.name!r}: {type(exc).__name__}: {exc}"
            ) from exc
    return results


def _register_builtins() -> None:
    """Register the built-in algorithms lazily to avoid import cycles."""
    from repro.baselines.mta1 import Mta1Scheduler, Mta1SchedulerReference
    from repro.baselines.psca import PscaScheduler, PscaSchedulerReference
    from repro.baselines.tetris import TetrisScheduler, TetrisSchedulerReference
    from repro.config import QrmParameters, ScanMode
    from repro.core.qrm import QrmScheduler, QrmSchedulerReference
    from repro.core.typical import TypicalScheduler

    def qrm_variant(**preset):
        def factory(geometry, *, rng=None, **params):
            del rng  # deterministic; accepted for signature uniformity
            return QrmScheduler(geometry, QrmParameters.from_dict({**preset, **params}))

        return factory

    def qrm_sen(geometry, *, rng=None, **params):
        del rng
        params.setdefault("scan_limit", max(1, geometry.target_width // 2))
        return QrmScheduler(geometry, QrmParameters.from_dict(params))

    def qrm_reference(geometry, *, rng=None, **params):
        del rng
        return QrmSchedulerReference(geometry, QrmParameters.from_dict(params))

    def plain(cls):
        def factory(geometry, *, rng=None, **params):
            del rng  # deterministic; accepted for signature uniformity
            return cls(geometry, **params)

        return factory

    register_algorithm("qrm", qrm_variant())
    register_algorithm(
        "qrm-fresh", qrm_variant(n_iterations=2, scan_mode=ScanMode.FRESH)
    )
    register_algorithm("qrm-repair", qrm_variant(enable_repair=True))
    register_algorithm("qrm-sen", qrm_sen)
    register_algorithm("qrm-reference", qrm_reference)
    register_algorithm("typical", plain(TypicalScheduler))
    register_algorithm("tetris", plain(TetrisScheduler), rect_only=True)
    register_algorithm(
        "tetris-reference", plain(TetrisSchedulerReference), rect_only=True
    )
    register_algorithm("psca", plain(PscaScheduler))
    register_algorithm("psca-reference", plain(PscaSchedulerReference))
    register_algorithm("mta1", plain(Mta1Scheduler), rect_only=True)
    register_algorithm(
        "mta1-reference", plain(Mta1SchedulerReference), rect_only=True
    )


_register_builtins()
