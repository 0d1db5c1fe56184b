"""Cross-cutting configuration objects for the QRM reproduction.

Subsystem-specific configuration (camera, AWG, FPGA device budgets...)
lives next to the subsystem; this module holds the parameters of the
rearrangement *algorithm* itself, which are shared by the pure-Python
scheduler (:mod:`repro.core`) and the FPGA accelerator model
(:mod:`repro.fpga`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.errors import ConfigurationError


#: Sentinel ``scan_limit`` value selecting mask-derived per-line bounds.
MASK_SCAN_LIMIT = "mask"


def is_int(value: Any) -> bool:
    """Is ``value`` an ``int`` (a ``bool`` is not)?"""
    return isinstance(value, int) and not isinstance(value, bool)


def known_fields(cls: type, data: Any) -> dict[str, Any]:
    """``data`` as keyword arguments of the dataclass ``cls``.

    Refuses anything but a mapping of ``cls``'s field names with a
    :class:`~repro.errors.ConfigurationError`.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{cls.__name__} must be a mapping, got {data!r}"
        )
    unknown = set(data) - {item.name for item in fields(cls)}
    if unknown:
        raise ConfigurationError(
            f"unknown {cls.__name__} field(s): "
            f"{', '.join(sorted(map(str, unknown)))}"
        )
    return dict(data)


class ScanMode(enum.Enum):
    """How the column pass of an iteration sees the matrix.

    ``PIPELINED`` is the paper-faithful mode: the dataflow hardware streams
    the row-pass transpose into the column pass, so the column pass
    analyses the matrix *before* the row moves of the same iteration were
    applied (Fig. 6 of the paper shows the column buffers holding the
    original, pre-shift bits).  Stale commands are skipped at execution
    time when their hole has already been filled, and the outer iteration
    loop cleans up the residue — this is why the paper needs about four
    iterations.

    ``FRESH`` is the idealised software mode: the column pass reads the
    matrix after the row moves were applied, so a single iteration reaches
    the compaction fixpoint.  Used as a baseline in the ablation study.
    """

    PIPELINED = "pipelined"
    FRESH = "fresh"


@dataclass(frozen=True)
class QrmParameters:
    """Tunable parameters of the quadrant-based rearrangement method.

    Attributes
    ----------
    n_iterations:
        Maximum number of row-pass + column-pass rounds.  The paper uses
        four; the scheduler stops early once a round emits no commands.
    scan_mode:
        Staleness model for the column pass, see :class:`ScanMode`; its
        string value is accepted too.
    merge_mirror_quadrants:
        When true (paper behaviour), commands of mirror quadrants that
        share a scan ordinal and hole position are merged into one
        parallel move (NW+SW for west-side shifts, NE+SE for east-side
        shifts, and the analogous north/south pairs for the column phase).
    enable_repair:
        Run the optional repair stage (individual atom moves) after the
        quadrant compaction to fix residual target defects.  Off by
        default: the paper's QRM does not include it.
    scan_limit:
        The ``s_en`` manual-control bound (paper Sec. IV-C): scan stages
        at quadrant-local positions >= this value never issue shift
        commands, preventing unnecessary shifts far from the centre.
        ``None`` (default) scans the full quadrant width.  The string
        ``"mask"`` derives *per-line* bounds from the geometry's target
        mask instead (each line scans just deep enough to cover its own
        mask sites — see
        :meth:`~repro.lattice.geometry.ArrayGeometry.quadrant_mask_limits`).
    """

    n_iterations: int = 4
    scan_mode: ScanMode = ScanMode.PIPELINED
    merge_mirror_quadrants: bool = True
    enable_repair: bool = False
    scan_limit: int | str | None = None

    def __post_init__(self) -> None:
        if not is_int(self.n_iterations) or self.n_iterations < 1:
            raise ConfigurationError(
                f"n_iterations must be an int >= 1, got {self.n_iterations!r}"
            )
        try:
            object.__setattr__(self, "scan_mode", ScanMode(self.scan_mode))
        except ValueError:
            raise ConfigurationError(
                f"scan_mode must be one of "
                f"{', '.join(repr(mode.value) for mode in ScanMode)}, "
                f"got {self.scan_mode!r}"
            ) from None
        for name in ("merge_mirror_quadrants", "enable_repair"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigurationError(
                    f"{name} must be a bool, got {getattr(self, name)!r}"
                )
        if not (
            self.scan_limit is None
            or self.scan_limit == MASK_SCAN_LIMIT
            or (is_int(self.scan_limit) and self.scan_limit >= 1)
        ):
            raise ConfigurationError(
                f"scan_limit must be an int >= 1, None, or "
                f"{MASK_SCAN_LIMIT!r}, got {self.scan_limit!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        """The JSON form campaign specs, trial keys and journals carry."""
        return {**vars(self), "scan_mode": self.scan_mode.value}

    @classmethod
    def from_dict(cls, data: Any) -> "QrmParameters":
        return cls(**known_fields(cls, data))

    def label(self) -> str:
        parts = [self.scan_mode.value]
        if not self.merge_mirror_quadrants:
            parts.append("split")
        if self.scan_limit is not None:
            parts.append(f"s_en={self.scan_limit}")
        if self.enable_repair:
            parts.append("repair")
        return "+".join(parts)


DEFAULT_QRM_PARAMETERS = QrmParameters()
