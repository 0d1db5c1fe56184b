"""Geometry of the optical-trap array: regions, directions, quadrants.

The paper works on a ``W x W`` square lattice of optical traps with a
centred ``T x T`` target region, split into four quadrants (NW, NE, SW,
SE).  Each quadrant is given a *local frame* whose origin ``(u=0, v=0)``
is the quadrant corner adjacent to the array centre, with both local axes
pointing away from the centre.  In this frame the QRM compression always
moves atoms toward index 0 along both axes, which is what lets a single
shift-kernel schedule serve all four quadrants (paper Fig. 4).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GeometryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lattice.mask import TargetMask


class Direction(enum.Enum):
    """Compass direction on the trap grid.

    ``NORTH`` decreases the row index, ``SOUTH`` increases it; ``WEST``
    decreases the column index, ``EAST`` increases it.  This matches the
    usual matrix convention with row 0 drawn at the top.
    """

    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"

    @property
    def delta(self) -> tuple[int, int]:
        """Unit step ``(d_row, d_col)`` taken by an atom moving this way."""
        return _DELTAS[self]

    @property
    def is_horizontal(self) -> bool:
        return self in (Direction.EAST, Direction.WEST)


_DELTAS = {
    Direction.NORTH: (-1, 0),
    Direction.SOUTH: (1, 0),
    Direction.EAST: (0, 1),
    Direction.WEST: (0, -1),
}


class Quadrant(enum.Enum):
    """The four quadrants of the trap array."""

    NW = "NW"
    NE = "NE"
    SW = "SW"
    SE = "SE"

    @property
    def is_north(self) -> bool:
        return self in (Quadrant.NW, Quadrant.NE)

    @property
    def is_west(self) -> bool:
        return self in (Quadrant.NW, Quadrant.SW)


@dataclass(frozen=True)
class Region:
    """An axis-aligned rectangle of trap sites, in full-array coordinates."""

    row0: int
    col0: int
    height: int
    width: int

    def __post_init__(self) -> None:
        if self.height < 0 or self.width < 0:
            raise GeometryError(
                f"region sides must be non-negative, got {self.height}x{self.width}"
            )

    @property
    def n_sites(self) -> int:
        return self.height * self.width

    @property
    def row_slice(self) -> slice:
        return slice(self.row0, self.row0 + self.height)

    @property
    def col_slice(self) -> slice:
        return slice(self.col0, self.col0 + self.width)

    @property
    def row_stop(self) -> int:
        return self.row0 + self.height

    @property
    def col_stop(self) -> int:
        return self.col0 + self.width

    def contains(self, row: int, col: int) -> bool:
        return (
            self.row0 <= row < self.row0 + self.height
            and self.col0 <= col < self.col0 + self.width
        )

    def sites(self) -> list[tuple[int, int]]:
        """All ``(row, col)`` pairs inside the region, row-major."""
        return [
            (r, c)
            for r in range(self.row0, self.row_stop)
            for c in range(self.col0, self.col_stop)
        ]


@dataclass(frozen=True)
class QuadrantFrame:
    """Mapping between one quadrant's local frame and full-array coordinates.

    Local coordinates are ``(u, v)`` with ``u`` along rows and ``v`` along
    columns, both in ``[0, n_rows) x [0, n_cols)``.  ``(0, 0)`` is the
    quadrant corner adjacent to the array centre; larger ``u``/``v`` move
    away from the centre.  A QRM shift toward smaller ``v`` therefore
    always moves atoms toward the centre column, whatever the quadrant.
    """

    quadrant: Quadrant
    row0: int
    col0: int
    n_rows: int
    n_cols: int
    flip_rows: bool
    flip_cols: bool

    @functools.cached_property
    def affine(self) -> tuple[int, int, int, int]:
        """The frame transform as ``(row_base, row_sign, col_base, col_sign)``.

        Local ``(u, v)`` sits at full-array ``(row_base + row_sign * u,
        col_base + col_sign * v)``, so hot paths map whole batches of
        coordinates with plain int (or NumPy array) arithmetic.
        """
        row_sign = -1 if self.flip_rows else 1
        col_sign = -1 if self.flip_cols else 1
        row_base = self.row0 + (self.n_rows - 1 if self.flip_rows else 0)
        col_base = self.col0 + (self.n_cols - 1 if self.flip_cols else 0)
        return row_base, row_sign, col_base, col_sign

    @property
    def region(self) -> Region:
        return Region(self.row0, self.col0, self.n_rows, self.n_cols)

    @property
    def horizontal_inward(self) -> Direction:
        """Full-array direction of a local shift toward smaller ``v``."""
        return Direction.EAST if self.quadrant.is_west else Direction.WEST

    @property
    def vertical_inward(self) -> Direction:
        """Full-array direction of a local shift toward smaller ``u``."""
        return Direction.SOUTH if self.quadrant.is_north else Direction.NORTH

    def local_view(self, grid: np.ndarray) -> np.ndarray:
        """This quadrant of ``grid`` in local orientation, as a view.

        The flips act on the two trailing axes, so a ``(trial, row,
        col)`` stack gives a ``(trial, u, v)`` view; writing through the
        view writes ``grid``.
        """
        block = grid[
            ...,
            self.row0: self.row0 + self.n_rows,
            self.col0: self.col0 + self.n_cols,
        ]
        if self.flip_rows:
            block = block[..., ::-1, :]
        if self.flip_cols:
            block = block[..., ::-1]
        return block

    def extract(self, grid: np.ndarray) -> np.ndarray:
        """Return this quadrant of ``grid`` in local orientation (a copy)."""
        return np.ascontiguousarray(self.local_view(grid))

    def insert(self, grid: np.ndarray, local: np.ndarray) -> None:
        """Write a local-orientation block back into ``grid`` in place."""
        if local.shape != (self.n_rows, self.n_cols):
            raise GeometryError(
                f"local block shape {local.shape} does not match quadrant "
                f"{self.quadrant.value} ({self.n_rows}x{self.n_cols})"
            )
        self.local_view(grid)[...] = local


@dataclass(frozen=True)
class ArrayGeometry:
    """Dimensions of the trap array and its assembly target.

    The default target is the paper's centred rectangle, described by
    ``target_width``/``target_height``.  Arbitrary targets attach a
    :class:`~repro.lattice.mask.TargetMask` (``mask`` field, normally
    via :meth:`with_mask` or :meth:`masked`); the rectangle then becomes
    the special case ``mask=None``, and every consumer that needs the
    site set should read :attr:`target_mask`, which is always defined.

    Array ``width``/``height`` must be positive and even: evenness is
    what allows the clean four-way quadrant split (paper Fig. 4).  The
    same holds for the rectangle target extents; a mask target instead
    pins ``target_width``/``target_height`` to its bounding box, which
    may be odd.
    """

    width: int
    height: int
    target_width: int
    target_height: int
    mask: "TargetMask | None" = None

    def __post_init__(self) -> None:
        for name in ("width", "height"):
            value = getattr(self, name)
            if value <= 0:
                raise GeometryError(f"{name} must be positive, got {value}")
            if value % 2 != 0:
                raise GeometryError(f"{name} must be even, got {value}")
        if self.mask is None:
            for name in ("target_width", "target_height"):
                value = getattr(self, name)
                if value <= 0:
                    raise GeometryError(f"{name} must be positive, got {value}")
                if value % 2 != 0:
                    raise GeometryError(f"{name} must be even, got {value}")
        else:
            if self.mask.shape != (self.height, self.width):
                raise GeometryError(
                    f"target mask shape {self.mask.shape} does not match the "
                    f"{self.height}x{self.width} array"
                )
            box = self.mask.bounding_box
            if (self.target_height, self.target_width) != (box.height, box.width):
                raise GeometryError(
                    "target extents of a masked geometry must equal the mask "
                    f"bounding box {box.height}x{box.width}, got "
                    f"{self.target_height}x{self.target_width} "
                    "(construct via ArrayGeometry.with_mask)"
                )
        if self.target_width > self.width:
            raise GeometryError(
                f"target_width {self.target_width} exceeds width {self.width}"
            )
        if self.target_height > self.height:
            raise GeometryError(
                f"target_height {self.target_height} exceeds height {self.height}"
            )

    @classmethod
    def square(cls, size: int, target_size: int | None = None) -> "ArrayGeometry":
        """Square array with a centred square target.

        When ``target_size`` is omitted, the paper's headline ratio is
        used: a 30x30 target from a 50x50 array, i.e. ``0.6 * size``
        rounded down to the nearest even number.  Sizes below 4 leave no
        even target of at least 2 sites per side, so they are rejected
        instead of silently clamped.
        """
        if target_size is None:
            target_size = int(size * 0.6)
            target_size -= target_size % 2
            if target_size < 2:
                raise GeometryError(
                    f"size {size} is too small to derive a default target "
                    "(0.6 * size rounds below the minimum even extent of 2); "
                    "pass target_size explicitly"
                )
        return cls(
            width=size,
            height=size,
            target_width=target_size,
            target_height=target_size,
        )

    @classmethod
    def with_mask(cls, width: int, height: int, mask: "TargetMask") -> "ArrayGeometry":
        """Geometry over a ``width x height`` array with a mask target.

        The rectangle target extents are pinned to the mask's bounding
        box so size-derived heuristics (``s_en`` bounds, figure scaling)
        stay meaningful.
        """
        box = mask.bounding_box
        return cls(
            width=width,
            height=height,
            target_width=box.width,
            target_height=box.height,
            mask=mask,
        )

    @property
    def n_sites(self) -> int:
        return self.width * self.height

    @property
    def n_target_sites(self) -> int:
        if self.mask is not None:
            return self.mask.n_sites
        return self.target_width * self.target_height

    @functools.cached_property
    def target_mask(self) -> "TargetMask":
        """The target as a mask — always defined, rectangle included.

        This is the single source of truth for "is this site in the
        target": metrics, rendering, and the repair stage all index
        through it, so they cannot drift from each other.
        """
        if self.mask is not None:
            return self.mask
        from repro.lattice.mask import TargetMask

        return TargetMask.rect(
            self.height, self.width, self.target_height, self.target_width
        )

    @property
    def is_rect_target(self) -> bool:
        """True when the target is an axis-aligned full rectangle."""
        return self.mask is None or self.mask.is_rect

    @property
    def half_width(self) -> int:
        return self.width // 2

    @property
    def half_height(self) -> int:
        return self.height // 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def bounds(self) -> Region:
        return Region(0, 0, self.height, self.width)

    @property
    def target_region(self) -> Region:
        """The target as a Region — only defined for rectangular targets.

        Rectangle-only consumers (the Tetris/MTA-1 baselines, region
        arithmetic) call this; mask-capable consumers should use
        :attr:`target_mask` instead.  Raises :class:`GeometryError` for
        a non-rectangular mask so the mismatch cannot pass silently.
        """
        if self.mask is not None:
            region = self.mask.as_region()
            if region is None:
                raise GeometryError(
                    "the target mask is not a rectangle; use target_mask "
                    "(or bounding_box) instead of target_region"
                )
            return region
        return Region(
            row0=(self.height - self.target_height) // 2,
            col0=(self.width - self.target_width) // 2,
            height=self.target_height,
            width=self.target_width,
        )

    def quadrant_frame(self, quadrant: Quadrant) -> QuadrantFrame:
        """Local frame of ``quadrant`` (see :class:`QuadrantFrame`)."""
        return QuadrantFrame(
            quadrant=quadrant,
            row0=0 if quadrant.is_north else self.half_height,
            col0=0 if quadrant.is_west else self.half_width,
            n_rows=self.half_height,
            n_cols=self.half_width,
            flip_rows=quadrant.is_north,
            flip_cols=quadrant.is_west,
        )

    def quadrant_frames(self) -> tuple[QuadrantFrame, ...]:
        """All four frames in the fixed order NW, NE, SW, SE."""
        return tuple(self.quadrant_frame(q) for q in Quadrant)

    def quadrant_mask_limits(self, axis: int) -> dict[Quadrant, np.ndarray]:
        """Per-line ``s_en`` bounds derived from the target mask.

        For every quadrant, line ``u`` (``axis=0``: local rows, the row
        pass; ``axis=1``: local columns, the column pass) gets the
        smallest scan bound whose prefix covers every mask site of that
        line — ``1 +`` the outermost local mask position, or ``0`` when
        the line holds no mask site (its shift enables stay low and it
        is never compacted).  This is the per-line generalisation of the
        paper's scalar ``s_en`` bound, selected with
        ``QrmParameters(scan_limit="mask")``.
        """
        if axis not in (0, 1):
            raise GeometryError(f"axis must be 0 or 1, got {axis}")
        mask = np.asarray(self.target_mask.mask)
        limits: dict[Quadrant, np.ndarray] = {}
        for quadrant in Quadrant:
            local = self.quadrant_frame(quadrant).extract(mask)
            if axis == 1:
                local = local.T
            n_positions = local.shape[1]
            depth = np.arange(1, n_positions + 1, dtype=np.intp)
            limits[quadrant] = (local * depth).max(axis=1, initial=0)
        return limits

    def contains(self, row: int, col: int) -> bool:
        return 0 <= row < self.height and 0 <= col < self.width
