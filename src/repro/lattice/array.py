"""Occupancy state of the trap array.

:class:`AtomArray` couples an :class:`~repro.lattice.geometry.ArrayGeometry`
with a boolean numpy grid (``True`` = trap holds an atom).  It is the
common currency between the loader, the rearrangement algorithms, the
schedule executor and the detection pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.lattice.geometry import ArrayGeometry, Quadrant, Region


class AtomArray:
    """Mutable occupancy grid over a fixed geometry.

    Parameters
    ----------
    geometry:
        Trap-array dimensions and target region.
    grid:
        Optional initial occupancy, shape ``(height, width)``; any dtype
        accepted by ``np.asarray(...).astype(bool)``.  Copied on ingest so
        the caller keeps ownership of its buffer.
    """

    __slots__ = ("geometry", "grid")

    def __init__(self, geometry: ArrayGeometry, grid: np.ndarray | None = None):
        self.geometry = geometry
        if grid is None:
            self.grid = np.zeros(geometry.shape, dtype=bool)
        else:
            arr = np.asarray(grid).astype(bool)
            if arr.shape != geometry.shape:
                raise GeometryError(
                    f"grid shape {arr.shape} does not match geometry "
                    f"shape {geometry.shape}"
                )
            self.grid = arr.copy()

    # -- constructors ----------------------------------------------------

    @classmethod
    def empty(cls, geometry: ArrayGeometry) -> "AtomArray":
        return cls(geometry)

    @classmethod
    def full(cls, geometry: ArrayGeometry) -> "AtomArray":
        return cls(geometry, np.ones(geometry.shape, dtype=bool))

    @classmethod
    def from_rows(cls, geometry: ArrayGeometry, rows: list[str]) -> "AtomArray":
        """Build from a textual picture, e.g. ``["#.#.", "..##", ...]``.

        ``#`` (or ``1``) marks an occupied trap, anything else is empty.
        Handy for writing readable unit tests.
        """
        if len(rows) != geometry.height:
            raise GeometryError(f"expected {geometry.height} rows, got {len(rows)}")
        grid = np.zeros(geometry.shape, dtype=bool)
        for r, line in enumerate(rows):
            if len(line) != geometry.width:
                raise GeometryError(
                    f"row {r} has length {len(line)}, expected {geometry.width}"
                )
            for c, ch in enumerate(line):
                grid[r, c] = ch in ("#", "1")
        return cls(geometry, grid)

    # -- basic queries ---------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return int(self.grid.sum())

    def is_occupied(self, row: int, col: int) -> bool:
        return bool(self.grid[row, col])

    def set_site(self, row: int, col: int, occupied: bool) -> None:
        self.grid[row, col] = occupied

    def occupied_sites(self) -> list[tuple[int, int]]:
        """Row-major list of occupied ``(row, col)`` sites (plain ints)."""
        return [(int(r), int(c)) for r, c in np.argwhere(self.grid)]

    def row_counts(self) -> np.ndarray:
        return self.grid.sum(axis=1)

    def col_counts(self) -> np.ndarray:
        return self.grid.sum(axis=0)

    # -- region queries --------------------------------------------------

    def region_count(self, region: Region) -> int:
        return int(self.grid[region.row_slice, region.col_slice].sum())

    def mask_count(self, mask) -> int:
        """Atoms sitting on the sites of a :class:`TargetMask`."""
        return int(self.grid[mask.mask].sum())

    def mask_defects(self, mask) -> list[tuple[int, int]]:
        """Empty mask sites, row-major."""
        return [
            (int(r), int(c)) for r, c in np.argwhere(~self.grid & mask.mask)
        ]

    def target_count(self) -> int:
        return self.mask_count(self.geometry.target_mask)

    def target_defects(self) -> list[tuple[int, int]]:
        return self.mask_defects(self.geometry.target_mask)

    def quadrant_count(self, quadrant: Quadrant) -> int:
        return self.region_count(self.geometry.quadrant_frame(quadrant).region)

    # -- conversions & dunders --------------------------------------------

    def copy(self) -> "AtomArray":
        return AtomArray(self.geometry, self.grid)

    def to_rows(self) -> list[str]:
        """Inverse of :meth:`from_rows` (``#`` occupied, ``.`` empty)."""
        return ["".join("#" if cell else "." for cell in row) for row in self.grid]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomArray):
            return NotImplemented
        return self.geometry == other.geometry and bool(
            np.array_equal(self.grid, other.grid)
        )

    def __repr__(self) -> str:
        geo = self.geometry
        return (
            f"AtomArray({geo.width}x{geo.height}, "
            f"target {geo.target_width}x{geo.target_height}, "
            f"{self.n_atoms} atoms)"
        )
