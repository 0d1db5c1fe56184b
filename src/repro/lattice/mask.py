"""First-class target masks: arbitrary site sets as assembly targets.

The paper evaluates on a centred ``T x T`` rectangle, but real
experiments assemble rings, triangular lattices, and sparse
logical-qubit layouts.  :class:`TargetMask` generalises "the target
region" from corner arithmetic to an explicit boolean site mask over the
full trap array, with the rectangle as the special case
(:meth:`TargetMask.rect`).  Everything downstream — metrics, rendering,
repair, campaign axes, the scheduling service's wire format — asks the
mask, so no two layers can disagree about which sites count as "in
target".

Masks are immutable value objects: the backing array is write-protected,
equality and hashing go through the raw mask bytes, and the canonical
serialised form is a tuple of ``'#'``/``'.'`` row strings — compact,
JSON-friendly, and stable enough to key caches and wire requests.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.lattice.geometry import Region

#: Characters of the canonical row-string rendering: target site / other.
_SITE, _HOLE = "#", "."


class TargetMask:
    """An immutable boolean mask of target sites over the full array.

    ``mask[r, c]`` is ``True`` where site ``(r, c)`` belongs to the
    assembly target.  Construct through the factories (:meth:`rect`,
    :meth:`ring`, :meth:`triangular_lattice`, :meth:`sparse_sites`,
    :meth:`from_array`) rather than raw arrays where possible — they
    validate shape and non-emptiness and document intent.
    """

    __slots__ = ("mask", "_hash")

    def __init__(self, mask: np.ndarray):
        grid = np.ascontiguousarray(mask, dtype=bool)
        if grid.ndim != 2:
            raise GeometryError(
                f"a target mask must be 2-D, got shape {grid.shape}"
            )
        if not grid.any():
            raise GeometryError("a target mask must contain at least one site")
        grid.setflags(write=False)
        object.__setattr__(self, "mask", grid)
        object.__setattr__(self, "_hash", hash((grid.shape, grid.tobytes())))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("TargetMask is immutable")

    # -- factories ---------------------------------------------------------

    @classmethod
    def rect(
        cls, height: int, width: int, target_height: int, target_width: int
    ) -> "TargetMask":
        """The paper's centred rectangle as a mask (the special case)."""
        if not (0 < target_height <= height and 0 < target_width <= width):
            raise GeometryError(
                f"rect target {target_height}x{target_width} does not fit "
                f"inside {height}x{width}"
            )
        grid = np.zeros((height, width), dtype=bool)
        r0 = (height - target_height) // 2
        c0 = (width - target_width) // 2
        grid[r0 : r0 + target_height, c0 : c0 + target_width] = True
        return cls(grid)

    @classmethod
    def ring(
        cls,
        height: int,
        width: int,
        outer_radius: float,
        inner_radius: float = 0.0,
    ) -> "TargetMask":
        """An annulus of sites centred on the array centre.

        A site belongs to the ring when its Euclidean distance ``d``
        from the array centre satisfies ``inner_radius <= d <=
        outer_radius``.  ``inner_radius=0`` gives a filled disc.
        """
        if outer_radius <= 0 or inner_radius < 0 or inner_radius > outer_radius:
            raise GeometryError(
                f"ring radii must satisfy 0 <= inner <= outer, got "
                f"inner={inner_radius} outer={outer_radius}"
            )
        centre_r = (height - 1) / 2.0
        centre_c = (width - 1) / 2.0
        rows = np.arange(height)[:, None] - centre_r
        cols = np.arange(width)[None, :] - centre_c
        dist = np.hypot(rows, cols)
        return cls((dist >= inner_radius) & (dist <= outer_radius))

    @classmethod
    def triangular_lattice(
        cls, height: int, width: int, pitch: int = 2, margin: int = 1
    ) -> "TargetMask":
        """A triangular (offset-row) lattice of sites.

        Every ``pitch``-th row carries sites every ``pitch`` columns,
        with odd lattice rows offset by ``pitch // 2`` — the square-grid
        embedding of a triangular lattice.  ``margin`` keeps a border of
        non-target sites as the reservoir the rearrangers pull from.
        """
        if pitch < 1:
            raise GeometryError(f"lattice pitch must be >= 1, got {pitch}")
        if margin < 0:
            raise GeometryError(f"lattice margin must be >= 0, got {margin}")
        grid = np.zeros((height, width), dtype=bool)
        for k, r in enumerate(range(margin, height - margin, pitch)):
            offset = (pitch // 2) if k % 2 else 0
            grid[r, margin + offset : width - margin : pitch] = True
        if not grid.any():
            raise GeometryError(
                f"triangular lattice pitch={pitch} margin={margin} leaves no "
                f"sites in a {height}x{width} array"
            )
        return cls(grid)

    @classmethod
    def sparse_sites(
        cls,
        height: int,
        width: int,
        sites: Iterable[tuple[int, int]],
    ) -> "TargetMask":
        """An explicit sparse site list (logical-qubit layouts)."""
        grid = np.zeros((height, width), dtype=bool)
        for row, col in sites:
            if not (0 <= row < height and 0 <= col < width):
                raise GeometryError(
                    f"mask site ({row}, {col}) is outside the "
                    f"{height}x{width} array"
                )
            grid[row, col] = True
        return cls(grid)

    @classmethod
    def from_array(cls, mask: np.ndarray) -> "TargetMask":
        """Wrap an arbitrary boolean occupancy-shaped array (copied)."""
        return cls(np.array(mask, dtype=bool, copy=True))

    # -- geometry ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    @property
    def height(self) -> int:
        return self.mask.shape[0]

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    @property
    def n_sites(self) -> int:
        return int(self.mask.sum())

    def contains(self, row: int, col: int) -> bool:
        return (
            0 <= row < self.height
            and 0 <= col < self.width
            and bool(self.mask[row, col])
        )

    def sites(self) -> list[tuple[int, int]]:
        """All target ``(row, col)`` pairs, row-major."""
        return [tuple(site) for site in np.argwhere(self.mask)]

    @property
    def bounding_box(self) -> Region:
        """The tightest Region enclosing every target site."""
        rows = np.flatnonzero(self.mask.any(axis=1))
        cols = np.flatnonzero(self.mask.any(axis=0))
        return Region(
            row0=int(rows[0]),
            col0=int(cols[0]),
            height=int(rows[-1] - rows[0] + 1),
            width=int(cols[-1] - cols[0] + 1),
        )

    def as_region(self) -> Region | None:
        """The exact Region when the mask is a full rectangle, else None."""
        box = self.bounding_box
        if self.n_sites == box.n_sites:
            return box
        return None

    @property
    def is_rect(self) -> bool:
        return self.as_region() is not None

    # -- serialisation -----------------------------------------------------

    def to_rows(self) -> tuple[str, ...]:
        """Canonical row strings: ``'#'`` target sites, ``'.'`` elsewhere."""
        return tuple(
            "".join(_SITE if cell else _HOLE for cell in row) for row in self.mask
        )

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "TargetMask":
        if not rows:
            raise GeometryError("a target mask needs at least one row")
        widths = {len(row) for row in rows}
        if len(widths) != 1:
            raise GeometryError(f"mask rows have inconsistent widths: {widths}")
        for row in rows:
            bad = set(row) - {_SITE, _HOLE}
            if bad:
                raise GeometryError(
                    f"mask rows may only contain {_SITE!r}/{_HOLE!r}, got {bad}"
                )
        return cls(
            np.array([[cell == _SITE for cell in row] for row in rows], dtype=bool)
        )

    def token(self) -> str:
        """One-line canonical encoding (rows joined by ``/``).

        Stable and hashable — this is what the scheduling service keys
        its per-geometry cache on and what travels in wire requests.
        """
        return "/".join(self.to_rows())

    @classmethod
    def from_token(cls, token: str) -> "TargetMask":
        return cls.from_rows(token.split("/"))

    def to_dict(self) -> dict:
        return {"rows": list(self.to_rows())}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TargetMask":
        return cls.from_rows(list(data["rows"]))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TargetMask):
            return NotImplemented
        return self.mask.shape == other.mask.shape and bool(
            np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        kind = "rect" if self.is_rect else "mask"
        return (
            f"TargetMask({kind} {self.height}x{self.width}, "
            f"{self.n_sites} sites)"
        )

    # -- pickling (slots + write-protected array) --------------------------

    def __reduce__(self):
        return (TargetMask.from_rows, (self.to_rows(),))
