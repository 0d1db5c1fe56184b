"""Trap-array substrate: geometry, occupancy state, loading, metrics."""

from repro.lattice.array import AtomArray
from repro.lattice.geometry import (
    ArrayGeometry,
    Direction,
    Quadrant,
    QuadrantFrame,
    Region,
)
from repro.lattice.loading import (
    DEFAULT_FILL,
    LOADERS,
    as_rng,
    load_named,
    load_poisson_clusters,
    load_uniform,
)
from repro.lattice.mask import TargetMask
from repro.lattice.metrics import (
    ArrayStats,
    defect_count,
    fill_fraction,
    is_defect_free,
    mask_fill_fraction,
    summarize,
    surplus_atoms,
    target_fill_fraction,
)
from repro.lattice.render import render_array, render_side_by_side

__all__ = [
    "ArrayGeometry",
    "ArrayStats",
    "AtomArray",
    "DEFAULT_FILL",
    "Direction",
    "LOADERS",
    "Quadrant",
    "QuadrantFrame",
    "Region",
    "TargetMask",
    "as_rng",
    "defect_count",
    "fill_fraction",
    "is_defect_free",
    "load_named",
    "load_poisson_clusters",
    "load_uniform",
    "mask_fill_fraction",
    "render_array",
    "render_side_by_side",
    "summarize",
    "surplus_atoms",
    "target_fill_fraction",
]
