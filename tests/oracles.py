"""Shared differential-oracle test harness.

Every vectorised hot path in this repository keeps its per-command
predecessor alive as a ``*_reference`` oracle and must emit bit-identical
output — same moves, same tags, same order, same statistics, same final
grid.  This module is the reusable layer those equivalence suites build
on:

* Hypothesis strategies over geometry x fill x loss seeds
  (:func:`atom_arrays`, :func:`occupancy_grids`, :func:`geometries`,
  :func:`rectangular_geometries`),
  generating the scheduler inputs all differential tests share;
* :func:`pass_of_stack` and :func:`pass_of_one`, which run one pass
  over several arrays, or a single one, as one ``(trial, row, col)``
  stack (both pass implementations take stacks);
* schedule-identity assertion helpers
  (:func:`assert_moves_identical`, :func:`assert_results_identical`,
  :func:`assert_pass_outcomes_identical`,
  :func:`assert_repair_outcomes_identical`) that spell out exactly what
  "bit-identical" means for each artefact;
* independent compaction oracles (:func:`compact_line`,
  :func:`is_prefix_line`, :func:`is_young_diagram`) and the pointwise
  frame transform :func:`to_full`, which the scan, pass and scheduler
  tests check the vectorised paths against;
* :func:`journal_events`, the event names a run journal holds, read
  straight from the file.

Used by ``test_pass_equivalence.py`` (QRM pass, guarded drain x
``s_en``), ``test_repair_equivalence.py`` (repair stage),
``test_baseline_equivalence.py`` (Tetris/PSCA/MTA1),
``test_executor_batch.py`` (table-driven replay),
``test_table_equivalence.py`` (AWG compile and lossy replay vs their
object walkers), ``test_pipeline.py``
(pipelined vs sequential closed-loop drivers, via
:func:`pipeline_configs`), and — via the :func:`campaign_specs` grids —
``test_journal.py`` (journal crash-consistency against the clean-run
oracle).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry

#: Default size/target pools: small enough to shrink well, large enough
#: to exercise uneven quadrants and off-centre targets.
SIZES = (4, 6, 8, 10, 12)
TARGETS = (2, 4, 6)

#: Size pool for pass-drain edge cases: includes the degenerate size-2
#: geometry whose quadrants are single positions (every scanned line has
#: at most zero commands, and any guard skip empties its round).
PASS_EDGE_SIZES = (2,) + SIZES


def scan_limits(max_limit: int = 3):
    """``s_en`` bounds for pass strategies, ``None`` plus tight limits.

    A limit of 1 is always smaller than the deepest command list of any
    line with two or more holes, so drains that mix limited and
    exhausted states are exercised alongside the unlimited case.
    """
    return st.one_of(st.none(), st.integers(min_value=1, max_value=max_limit))


@st.composite
def geometries(draw, sizes=SIZES, targets=TARGETS) -> ArrayGeometry:
    """Square geometries with even extents and a centred even target."""
    size = draw(st.sampled_from(sizes))
    target = draw(st.sampled_from([t for t in targets if t <= size]))
    return ArrayGeometry.square(size, target)


@st.composite
def rectangular_geometries(draw, sizes=SIZES, targets=TARGETS) -> ArrayGeometry:
    """Non-square geometries: even width != height, centred even target.

    Only here do the row and column passes scan different line counts
    and positions per line, so their pass plans differ in shape.
    """
    width = draw(st.sampled_from(sizes))
    height = draw(st.sampled_from([size for size in sizes if size != width]))
    return ArrayGeometry(
        width=width,
        height=height,
        target_width=draw(st.sampled_from([t for t in targets if t <= width])),
        target_height=draw(st.sampled_from([t for t in targets if t <= height])),
    )


@st.composite
def occupancy_grids(draw, geometry: ArrayGeometry) -> np.ndarray:
    """A random occupancy grid for ``geometry``: fill x seed x loss seed.

    The grid is seeded uniform loading at a drawn fill fraction, with an
    optional independent per-atom loss draw on top — the same composition
    the campaign engine's loss trials produce, so differential tests see
    post-loss occupancy patterns too.
    """
    fill = draw(st.floats(min_value=0.05, max_value=0.95))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    grid = np.random.default_rng(seed).random(geometry.shape) < fill
    if draw(st.booleans()):
        loss_rate = draw(st.floats(min_value=0.0, max_value=0.3))
        loss_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        survives = (
            np.random.default_rng(loss_seed).random(geometry.shape) >= loss_rate
        )
        grid &= survives
    return grid


@st.composite
def atom_arrays(draw, sizes=SIZES, targets=TARGETS) -> AtomArray:
    """Random :class:`AtomArray` over geometry x fill x loss seeds."""
    geometry = draw(geometries(sizes=sizes, targets=targets))
    return AtomArray(geometry, draw(occupancy_grids(geometry)))


#: Mask size pool: even extents only (the quadrant split needs them);
#: starts at 6 so every drawn ring keeps at least one site per quadrant.
MASK_SIZES = (6, 8, 10, 12)

#: Non-rectangular mask families the geometry layer supports.
MASK_KINDS = ("ring", "triangular", "sparse")


@st.composite
def mask_strategies(draw, sizes=MASK_SIZES, kinds=MASK_KINDS):
    """Non-rectangular :class:`TargetMask` draws over ring/triangular/sparse.

    Parameter ranges are constrained so every draw is constructible
    (non-empty): a ring band at least 1.0 wide always crosses a
    half-integer site distance, a triangular lattice with ``margin <=
    1`` on a size >= 6 array keeps its first row, and sparse site sets
    are non-empty by construction.  Returns ``(size, mask)``.
    """
    from repro.lattice.mask import TargetMask

    size = draw(st.sampled_from(sizes))
    kind = draw(st.sampled_from(kinds))
    if kind == "ring":
        outer = draw(
            st.floats(min_value=1.5, max_value=size / 2, allow_nan=False)
        )
        inner = draw(st.floats(min_value=0.0, max_value=outer - 1.0))
        return size, TargetMask.ring(size, size, outer, inner)
    if kind == "triangular":
        pitch = draw(st.integers(min_value=1, max_value=3))
        margin = draw(st.integers(min_value=0, max_value=1))
        return size, TargetMask.triangular_lattice(
            size, size, pitch=pitch, margin=margin
        )
    sites = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=size - 1),
                st.integers(min_value=0, max_value=size - 1),
            ),
            min_size=1,
            max_size=max(2, size // 2),
        )
    )
    return size, TargetMask.sparse_sites(size, size, sorted(sites))


@st.composite
def masked_geometries(draw, sizes=MASK_SIZES, kinds=MASK_KINDS) -> ArrayGeometry:
    """Square geometries carrying a drawn non-rectangular target mask."""
    size, mask = draw(mask_strategies(sizes=sizes, kinds=kinds))
    return ArrayGeometry.with_mask(size, size, mask)


@st.composite
def masked_atom_arrays(draw, sizes=MASK_SIZES, kinds=MASK_KINDS) -> AtomArray:
    """Random :class:`AtomArray` over masked geometry x fill x loss seeds."""
    geometry = draw(masked_geometries(sizes=sizes, kinds=kinds))
    return AtomArray(geometry, draw(occupancy_grids(geometry)))


@st.composite
def campaign_specs(draw, max_seeds: int = 3, cycles=(1,)):
    """Tiny campaign grids for engine/journal differential tests.

    Small enough that one full campaign runs in milliseconds, varied
    enough to cover multi-algorithm grids, so crash-consistency and
    executor-equivalence properties can afford one clean run plus one
    perturbed run per example.  Pass ``cycles`` with values > 1 to draw
    closed-loop (multi-cycle) campaigns.
    """
    from repro.campaign.spec import CampaignSpec
    from repro.physics.loss import LossModel

    algorithms = draw(st.sampled_from([("qrm",), ("tetris",), ("qrm", "tetris")]))
    size = draw(st.sampled_from((4, 6, 8)))
    fill = draw(st.sampled_from((0.3, 0.5, 0.7)))
    n_seeds = draw(st.integers(min_value=1, max_value=max_seeds))
    master_seed = draw(st.integers(min_value=0, max_value=2**16))
    n_cycles = draw(st.sampled_from(cycles))
    # Multi-cycle runs only differ from single-cycle ones when replay is
    # stochastic, so closed-loop grids always carry an aggressive loss
    # model (otherwise a converged shot would stay converged forever).
    loss_models = (LossModel(vacuum_lifetime_s=0.05),) if n_cycles > 1 else (None,)
    return CampaignSpec(
        name="oracle",
        algorithms=algorithms,
        sizes=(size,),
        fills=(fill,),
        loss_models=loss_models,
        n_seeds=n_seeds,
        master_seed=master_seed,
        cycles=n_cycles,
    )


@st.composite
def pipeline_configs(draw, max_shots: int = 3, max_cycles: int = 3):
    """Closed-loop :class:`~repro.pipeline.PipelineConfig` inputs.

    Drawn over geometry x fill x stream shape x loss so the driver is
    exercised across single-frame runs, deep repair loops and lossless
    no-op cycles.
    """
    from repro.physics.loss import LossModel
    from repro.pipeline import PipelineConfig

    size = draw(st.sampled_from((4, 6, 8)))
    fill = draw(st.sampled_from((0.3, 0.5, 0.7)))
    shots = draw(st.integers(min_value=1, max_value=max_shots))
    cycles = draw(st.integers(min_value=1, max_value=max_cycles))
    lossy = draw(st.booleans())
    return PipelineConfig(
        size=size,
        fill=fill,
        algorithm=draw(st.sampled_from(("qrm", "tetris"))),
        shots=shots,
        cycles=cycles,
        master_seed=draw(st.integers(min_value=0, max_value=2**16)),
        loss=LossModel(vacuum_lifetime_s=0.05) if lossy else None,
    )


def pass_of_stack(runner, arrays, phase, scan_sources=None, **kwargs):
    """Run one QRM pass of ``runner`` over ``arrays`` as one stack.

    ``runner`` is :func:`~repro.core.passes.run_pass` or
    :func:`~repro.core.passes.run_pass_reference`; the arrays share one
    geometry and are updated in place.  Without ``scan_sources`` the
    pass is fresh and scans the live grids; with them (one 2-D snapshot
    per array) it is the guarded pass over those snapshots.  Returns one
    :class:`~repro.core.passes.PassOutcome` per array, in order.
    """
    from repro.lattice.geometry import Quadrant

    live = np.stack([array.grid for array in arrays])
    source = None if scan_sources is None else np.stack(scan_sources)
    frames = {q: arrays[0].geometry.quadrant_frame(q) for q in Quadrant}
    outcomes = runner(live, frames, phase, scan_source=source, **kwargs)
    for array, grid in zip(arrays, live):
        array.grid[...] = grid
    return outcomes


def pass_of_one(runner, array: AtomArray, phase, scan_source=None, **kwargs):
    """Run one QRM pass of ``runner`` over ``array`` as a stack of one.

    See :func:`pass_of_stack`; ``scan_source`` is one 2-D grid.  Returns
    the trial's :class:`~repro.core.passes.PassOutcome`.
    """
    sources = None if scan_source is None else [scan_source]
    (outcome,) = pass_of_stack(runner, [array], phase, sources, **kwargs)
    return outcome


# ---------------------------------------------------------------------------
# Compaction oracles
# ---------------------------------------------------------------------------


def compact_line(bits) -> np.ndarray:
    """Full compaction of a line toward index 0.

    Equivalent to executing every command a line scan emits, computed
    without scanning: the line's atoms, as a prefix.
    """
    occ = np.asarray(bits, dtype=bool)
    out = np.zeros_like(occ)
    out[: int(occ.sum())] = True
    return out


def is_prefix_line(bits) -> bool:
    """True when the line is fully compacted (all atoms form a prefix)."""
    occ = np.asarray(bits, dtype=bool)
    count = int(occ.sum())
    return bool(occ[:count].all())


def is_young_diagram(local_grid) -> bool:
    """True when rows and columns are all prefixes (compaction fixpoint)."""
    grid = np.asarray(local_grid, dtype=bool)
    rows_ok = all(is_prefix_line(grid[u, :]) for u in range(grid.shape[0]))
    cols_ok = all(is_prefix_line(grid[:, v]) for v in range(grid.shape[1]))
    return rows_ok and cols_ok


def to_full(frame, u: int, v: int) -> tuple[int, int]:
    """Full-array ``(row, col)`` of one local site, through ``frame.affine``."""
    row_base, row_sign, col_base, col_sign = frame.affine
    return row_base + row_sign * u, col_base + col_sign * v


def journal_events(path) -> list[str]:
    """The ``event`` names of a run journal's lines, in file order."""
    lines = Path(path).read_text().splitlines()
    return [json.loads(line)["event"] for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# Identity assertions
# ---------------------------------------------------------------------------


def assert_moves_identical(ours, reference) -> None:
    """Same move count, and per index: equal move and equal tag."""
    __tracebackhide__ = True
    ours = list(ours)
    reference = list(reference)
    assert len(ours) == len(reference), (
        f"{len(ours)} moves vs {len(reference)} expected"
    )
    for index, (move, expected) in enumerate(zip(ours, reference)):
        assert move == expected, f"move {index} differs"
        assert move.tag == expected.tag, f"move {index} tag differs"


def assert_pass_outcomes_identical(ours, reference) -> None:
    """Bit-identity of two :class:`~repro.core.passes.PassOutcome`."""
    assert_moves_identical(ours.moves, reference.moves)
    assert ours.table == reference.table
    assert ours.tags == reference.tags
    assert ours.n_commands == reference.n_commands
    assert ours.n_executed == reference.n_executed
    assert ours.n_skipped_stale == reference.n_skipped_stale
    assert ours.n_skipped_empty == reference.n_skipped_empty
    assert ours.n_scanned_bits == reference.n_scanned_bits
    assert ours.line_commands == reference.line_commands


def assert_results_identical(ours, reference) -> None:
    """Bit-identity of two :class:`RearrangementResult` schedules.

    Wall-clock time is measured, not derived, so it is the one field
    deliberately left out.
    """
    assert ours.algorithm == reference.algorithm
    assert_moves_identical(ours.schedule, reference.schedule)
    assert np.array_equal(ours.initial.grid, reference.initial.grid)
    assert np.array_equal(ours.final.grid, reference.final.grid)
    assert ours.converged == reference.converged
    assert ours.analysis_ops == reference.analysis_ops
    assert ours.unresolved_defects == reference.unresolved_defects


def assert_repair_outcomes_identical(ours, reference) -> None:
    """Bit-identity of two :class:`~repro.core.repair.RepairOutcome`."""
    assert_moves_identical(ours.moves, reference.moves)
    assert ours.filled == reference.filled
    assert ours.unresolved == reference.unresolved
    assert ours.analysis_ops == reference.analysis_ops
