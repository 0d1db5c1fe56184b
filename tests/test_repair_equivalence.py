"""L-path router: vectorised == reference, routing invariants, pinned outputs.

The vectorised :func:`repro.core.repair.repair_defects` must emit
exactly the moves of :func:`repair_defects_reference` (same legs, tags,
order, counters including ``analysis_ops``, final grid), and both must
satisfy the physical routing invariants: an atom is only ever
transported through empty sites, the move budget is respected, and
replaying the emitted moves through the executor reproduces the
in-place outcome grid.  The router serves both QRM's repair stage and
the MTA1 baseline, so a pinned digest over ``mta1``,
``mta1-reference`` and ``qrm-repair`` schedules holds their outputs
fixed.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assert_repair_outcomes_identical, atom_arrays

from repro.aod.executor import apply_parallel_move_reference
from repro.baselines.base import get_algorithm
from repro.core.qrm import QrmScheduler
from repro.core.repair import repair_defects, repair_defects_reference
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform
from repro.lattice.mask import TargetMask


@st.composite
def repair_cases(draw):
    """An array (optionally pre-compacted by QRM) plus a move budget.

    Running QRM first produces the realistic post-compaction defect
    patterns the repair stage exists for; the raw-array half of the
    distribution keeps pathological loadings in play.
    """
    array = draw(atom_arrays())
    if draw(st.booleans()):
        array = QrmScheduler(array.geometry).schedule(array).final
    max_moves = draw(st.sampled_from([1, 2, 5, 4096]))
    return array, max_moves


@given(repair_cases(), st.sampled_from(["repair", "mta1"]))
@settings(max_examples=60, deadline=None)
def test_vectorized_repair_bit_identical(case, tag):
    array, max_moves = case
    ours = array.copy()
    theirs = array.copy()
    outcome = repair_defects(ours, max_moves=max_moves, tag=tag)
    expected = repair_defects_reference(theirs, max_moves=max_moves, tag=tag)
    assert_repair_outcomes_identical(outcome, expected)
    assert np.array_equal(ours.grid, theirs.grid)
    assert all(move.tag.startswith(f"{tag}-(") for move in outcome.moves)


@given(repair_cases())
@settings(max_examples=60, deadline=None)
def test_repair_never_moves_through_occupied_sites(case):
    array, max_moves = case
    work = array.copy()
    outcome = repair_defects(work, max_moves=max_moves)

    # Replay every leg from the initial state; each must depart from an
    # occupied site and sweep only empty sites (destination included).
    replay = array.copy()
    for move in outcome.moves:
        assert len(move.shifts) == 1
        shift = move.shifts[0]
        (site,) = shift.sites()
        assert replay.grid[site], f"leg departs from empty site {site}"
        dr, dc = shift.direction.delta
        for step in range(1, shift.steps + 1):
            swept = (site[0] + dr * step, site[1] + dc * step)
            assert not replay.grid[swept], (
                f"leg from {site} sweeps occupied site {swept}"
            )
        apply_parallel_move_reference(replay.grid, move)
    # The executor replay must land on the in-place outcome grid.
    assert np.array_equal(replay.grid, work.grid)


@given(repair_cases())
@settings(max_examples=60, deadline=None)
def test_repair_respects_budget_and_accounts_every_defect(case):
    array, max_moves = case
    n_defects = len(array.target_defects())
    n_atoms = array.n_atoms
    work = array.copy()
    outcome = repair_defects(work, max_moves=max_moves)

    # Every initial defect is either filled or explicitly unresolved.
    assert outcome.filled + outcome.unresolved == n_defects
    # Each routed defect costs one or two legs; the budget check happens
    # before routing, so it can be exceeded by at most one leg.
    assert outcome.filled <= len(outcome.moves) <= 2 * outcome.filled
    assert len(outcome.moves) <= max_moves + 1
    # Repair transports atoms, never creates or destroys them, and the
    # target fill grows by exactly the filled count.
    assert work.n_atoms == n_atoms
    assert work.target_count() == array.target_count() + outcome.filled


def test_repair_zero_budget_resolves_nothing(geo8):
    array = AtomArray.full(geo8)
    array.set_site(0, 0, False)
    array.grid[3, 3] = False
    outcome = repair_defects(array, max_moves=0)
    assert outcome.moves == []
    assert outcome.filled == 0
    assert outcome.unresolved == 1


def _router_corpus():
    """Loads for the pinned digest: sizes 8-32 x three targets x fills x seeds.

    Each size runs its default centred target, a 4-wide centred target
    and an off-centre, odd-width rectangular mask.
    """
    for size in (8, 12, 16, 24, 32):
        rect = np.zeros((size, size), dtype=bool)
        rect[1 : size // 2 + 1, size // 4 : 3 * size // 4 + 1] = True
        for geometry in (
            ArrayGeometry.square(size),
            ArrayGeometry.square(size, 4),
            ArrayGeometry.with_mask(size, size, TargetMask.from_array(rect)),
        ):
            for fill in (0.3, 0.6):
                for seed in (0, 1):
                    yield geometry, load_uniform(geometry, fill, rng=seed)


def _router_digest(algorithm: str) -> str:
    """sha256 over moves, tags, analysis_ops, unresolved and final grids."""
    digest = hashlib.sha256()
    for geometry, array in _router_corpus():
        result = get_algorithm(algorithm, geometry).schedule(array)
        for move in result.schedule:
            shifts = ";".join(
                f"{s.direction.name},{s.line},{s.span_start},{s.span_stop},{s.steps}"
                for s in move.shifts
            )
            digest.update(f"{move.tag}|{shifts}\n".encode())
        digest.update(
            f"ops={result.analysis_ops} "
            f"unresolved={result.unresolved_defects}\n".encode()
        )
        digest.update(np.packbits(result.final.grid).tobytes())
    return digest.hexdigest()


#: Pinned router outputs; the vectorised and reference MTA1 schedulers
#: share one digest.
MTA1_DIGEST = "a0073f76483d15dec49b1b579e7900fc939e162afd416bfb205bcc458dfa1372"
QRM_REPAIR_DIGEST = "25f4f2a23398c9c46600870637ad422fd8b0db01f6fcb9dfda05c9ac477ecf06"


def test_router_outputs_are_pinned():
    assert _router_digest("mta1") == MTA1_DIGEST
    assert _router_digest("mta1-reference") == MTA1_DIGEST
    assert _router_digest("qrm-repair") == QRM_REPAIR_DIGEST
