"""Mask-generalisation equivalence and compatibility suite.

Three contracts of the arbitrary-target-mask refactor:

* **Rectangle bit-identity** — a geometry whose mask is the centred
  rectangle schedules bit-identically to the plain (mask-free)
  geometry, for every registered algorithm.  The rectangle special
  case must be a special case, not a fork.
* **Masked schedule invariants** — property-tested over the
  ring/triangular/sparse mask strategies: every schedule replays
  exactly onto its recorded final grid, every repair move fills a mask
  site, and ``defect_free`` agrees with the mask's own defect count.
* **Cache compatibility** — pinned pre-refactor hashes: instance keys,
  trial cache keys, seed streams, and campaign spec hashes of
  rectangle-target cells are byte-identical to what the pre-mask code
  produced, so no committed cache or journal is invalidated.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aod.executor import apply_parallel_move
from repro.baselines.base import (
    get_algorithm,
    list_algorithms,
    resolve_algorithms,
    supports_geometry,
)
from repro.errors import GeometryError, UnsupportedGeometryError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform
from repro.lattice.mask import TargetMask

from oracles import assert_results_identical, masked_atom_arrays

#: Algorithms that accept non-rectangular masks (everything not
#: declared ``rect_only``), restricted to the fast paths the masked
#: invariants suite drives.
MASKED_ALGORITHMS = ("qrm", "qrm-repair", "psca")

_REPAIR_TAG = re.compile(r"^repair-\((\d+), (\d+)\)$")


# ---------------------------------------------------------------------------
# Rectangle bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(list_algorithms()))
def test_rect_mask_schedules_bit_identical(name):
    """mask=rect(T) and plain target=T produce identical schedules."""
    size, target = 8, 4
    plain = ArrayGeometry.square(size, target)
    masked = ArrayGeometry.with_mask(
        size, size, TargetMask.rect(size, size, target, target)
    )
    assert masked.is_rect_target
    assert supports_geometry(name, masked)
    for seed in (0, 1, 2):
        grid = load_uniform(plain, 0.5, rng=seed).grid
        ours = get_algorithm(name, masked).schedule(AtomArray(masked, grid))
        reference = get_algorithm(name, plain).schedule(AtomArray(plain, grid))
        assert_results_identical(ours, reference)


# ---------------------------------------------------------------------------
# Masked schedule invariants
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    array=masked_atom_arrays(),
    name=st.sampled_from(MASKED_ALGORITHMS),
)
def test_masked_schedule_invariants(array, name):
    """Replay identity, on-mask repair moves, defect-free consistency."""
    mask = array.geometry.target_mask
    result = get_algorithm(name, array.geometry).schedule(array)

    # The recorded schedule replays exactly onto the recorded final grid.
    replay = result.initial.grid.copy()
    for move in result.schedule:
        apply_parallel_move(replay, move)
        match = _REPAIR_TAG.match(move.tag or "")
        if match is not None:
            row, col = int(match.group(1)), int(match.group(2))
            # No repair move ever targets an off-mask site.
            assert mask.contains(row, col), (
                f"repair move targets off-mask site ({row}, {col})"
            )
    assert np.array_equal(replay, result.final.grid)

    # ``defect_free`` is the mask's own defect count, nothing else.
    defects = int((mask.mask & ~result.final.grid).sum())
    assert result.defect_free == (defects == 0)


@settings(max_examples=20, deadline=None)
@given(array=masked_atom_arrays())
def test_masked_repair_fills_mask_when_atoms_suffice(array):
    """With enough atoms and full scans, qrm-repair assembles the mask."""
    from repro.config import MASK_SCAN_LIMIT

    if array.n_atoms < array.geometry.target_mask.n_sites:
        return  # under-loaded draws cannot converge by construction
    result = get_algorithm(
        "qrm-repair", array.geometry, scan_limit=MASK_SCAN_LIMIT
    ).schedule(array)
    # Atom conservation: moves relocate, never create or destroy.
    assert result.final.n_atoms == array.n_atoms
    if result.defect_free:
        filled = int((array.geometry.target_mask.mask & result.final.grid).sum())
        assert filled == array.geometry.target_mask.n_sites


# ---------------------------------------------------------------------------
# Geometry guard rails
# ---------------------------------------------------------------------------


def test_square_below_minimum_raises_instead_of_clamping():
    with pytest.raises(GeometryError, match="too small"):
        ArrayGeometry.square(2)
    # An explicit target is still honoured at any legal size.
    geometry = ArrayGeometry.square(2, 2)
    assert geometry.target_width == 2


def test_rect_only_algorithms_reject_masked_geometries():
    geometry = ArrayGeometry.with_mask(
        8, 8, TargetMask.ring(8, 8, outer_radius=3.0)
    )
    assert not supports_geometry("tetris", geometry)
    assert not supports_geometry("mta1", geometry)
    assert supports_geometry("qrm", geometry)
    with pytest.raises(UnsupportedGeometryError, match="tetris"):
        resolve_algorithms(("qrm", "tetris"), geometry)
    # The rectangle leg keeps resolving everything.
    assert resolve_algorithms(("qrm", "tetris"), ArrayGeometry.square(8)) == (
        "qrm",
        "tetris",
    )


# ---------------------------------------------------------------------------
# Cache compatibility: pinned pre-refactor hashes
# ---------------------------------------------------------------------------

# Produced by the pre-mask code (TRIAL_SCHEMA_VERSION 3) and pinned
# verbatim: if any of these move, every committed trial cache, journal,
# and campaign results directory keyed before the mask refactor is
# silently invalidated.  The lossy trial key and the lossy spec hash
# also carry LOSS_STREAM_VERSION 2, so they moved, on purpose, with the
# loss stream; the loss-free pins and the trial's seed stream did not.
PINNED_INSTANCE_HASHES = {
    (8, None, 0.5): "14e9412b8e8e11d42ab3222fe9894397c99bba4b70ba7e6835af255c0ac4e23f",
    (8, None, 0.7): "5d0a6c22060b24cd627e8603b49f008be7c8b5ec2dbf3e4a83dc8a739e06bfbf",
}
PINNED_TRIAL_KEY_PLAIN = (
    "61129f6550add429d88c80397d60eeb3b87ccba765497255bffe05799dfc6da9"
)
PINNED_TRIAL_KEY_FULL = (
    "884b1e83d1b0a7e21b7d4d540c84be5dc819bb774c50f10383371ef2d851d270"
)
PINNED_TRIAL_STREAM_FULL = [1762682798, 2515118248, 3365019787, 3290816421]
PINNED_SPEC_HASH = "4d72c9c61c694291"

# Trial keys of a 16x16 cell (seed 0, master seed 7) with one QRM
# parameter off its default each, and the spec hash of a lossy campaign
# with every loss field off its default, pinned from the code that
# spelt these parameter sets as campaign-only mirror types: the model
# types must serialise to the same bytes, field by field.
PINNED_QRM_OVERRIDE_KEYS = {
    "fresh": "92bdf123becf393f1a89e5f5db784854887903db18fe4f1680f3a01237233cfd",
    "split": "bc03b8578e9e5e119a16c04ed4c95e26cfc0642e144728af5bff021a6884d881",
    "repair": "92a64b46443970efff58423dc6b2cf18b9e0172f1b205fd81978772c4ce292f1",
    "scan_limit": "c9ea341cdc89dc17a2a711d8c7f262b6789382fbb41442dbac50302218dae5f1",
    "n_iterations": (
        "1b0a186101aa69d0e277bbbce94ab06151aa4787040598b03c182d93b2d715d8"
    ),
}
PINNED_LOSSY_SPEC_HASH = "ad37b9598db3fd2b"


def test_rect_instance_keys_unchanged():
    from repro.campaign.spec import ScenarioCell, stable_hash

    for (size, target, fill), pinned in PINNED_INSTANCE_HASHES.items():
        cell = ScenarioCell(algorithm="qrm", size=size, target=target, fill=fill)
        assert "mask" not in cell.instance_key()
        assert "loading" not in cell.instance_key()
        assert stable_hash(cell.instance_key()) == pinned


def test_rect_trial_cache_keys_and_seed_streams_unchanged():
    from repro.campaign.spec import ScenarioCell
    from repro.campaign.trial import TrialSpec
    from repro.config import QrmParameters
    from repro.physics.loss import LossModel

    plain = TrialSpec(
        ScenarioCell(algorithm="qrm", size=8, target=None, fill=0.5),
        seed_index=1,
        master_seed=1234,
    )
    assert plain.key() == PINNED_TRIAL_KEY_PLAIN

    full = TrialSpec(
        ScenarioCell(
            algorithm="qrm",
            size=16,
            target=4,
            fill=0.7,
            loss=LossModel(vacuum_lifetime_s=1.0),
            qrm=QrmParameters(scan_limit=2),
            cycles=2,
        ),
        seed_index=0,
        master_seed=99,
    )
    assert full.key() == PINNED_TRIAL_KEY_FULL
    rng = np.random.default_rng(full.seed_sequence())
    assert rng.integers(0, 2**32, 4).tolist() == PINNED_TRIAL_STREAM_FULL


def test_rect_campaign_spec_hash_and_grid_unchanged():
    from repro.campaign.spec import CampaignSpec
    from repro.physics.loss import LossModel

    spec = CampaignSpec(
        name="pin",
        algorithms=("qrm", "tetris"),
        sizes=(8, 16),
        fills=(0.5, 0.7),
        targets=(None, 4),
        loss_models=(None, LossModel(vacuum_lifetime_s=1.0)),
        n_seeds=2,
        master_seed=1234,
    )
    assert spec.spec_hash() == PINNED_SPEC_HASH
    cells = spec.expand()
    assert len(cells) == 32
    # Rectangle cells serialise without any mask-era key, so their
    # to_dict()/key() bytes are exactly the pre-refactor ones.
    for cell in cells:
        assert "mask" not in cell.to_dict()
        assert "loading" not in cell.to_dict()


@pytest.mark.parametrize(
    "name, params",
    [
        ("fresh", {"scan_mode": "fresh"}),
        ("split", {"merge_mirror_quadrants": False}),
        ("repair", {"enable_repair": True}),
        ("scan_limit", {"scan_limit": 2}),
        ("n_iterations", {"n_iterations": 2}),
    ],
)
def test_qrm_override_trial_keys_unchanged(name, params):
    from repro.campaign.spec import ScenarioCell
    from repro.campaign.trial import TrialSpec
    from repro.config import QrmParameters

    cell = ScenarioCell(
        algorithm="qrm", size=16, fill=0.5, qrm=QrmParameters(**params)
    )
    assert TrialSpec(cell, 0, 7).key() == PINNED_QRM_OVERRIDE_KEYS[name]


def test_lossy_spec_hash_unchanged():
    from repro.campaign.spec import CampaignSpec
    from repro.physics.loss import LossModel

    loss = LossModel(
        vacuum_lifetime_s=2.5, loss_per_transfer=0.01, loss_per_site=0.001
    )
    spec = CampaignSpec(
        name="pin-loss", sizes=(16,), loss_models=(loss,), n_seeds=2, master_seed=5
    )
    assert spec.spec_hash() == PINNED_LOSSY_SPEC_HASH


def test_loss_stream_version_keys_lossy_cells_only(monkeypatch):
    from repro.campaign import spec as spec_module
    from repro.campaign import trial as trial_module
    from repro.campaign.spec import CampaignSpec, ScenarioCell
    from repro.campaign.trial import TrialSpec
    from repro.physics.loss import LossModel

    def fingerprints():
        cells = [
            ScenarioCell(algorithm="qrm", size=8, target=None, fill=0.5, loss=loss)
            for loss in (None, LossModel())
        ]
        keys = [TrialSpec(cell, 0, 1).key() for cell in cells]
        hashes = [
            CampaignSpec(name="s", loss_models=(loss,)).spec_hash()
            for loss in (None, LossModel())
        ]
        return keys, hashes

    (plain_key, lossy_key), (plain_hash, lossy_hash) = fingerprints()
    monkeypatch.setattr(spec_module, "LOSS_STREAM_VERSION", 99)
    monkeypatch.setattr(trial_module, "LOSS_STREAM_VERSION", 99)
    (plain_key2, lossy_key2), (plain_hash2, lossy_hash2) = fingerprints()
    assert (plain_key2, plain_hash2) == (plain_key, plain_hash)
    assert lossy_key2 != lossy_key and lossy_hash2 != lossy_hash


def test_masked_cells_key_differently():
    from repro.campaign.spec import MaskSpec, ScenarioCell, stable_hash

    rect = ScenarioCell(algorithm="qrm", size=8, target=None, fill=0.5)
    ring = ScenarioCell(
        algorithm="qrm",
        size=8,
        target=None,
        fill=0.5,
        mask=MaskSpec.of("ring", outer=3.0),
    )
    poisson = ScenarioCell(
        algorithm="qrm", size=8, target=None, fill=0.5, loading="poisson"
    )
    keys = {
        stable_hash(cell.instance_key()) for cell in (rect, ring, poisson)
    }
    assert len(keys) == 3
    assert "mask" in ring.instance_key()
    assert "loading" in poisson.instance_key()


# ---------------------------------------------------------------------------
# Masked wire/serialisation round trips
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(array=masked_atom_arrays())
def test_masked_schedule_serialises_round_trip(array):
    from repro.aod import serialize

    result = get_algorithm("qrm", array.geometry).schedule(array)
    recovered = serialize.loads(serialize.dumps(result.schedule))
    assert recovered.geometry == result.schedule.geometry
    assert list(recovered) == list(result.schedule)


def test_rect_schedule_document_has_no_mask_key():
    from repro.aod.serialize import schedule_to_dict

    geometry = ArrayGeometry.square(8, 4)
    result = get_algorithm("qrm", geometry).schedule(
        load_uniform(geometry, 0.5, rng=7)
    )
    assert "mask" not in schedule_to_dict(result.schedule)["geometry"]
