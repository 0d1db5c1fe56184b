"""MTA1 baseline — sequential single-atom transport (Ebadi et al., 2021).

The 256-atom programmable simulator of Ebadi et al. rearranges with one
mobile tweezer at a time: every target defect is matched to a reservoir
atom which is transported individually along a row-leg plus column-leg
path.  There is no multi-atom parallelism, which is why the paper's
Fig. 7(b) shows it roughly three orders of magnitude slower than QRM.

Reimplementation notes (the original is closed source):

* defects are served centre-outward, matching the published strategy of
  building the array from the middle;
* candidate atoms are ranked by Manhattan distance and the first one with
  a collision-free L-path wins; each leg is an individual ``steps = k``
  move of a single site;
* the analysis deliberately re-scans the occupancy per defect (the
  published algorithm recomputes reachability after every transport),
  giving the natural O(defects x reservoir) cost profile:
  ``analysis_ops`` counts every reservoir candidate examined per defect
  plus every path cell the short-circuiting L-path clearance actually
  probes.

That is exactly the L-path router of :mod:`repro.core.repair` run on the
raw load, so both schedulers are thin wrappers over it:
:class:`Mta1Scheduler` routes through the vectorised
:func:`~repro.core.repair.repair_defects` and
:class:`Mta1SchedulerReference` through its per-candidate oracle
:func:`~repro.core.repair.repair_defects_reference`, both with move tag
``"mta1"`` and a move budget that never binds.
"""

from __future__ import annotations

from repro.aod.schedule import MoveSchedule
from repro.core.repair import repair_defects, repair_defects_reference
from repro.core.result import RearrangementResult, timed_schedule
from repro.errors import UnsupportedGeometryError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry


class Mta1Scheduler:
    """Sequential one-atom-at-a-time rearrangement (vectorised router)."""

    name = "mta1"
    _router = staticmethod(repair_defects)

    def __init__(self, geometry: ArrayGeometry):
        if not geometry.is_rect_target:
            raise UnsupportedGeometryError(
                "mta1 routes into a rectangular target region; it does not "
                "support non-rectangular target masks (use qrm-repair)"
            )
        self.geometry = geometry

    def schedule(self, array: AtomArray) -> RearrangementResult:
        if array.geometry != self.geometry:
            raise ValueError("array geometry does not match the scheduler's geometry")
        return timed_schedule(lambda: self._analyse(array))

    def _analyse(self, array: AtomArray) -> RearrangementResult:
        live = array.copy()
        # Each defect takes at most two legs, so this budget never binds.
        outcome = self._router(
            live, max_moves=2 * self.geometry.n_target_sites, tag="mta1"
        )
        return RearrangementResult(
            algorithm=self.name,
            initial=array.copy(),
            final=live,
            schedule=MoveSchedule(self.geometry, self.name, outcome.moves),
            converged=outcome.unresolved == 0,
            analysis_ops=outcome.analysis_ops,
            unresolved_defects=outcome.unresolved,
        )


class Mta1SchedulerReference(Mta1Scheduler):
    """Per-defect, per-candidate re-scanning oracle.

    Semantically the seed scheduler: it routes through
    :func:`~repro.core.repair.repair_defects_reference`, where every
    defect re-derives the reservoir from ``occupied_sites()`` and probes
    candidates one by one until an L-path clears.
    :class:`Mta1Scheduler` must emit bit-identical schedules and op
    counts — the differential property tests enforce it.
    """

    _router = staticmethod(repair_defects_reference)
