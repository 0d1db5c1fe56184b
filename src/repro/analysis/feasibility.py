"""Analytic model of per-quadrant assembly feasibility.

Centre-ward row/column compaction inside a quadrant converges to the
canonical Young diagram of the quadrant's row-occupation counts: after
the row pass every local row is a prefix of length ``len_r``, and after
the column pass local column ``j`` holds ``h_j = #{r : len_r > j}``
atoms stacked against the corner.  With Bernoulli(p) loading the
``len_r`` are i.i.d. Binomial(Qw, p), which makes the expected target
fill *computable in closed form*:

* column ``j`` of the diagram is Binomial(Q_rows, q_j) distributed with
  ``q_j = P(Binom(Q_cols, p) > j)``;
* the quadrant's target corner (T_r x T_c sites) receives
  ``sum_{j < T_c} E[min(h_j, T_r)]`` atoms in expectation.

The model is validated against the measured QRM fill in the test suite —
it is the quantitative form of the feasibility analysis in DESIGN.md and
predicts the ~91 % fill plateau the success sweep (E5) observes at 50 %
loading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.lattice.geometry import ArrayGeometry


def _expected_min_binomial(n: int, prob: float, cap: int) -> float:
    """``E[min(X, cap)]`` for ``X ~ Binomial(n, prob)``."""
    if cap <= 0:
        return 0.0
    if cap >= n:
        return n * prob
    # Imported here, not at module level: `import repro` reaches this
    # module, and scipy would otherwise dominate every start-up.
    from scipy import stats

    k = np.arange(0, n + 1)
    pmf = stats.binom.pmf(k, n, prob)
    return float(np.sum(np.minimum(k, cap) * pmf))


@dataclass(frozen=True)
class FeasibilityEstimate:
    """Predicted assembly quality of pure quadrant compaction."""

    geometry: ArrayGeometry
    fill: float
    expected_target_fill: float
    expected_defects: float
    column_heights: tuple[float, ...]  # E[h_j] for the target columns

    def format(self) -> str:
        return (
            f"{self.geometry.width}x{self.geometry.height} @ fill "
            f"{self.fill:.2f}: predicted target fill "
            f"{self.expected_target_fill:.1%} "
            f"({self.expected_defects:.1f} defects expected)"
        )


def predict_compaction_fill(
    geometry: ArrayGeometry, fill: float
) -> FeasibilityEstimate:
    """Expected target fill of QRM-style compaction under Bernoulli load.

    Exact in expectation for the fresh scan mode (whose fixpoint is the
    canonical Young diagram); the pipelined mode's fixpoint differs by at
    most the stale-skip residue, which the validation test bounds.
    """
    if not 0.0 <= fill <= 1.0:
        raise ConfigurationError(f"fill must be in [0, 1], got {fill}")
    from scipy import stats

    q_rows = geometry.half_height
    q_cols = geometry.half_width
    t_rows = geometry.target_height // 2
    t_cols = geometry.target_width // 2

    expected_atoms = 0.0
    heights = []
    for j in range(t_cols):
        # P(one row's prefix is longer than j) under Binomial(q_cols, p).
        q_j = float(stats.binom.sf(j, q_cols, fill))
        heights.append(q_rows * q_j)
        expected_atoms += _expected_min_binomial(q_rows, q_j, t_rows)

    target_sites = t_rows * t_cols
    per_quadrant_fill = expected_atoms / target_sites if target_sites else 1.0
    return FeasibilityEstimate(
        geometry=geometry,
        fill=fill,
        expected_target_fill=per_quadrant_fill,
        expected_defects=4 * (target_sites - expected_atoms),
        column_heights=tuple(heights),
    )


def minimum_fill_for_target(
    geometry: ArrayGeometry,
    required_fill: float = 0.999,
    tolerance: float = 1e-3,
) -> float:
    """Smallest loading probability whose predicted fill meets the bar.

    Bisection on the monotone :func:`predict_compaction_fill`; tells an
    operator how hard the MOT loading has to work before pure compaction
    (no repair stage) assembles the target.
    """
    if not 0.0 < required_fill <= 1.0:
        raise ConfigurationError(
            f"required_fill must be in (0, 1], got {required_fill}"
        )
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if predict_compaction_fill(geometry, mid).expected_target_fill >= (
            required_fill
        ):
            hi = mid
        else:
            lo = mid
    return hi
