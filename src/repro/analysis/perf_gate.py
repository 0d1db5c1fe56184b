"""Speedup regression gate over committed ``BENCH_*.json`` artefacts.

Raw wall-clock numbers are machine-dependent, so the gate never compares
milliseconds across reports.  It compares each record's dimensionless
``ratio`` (see :mod:`repro.analysis.perf`), keyed by ``name@size
fill=F``: both sides of a ratio are measured interleaved within one
run, so it transfers between machines.  A fresh report passes when no
ratio it shares with the baseline is more than :data:`TOLERANCE` below
the baseline's.  A ratio only one report carries is named in a notice
instead of compared.  A report of another schema version is refused:
CI gates a fresh report against the committed artefact of the same
commit, so a version mismatch means the artefact was not regenerated.

:func:`evaluate_gate` returns a :class:`GateOutcome` that carries the
failures and the notices and renders every slipping ratio in one
combined failure message — the shape ``repro bench --gate`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.perf import BENCH_SCHEMA_VERSION
from repro.errors import ConfigurationError

#: How far below its baseline value a ratio may fall before the gate fails.
TOLERANCE = 0.15


def check_schema(payload: Mapping, source: str) -> None:
    """Refuse a report written under another BENCH schema version."""
    version = payload.get("schema_version") if isinstance(payload, Mapping) else None
    if version != BENCH_SCHEMA_VERSION:
        raise ConfigurationError(
            f"{source} has BENCH schema_version {version!r}; the gate "
            f"compares only schema_version {BENCH_SCHEMA_VERSION} reports"
        )


def _ratios(payload: Mapping) -> dict[str, float]:
    """``name@size fill=F`` -> ratio, for every record of a report."""
    return {
        f"{record['name']}@{record['size']} fill={record['fill']:g}": record["ratio"]
        for record in payload["ratios"]
    }


@dataclass(frozen=True)
class GateOutcome:
    """Everything one gate evaluation decided.

    ``failures`` are the slipping ratios (empty = gate passes);
    ``notices`` name the ratios that could not be compared and why, so
    a gate run that silently measured nothing is visible in the log.
    """

    failures: list[str] = field(default_factory=list)
    notices: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def message(self) -> str:
        """One combined failure message naming every slipping ratio."""
        if self.ok:
            return "perf gate passed"
        lines = [
            f"perf gate: {len(self.failures)} speedup ratio(s) regressed:"
        ]
        lines.extend(f"  - {failure}" for failure in self.failures)
        return "\n".join(lines)


def evaluate_gate(fresh: Mapping, baseline: Mapping) -> GateOutcome:
    """Check every ratio the two reports share; name the one-sided ones.

    Every shared ratio is checked, so one evaluation reports **all**
    slipping ratios at once rather than stopping at the first.  Raises
    :class:`~repro.errors.ConfigurationError` when either report has
    another schema version.
    """
    check_schema(fresh, "the fresh report")
    check_schema(baseline, "the baseline")
    fresh_ratios = _ratios(fresh)
    base_ratios = _ratios(baseline)
    failures: list[str] = []
    notices = [
        f"{key}: in the baseline but not measured here"
        for key in base_ratios
        if key not in fresh_ratios
    ]
    for key, ratio in fresh_ratios.items():
        if key not in base_ratios:
            notices.append(f"{key}: measured here but not in the baseline")
            continue
        floor = base_ratios[key] * (1.0 - TOLERANCE)
        if ratio < floor:
            failures.append(
                f"{key}: {ratio:.2f}x < floor {floor:.2f}x "
                f"(baseline {base_ratios[key]:.2f}x, tolerance {TOLERANCE:.0%})"
            )
    return GateOutcome(failures=failures, notices=notices)
