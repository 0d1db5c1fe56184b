"""Speedup regression gate over committed ``BENCH_*.json`` artefacts.

Raw wall-clock numbers are machine-dependent, so the gate never compares
milliseconds across reports.  It compares the *dimensionless speedup
ratios* — vectorised-vs-reference per component, batched-vs-serial per
batch size, service-batching-on-vs-off at the highest measured client
concurrency — which are measured interleaved within one run and
therefore transfer between machines.  A fresh report passes when every
ratio it shares with the baseline is within ``tolerance`` (default 15%)
of the baseline's value; blocks present on only one side are skipped,
because a smoke-grid report legitimately measures fewer cases than the
committed full-grid artefact, and so are QRM ratios only one side
carries (an artefact from an older schema may record a ratio or a
whole component block that was since retired).

:func:`check_perf_regression` returns the raw failure strings;
:func:`evaluate_gate` wraps it in a :class:`GateOutcome` that also
carries skip *notices* (which blocks could not be compared, and why)
and renders every slipping ratio in one combined failure message — the
shape ``repro bench --gate`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


def _slipped(fresh: float, baseline: float, tolerance: float) -> bool:
    """Has ``fresh`` regressed more than ``tolerance`` below ``baseline``?"""
    return fresh < baseline * (1.0 - tolerance)


def _comparable(fresh: Mapping | None, baseline: Mapping | None) -> bool:
    """Blocks compare only when both exist and measured the same case."""
    return (
        fresh is not None
        and baseline is not None
        and fresh.get("size") == baseline.get("size")
        and fresh.get("fill") == baseline.get("fill")
    )


def _ratio_keys(block: Mapping) -> set[str]:
    """The ``speedup_vs_*`` ratios a QRM speedup block carries."""
    return {key for key in block if key.startswith("speedup_vs_")}


def check_perf_regression(
    fresh: Mapping,
    baseline: Mapping,
    tolerance: float = 0.15,
) -> list[str]:
    """Compare two bench-report payloads; return regression descriptions.

    ``fresh`` and ``baseline`` are ``BENCH_*.json`` payloads (the dict
    shape of :meth:`repro.analysis.perf.PerfReport.to_dict`).  An empty
    return value means the gate passes.  Each failure string names the
    ratio, both values, and the allowed floor.
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    failures: list[str] = []

    def check(label: str, fresh_ratio: float, base_ratio: float) -> None:
        if _slipped(fresh_ratio, base_ratio, tolerance):
            floor = base_ratio * (1.0 - tolerance)
            failures.append(
                f"{label}: {fresh_ratio:.2f}x < floor {floor:.2f}x "
                f"(baseline {base_ratio:.2f}x, tolerance {tolerance:.0%})"
            )

    fresh_speedup = fresh.get("speedup")
    base_speedup = baseline.get("speedup")
    if _comparable(fresh_speedup, base_speedup):
        size = fresh_speedup["size"]
        for key in sorted(_ratio_keys(fresh_speedup) & _ratio_keys(base_speedup)):
            check(
                f"qrm@{size} {key}",
                fresh_speedup[key],
                base_speedup[key],
            )

    fresh_components = fresh.get("component_speedups") or {}
    base_components = baseline.get("component_speedups") or {}
    for name in fresh_components.keys() & base_components.keys():
        fresh_block = fresh_components[name]
        base_block = base_components[name]
        if not _comparable(fresh_block, base_block):
            continue
        size = fresh_block["size"]
        if name == "batched_qrm":
            base_by_batch = {
                entry["batch_size"]: entry for entry in base_block["batches"]
            }
            for entry in fresh_block["batches"]:
                base_entry = base_by_batch.get(entry["batch_size"])
                if base_entry is None:
                    continue
                check(
                    f"batched_qrm@{size} B={entry['batch_size']} "
                    f"speedup_vs_single",
                    entry["speedup_vs_single"],
                    base_entry["speedup_vs_single"],
                )
            continue
        if name == "service_latency":
            # Only the highest concurrency both reports measured is
            # pinned: low-concurrency ratios are dominated by the batch
            # window (an intentional latency-for-throughput trade), so
            # they wobble with the window/schedule-time ratio rather
            # than signalling a regression.
            fresh_by_clients = {
                entry["clients"]: entry for entry in fresh_block["concurrency"]
            }
            base_by_clients = {
                entry["clients"]: entry for entry in base_block["concurrency"]
            }
            shared = fresh_by_clients.keys() & base_by_clients.keys()
            if not shared:
                continue
            clients = max(shared)
            check(
                f"service_latency@{size} c={clients} speedup_batched",
                fresh_by_clients[clients]["speedup_batched"],
                base_by_clients[clients]["speedup_batched"],
            )
            continue
        check(
            f"{name}@{size} speedup_vs_reference",
            fresh_block["speedup_vs_reference"],
            base_block["speedup_vs_reference"],
        )
    return failures


@dataclass(frozen=True)
class GateOutcome:
    """Everything one gate evaluation decided.

    ``failures`` are the slipping ratios (empty = gate passes);
    ``notices`` name the blocks that could not be compared and why, so
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


def _skip_notices(fresh: Mapping, baseline: Mapping) -> list[str]:
    """Why each non-compared block was skipped, in a stable order."""
    notices: list[str] = []

    def explain(label: str, fresh_block, base_block) -> None:
        if fresh_block is None and base_block is None:
            return
        if fresh_block is None:
            notices.append(f"{label}: in the baseline but not measured here")
        elif base_block is None:
            notices.append(f"{label}: measured here but absent from the baseline")
        elif not _comparable(fresh_block, base_block):
            notices.append(
                f"{label}: case mismatch "
                f"({fresh_block.get('size')}x{fresh_block.get('size')} "
                f"fill={fresh_block.get('fill')} here vs "
                f"{base_block.get('size')}x{base_block.get('size')} "
                f"fill={base_block.get('fill')} in the baseline)"
            )

    fresh_speedup = fresh.get("speedup")
    base_speedup = baseline.get("speedup")
    explain("qrm speedup", fresh_speedup, base_speedup)
    if _comparable(fresh_speedup, base_speedup):
        fresh_keys = _ratio_keys(fresh_speedup)
        for key in sorted(fresh_keys ^ _ratio_keys(base_speedup)):
            where = (
                "measured here but absent from the baseline"
                if key in fresh_keys
                else "in the baseline but not measured here"
            )
            notices.append(f"qrm speedup ratio {key!r}: {where}")
    fresh_components = fresh.get("component_speedups") or {}
    base_components = baseline.get("component_speedups") or {}
    for name in sorted(fresh_components.keys() | base_components.keys()):
        explain(
            f"component '{name}'",
            fresh_components.get(name),
            base_components.get(name),
        )
    return notices


def evaluate_gate(
    fresh: Mapping,
    baseline: Mapping,
    tolerance: float = 0.15,
) -> GateOutcome:
    """Run the gate and report failures *and* skipped-block notices.

    The comparison itself is :func:`check_perf_regression` — every
    shared ratio is checked, so one evaluation reports **all** slipping
    components at once rather than stopping at the first.
    """
    return GateOutcome(
        failures=check_perf_regression(fresh, baseline, tolerance),
        notices=_skip_notices(fresh, baseline),
    )
