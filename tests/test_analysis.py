"""Tests for the experiment runners and table formatting."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    PAPER_FIG7B_US,
    run_ablation,
    run_fig7a,
    run_fig7b,
    run_fig8,
    run_headline,
    run_success_sweep,
    run_workflow_comparison,
)
from repro.analysis.stats import Summary
from repro.analysis.tables import format_table, to_csv
from repro.campaign import CampaignSpec, run_campaign


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "name" in lines[1]
        assert "-" in lines[2]
        assert len(lines) == 5

    def test_format_table_bool_and_float(self):
        text = format_table(["x"], [[True], [1.23456]])
        assert "yes" in text
        assert "1.23" in text

    def test_to_csv(self):
        csv = to_csv(["a", "b"], [[1, 2.5], [3, 4.0]])
        lines = csv.splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"


class TestSummary:
    def test_of_values(self):
        summary = Summary.of([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.n == 3

    def test_empty(self):
        import math

        assert math.isnan(Summary.of([]).mean)


class TestAssemblyStatistics:
    """Assembly quality on the campaign engine's paired seed streams."""

    @staticmethod
    def _fill_stats(algorithms, fills, n_seeds):
        spec = CampaignSpec(
            name="assembly",
            algorithms=algorithms,
            sizes=(20,),
            fills=fills,
            n_seeds=n_seeds,
            master_seed=0,
        )
        return run_campaign(spec).fill_stats()

    def test_repair_beats_plain_qrm(self):
        plain, repaired = self._fill_stats(("qrm", "qrm-repair"), (0.5,), 3)
        assert (plain.algorithm, repaired.algorithm) == ("qrm", "qrm-repair")
        assert repaired.mean_target_fill >= plain.mean_target_fill
        assert repaired.success_probability >= plain.success_probability

    def test_higher_fill_helps(self):
        low, high = self._fill_stats(("qrm",), (0.5, 0.8), 2)
        assert (low.fill, high.fill) == (0.5, 0.8)
        assert high.mean_target_fill >= low.mean_target_fill


class TestRunners:
    def test_fig7a_small(self):
        result = run_fig7a(sizes=(10, 20), trials=1)
        assert [r.size for r in result.rows] == [10, 20]
        for row in result.rows:
            assert row.fpga_us > 0
            assert row.cpu_model_us > 0
            assert row.speedup_model > 1
        assert "Fig 7(a)" in result.format_table()
        assert "10" in result.to_csv()

    def test_fig7a_fpga_flatter_than_cpu(self):
        result = run_fig7a(sizes=(10, 50), trials=1)
        fpga_growth = result.rows[1].fpga_us / result.rows[0].fpga_us
        cpu_growth = result.rows[1].cpu_model_us / result.rows[0].cpu_model_us
        assert fpga_growth < cpu_growth

    def test_fig7b_ordering(self):
        result = run_fig7b(size=20, trials=1)
        by_label = {r.label: r for r in result.rows}
        assert set(by_label) == set(PAPER_FIG7B_US)
        assert (
            by_label["qrm-fpga"].model_us
            < by_label["qrm-cpu"].model_us
            < by_label["tetris"].model_us
            < by_label["psca"].model_us
            < by_label["mta1"].model_us
        )
        assert "Fig 7(b)" in result.format_table()

    def test_fig8_rows(self):
        result = run_fig8(sizes=(10, 90))
        assert result.rows[0].lut_pct < result.rows[1].lut_pct
        assert result.rows[0].bram_pct == result.rows[1].bram_pct
        assert result.rows[1].lut_pct == pytest.approx(6.31, abs=0.02)
        assert "Fig 8" in result.format_table()

    def test_headline(self):
        result = run_headline(seed=0)
        assert result.speedup_vs_cpu > 10
        assert result.speedup_vs_tetris > 50
        assert result.iterations_used <= 4
        assert "claim" in result.format_table()

    def test_ablation_rows(self):
        result = run_ablation(size=20, trials=1)
        assert len(result.rows) == 4
        pipelined, fresh, unmerged, sen = result.rows
        assert pipelined.mode == "pipelined"
        assert fresh.mode == "fresh"
        assert fresh.iterations <= pipelined.iterations
        assert fresh.skipped_stale == 0
        assert not unmerged.merge
        assert unmerged.moves >= pipelined.moves
        assert sen.mode == "pipelined+s_en"
        assert sen.moves <= pipelined.moves

    def test_success_sweep(self):
        result = run_success_sweep(
            fills=(0.5, 0.7), size=20, trials=2, algorithms=("qrm",)
        )
        assert len(result.rows) == 2
        assert result.rows[1].mean_target_fill >= result.rows[0].mean_target_fill
        assert "P(success)" in result.format_table()

    def test_workflow_comparison(self):
        result = run_workflow_comparison(size=20)
        assert result.budget_b.total_us < result.budget_a.total_us
        assert "faster end to end" in result.format_table()
