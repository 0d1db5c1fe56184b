"""Tests for the analytic compaction-feasibility model."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.feasibility import (
    minimum_fill_for_target,
    predict_compaction_fill,
)
from repro.config import QrmParameters, ScanMode
from repro.core.qrm import QrmScheduler
from repro.errors import ConfigurationError
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform


class TestPrediction:
    def test_matches_empirical_fresh_fill_at_50(self):
        """The Young-diagram model predicts the measured fill closely."""
        geometry = ArrayGeometry.square(50, 30)
        estimate = predict_compaction_fill(geometry, 0.5)
        params = QrmParameters(scan_mode=ScanMode.FRESH)
        fills = []
        for seed in range(6):
            array = load_uniform(geometry, 0.5, rng=seed)
            result = QrmScheduler(geometry, params).schedule(array)
            fills.append(result.target_fill_fraction)
        empirical = statistics.mean(fills)
        assert estimate.expected_target_fill == pytest.approx(empirical, abs=0.02)

    def test_pipelined_mode_within_model_band(self):
        geometry = ArrayGeometry.square(30)
        estimate = predict_compaction_fill(geometry, 0.5)
        fills = []
        for seed in range(6):
            array = load_uniform(geometry, 0.5, rng=seed)
            result = QrmScheduler(geometry).schedule(array)
            fills.append(result.target_fill_fraction)
        assert statistics.mean(fills) == pytest.approx(
            estimate.expected_target_fill, abs=0.04
        )

    def test_monotone_in_fill(self):
        geometry = ArrayGeometry.square(50, 30)
        fills = [
            predict_compaction_fill(geometry, p).expected_target_fill
            for p in (0.3, 0.5, 0.7, 0.9)
        ]
        assert fills == sorted(fills)

    def test_saturates_at_full_loading(self):
        geometry = ArrayGeometry.square(20, 12)
        estimate = predict_compaction_fill(geometry, 1.0)
        assert estimate.expected_target_fill == pytest.approx(1.0)
        assert estimate.expected_defects == pytest.approx(0.0, abs=1e-9)

    def test_zero_loading_zero_fill(self):
        geometry = ArrayGeometry.square(20, 12)
        assert predict_compaction_fill(geometry, 0.0).expected_target_fill == 0.0

    def test_defect_accounting(self):
        geometry = ArrayGeometry.square(50, 30)
        estimate = predict_compaction_fill(geometry, 0.5)
        implied = 4 * ((geometry.target_height // 2) * (geometry.target_width // 2)) * (
            1 - estimate.expected_target_fill
        )
        assert estimate.expected_defects == pytest.approx(implied, rel=1e-6)

    def test_column_heights_decreasing(self):
        geometry = ArrayGeometry.square(50, 30)
        heights = predict_compaction_fill(geometry, 0.5).column_heights
        assert list(heights) == sorted(heights, reverse=True)

    def test_invalid_fill(self):
        geometry = ArrayGeometry.square(10)
        with pytest.raises(ConfigurationError):
            predict_compaction_fill(geometry, 1.5)

    def test_format(self):
        geometry = ArrayGeometry.square(10)
        assert "predicted target fill" in (
            predict_compaction_fill(geometry, 0.5).format()
        )


class TestMinimumFill:
    def test_threshold_in_sensible_band(self):
        geometry = ArrayGeometry.square(50, 30)
        threshold = minimum_fill_for_target(geometry, required_fill=0.999)
        assert 0.55 <= threshold <= 0.75
        # The threshold actually achieves the requirement.
        achieved = predict_compaction_fill(geometry, threshold)
        assert achieved.expected_target_fill >= 0.999

    def test_easier_targets_need_less(self):
        hard = ArrayGeometry.square(50, 30)
        easy = ArrayGeometry.square(50, 10)
        assert minimum_fill_for_target(easy) < minimum_fill_for_target(hard)

    def test_invalid_requirement(self):
        with pytest.raises(ConfigurationError):
            minimum_fill_for_target(ArrayGeometry.square(10), required_fill=0)


def run_fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestLazyScipy:
    """scipy loads only when a prediction runs, never at ``import repro``."""

    def test_import_repro_leaves_scipy_unloaded(self):
        completed = run_fresh_interpreter(
            "import sys, repro; print('scipy' in sys.modules)"
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"

    def test_imports_succeed_without_scipy(self):
        completed = run_fresh_interpreter(
            "import sys; sys.modules['scipy'] = None; "
            "import repro, repro.campaign.worker"
        )
        assert completed.returncode == 0, completed.stderr
