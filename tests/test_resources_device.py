"""Tests for the device catalogue and resource model (Fig. 8)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.fpga.device import ZU49DR, FpgaDevice
from repro.fpga.resources import ResourceModel


class TestDeviceCatalogue:
    def test_zu49dr_budget(self):
        assert ZU49DR.luts == 425_280
        assert ZU49DR.flip_flops == 850_560
        assert ZU49DR.bram_36k == 1080

    def test_utilisation_percentages(self):
        util = ZU49DR.utilisation(42528, 85056, 108)
        assert util["LUT"] == pytest.approx(10.0)
        assert util["FF"] == pytest.approx(10.0)
        assert util["BRAM"] == pytest.approx(10.0)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            FpgaDevice("bad", luts=0, flip_flops=1, bram_36k=1, dsp_slices=1)


class TestResourceModel:
    def test_paper_anchor_at_90(self):
        """Fig. 8: 6.31 % LUT and 6.19 % FF at 90x90."""
        util = ResourceModel().estimate(90).utilisation()
        assert util["LUT"] == pytest.approx(6.31, abs=0.02)
        assert util["FF"] == pytest.approx(6.19, abs=0.02)

    def test_lut_ff_linear_growth(self):
        model = ResourceModel()
        reports = model.sweep([10, 30, 50, 70, 90])
        luts = [r.total_luts for r in reports]
        diffs = [b - a for a, b in zip(luts, luts[1:])]
        assert max(diffs) - min(diffs) <= 2  # constant slope (rounding)

    def test_ff_grows_faster_than_lut(self):
        """Fig. 8: 'FF increasing slightly faster than LUT' (absolute)."""
        model = ResourceModel()
        r10, r90 = model.estimate(10), model.estimate(90)
        assert (r90.total_ffs - r10.total_ffs) > (r90.total_luts - r10.total_luts)

    def test_bram_flat_over_paper_range(self):
        model = ResourceModel()
        brams = {r.total_brams for r in model.sweep([10, 30, 50, 70, 90])}
        assert len(brams) == 1

    def test_bram_steps_up_for_huge_arrays(self):
        model = ResourceModel()
        assert model.estimate(500).total_brams > model.estimate(90).total_brams

    def test_qpm_share_about_half(self):
        """Sec. V-C: about half the resources sit in the four QPMs."""
        report = ResourceModel().estimate(50)
        qpm = next(m for m in report.modules if m.name == "quadrant_processors")
        assert qpm.luts / report.total_luts == pytest.approx(0.5, abs=0.02)

    def test_fits_on_default_device(self):
        util = ResourceModel().estimate(90).utilisation()
        assert max(util.values()) <= 100.0

    def test_fits_even_small_device(self):
        """A mid-range MPSoC (the XCZU7EV's budget) still holds 90x90."""
        small = FpgaDevice(
            name="xczu7ev",
            luts=230_400,
            flip_flops=460_800,
            bram_36k=312,
            dsp_slices=1728,
        )
        util = ResourceModel(device=small).estimate(90).utilisation()
        assert max(util.values()) <= 100.0

    def test_invalid_sizes_rejected(self):
        model = ResourceModel()
        with pytest.raises(ConfigurationError):
            model.estimate(0)
        with pytest.raises(ConfigurationError):
            model.estimate(15)

    def test_format_table(self):
        text = ResourceModel().estimate(50).format_table()
        assert "quadrant_processors" in text
        assert "utilisation %" in text
