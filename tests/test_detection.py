"""Tests for the imaging and detection substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import occupancy_grids

from repro.detection.camera import CameraConfig, DEFAULT_CAMERA
from repro.detection.detect import (
    detect_occupancy,
    detection_fidelity,
    site_signals,
)
from repro.detection.imaging import (
    expected_image,
    expected_image_reference,
    render_image,
)
from repro.detection.psf import convolve2d_same, gaussian_kernel
from repro.detection.threshold import (
    bimodal_threshold,
    otsu_threshold,
    refine_threshold_midpoint,
)
from repro.errors import ConfigurationError, DetectionError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform


class TestCameraConfig:
    def test_image_shape(self):
        camera = CameraConfig(pixels_per_site=4)
        assert camera.image_shape(10, 20) == (40, 80)

    def test_mean_signal(self):
        camera = CameraConfig(photons_per_atom=100, quantum_efficiency=0.5)
        assert camera.mean_signal_e == 50.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pixels_per_site": 0},
            {"photons_per_atom": 0},
            {"psf_sigma_px": 0},
            {"background_per_px": -1},
            {"quantum_efficiency": 0},
            {"quantum_efficiency": 1.5},
            {"read_noise_e": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            CameraConfig(**kwargs)


class TestPsf:
    def test_kernel_normalised(self):
        kernel = gaussian_kernel(1.5)
        assert kernel.sum() == pytest.approx(1.0)

    def test_kernel_symmetric(self):
        kernel = gaussian_kernel(2.0)
        assert np.allclose(kernel, kernel.T)
        assert np.allclose(kernel, kernel[::-1, ::-1])

    def test_kernel_radius_default(self):
        kernel = gaussian_kernel(1.0)
        assert kernel.shape == (7, 7)  # radius ceil(3*sigma) = 3

    def test_invalid_sigma(self):
        with pytest.raises(ConfigurationError):
            gaussian_kernel(0.0)

    def test_convolution_conserves_mass(self):
        image = np.zeros((16, 16))
        image[8, 8] = 100.0
        out = convolve2d_same(image, gaussian_kernel(1.0))
        assert out.shape == image.shape
        assert out.sum() == pytest.approx(100.0, rel=1e-6)
        assert out[8, 8] == out.max()


class TestImaging:
    def test_expected_image_shape(self, geo8):
        image = expected_image(AtomArray.full(geo8))
        assert image.shape == DEFAULT_CAMERA.image_shape(8, 8)

    def test_signal_above_background(self, geo8):
        array = AtomArray(geo8)
        array.set_site(4, 4, True)
        image = expected_image(array)
        pps = DEFAULT_CAMERA.pixels_per_site
        atom_px = image[4 * pps + pps // 2, 4 * pps + pps // 2]
        corner_px = image[0, 0]
        assert atom_px > 5 * corner_px

    def test_render_reproducible_with_seed(self, geo8):
        array = load_uniform(geo8, 0.5, rng=1)
        a = render_image(array, rng=42)
        b = render_image(array, rng=42)
        assert np.array_equal(a, b)

    def test_render_noisy(self, geo8):
        array = load_uniform(geo8, 0.5, rng=1)
        a = render_image(array, rng=1)
        b = render_image(array, rng=2)
        assert not np.array_equal(a, b)


cameras = st.builds(
    CameraConfig,
    pixels_per_site=st.integers(1, 8),
    photons_per_atom=st.floats(1.0, 1e4),
    psf_sigma_px=st.floats(0.3, 3.0),
    background_per_px=st.one_of(st.just(0.0), st.floats(0.01, 50.0)),
    quantum_efficiency=st.floats(0.05, 1.0),
)


@st.composite
def site_arrays(draw) -> AtomArray:
    """Arrays on even, often non-square geometries of sides 2-22."""
    height, width = (2 * draw(st.integers(1, 11)) for _ in range(2))
    geometry = ArrayGeometry(
        width=width, height=height, target_width=2, target_height=2
    )
    return AtomArray(geometry, draw(occupancy_grids(geometry)))


class TestSiteStrideImage:
    """``expected_image`` (site-stride smears) vs its FFT reference."""

    @given(site_arrays(), cameras)
    # A PSF radius (9 px) far beyond the site pitch (1 px), and a dark
    # sensor.
    @example(
        AtomArray.full(
            ArrayGeometry(width=4, height=6, target_width=2, target_height=2)
        ),
        CameraConfig(pixels_per_site=1, psf_sigma_px=3.0, background_per_px=0.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_fft_reference(self, array, camera):
        ours = expected_image(array, camera)
        reference = expected_image_reference(array, camera)
        assert ours.dtype == np.float64
        assert ours.shape == reference.shape
        # FFT round-off: held to the signal scale, not bit-identity.
        assert np.abs(ours - reference).max() <= 1e-12 * camera.mean_signal_e

    def test_render_draws_over_the_reference(self):
        geometry = ArrayGeometry.square(64)
        for seed in range(8):
            array = load_uniform(geometry, 0.5, rng=seed)
            gen = np.random.default_rng(seed)
            mean = np.clip(expected_image_reference(array), 0.0, None)
            reference = gen.poisson(mean).astype(float)
            reference += gen.normal(0.0, DEFAULT_CAMERA.read_noise_e, mean.shape)
            assert np.array_equal(render_image(array, rng=seed), reference)

    def test_dark_pixels_beyond_the_psf_are_exactly_zero(self):
        camera = CameraConfig(background_per_px=0.0)
        array = AtomArray(ArrayGeometry.square(16, 4))
        array.set_site(3, 4, True)
        array.set_site(11, 9, True)
        image = expected_image(array, camera)
        pps, radius = camera.pixels_per_site, int(np.ceil(3 * camera.psf_sigma_px))
        y, x = np.indices(image.shape)
        far = np.ones(image.shape, dtype=bool)
        for row, col in np.argwhere(array.grid):
            centre_y, centre_x = row * pps + pps // 2, col * pps + pps // 2
            far &= np.maximum(abs(y - centre_y), abs(x - centre_x)) > radius
        assert far.sum() > 3000
        assert (image[far] == 0.0).all()
        assert (image >= 0.0).all()


class TestThresholds:
    def test_otsu_separates_two_clusters(self, rng):
        low = rng.normal(10, 1, 500)
        high = rng.normal(50, 2, 500)
        threshold = otsu_threshold(np.concatenate([low, high]))
        # Otsu's criterion is flat across the inter-cluster gap, so any
        # split that classifies almost everything correctly is valid.
        misclassified = int((low > threshold).sum() + (high <= threshold).sum())
        assert misclassified <= 5

    def test_otsu_degenerate_constant(self):
        assert otsu_threshold(np.full(10, 7.0)) == 7.0

    def test_otsu_empty_rejected(self):
        with pytest.raises(DetectionError):
            otsu_threshold(np.zeros(0))

    def test_midpoint_refinement_centres(self, rng):
        values = np.concatenate([rng.normal(0, 1, 500), rng.normal(100, 1, 500)])
        refined = refine_threshold_midpoint(values, 20.0)
        assert 45 < refined < 55

    def test_bimodal_threshold_combined(self, rng):
        values = np.concatenate([rng.normal(5, 1, 300), rng.normal(60, 3, 300)])
        threshold = bimodal_threshold(values)
        assert 20 < threshold < 45


class TestDetection:
    def test_perfect_on_noise_free_image(self, geo20):
        truth = load_uniform(geo20, 0.5, rng=9)
        camera = CameraConfig(read_noise_e=0.0)
        image = expected_image(truth, camera)
        result = detect_occupancy(image, geo20, camera)
        assert result.array == truth
        assert detection_fidelity(truth, result.array) == 1.0

    def test_high_fidelity_on_noisy_image(self, geo20):
        truth = load_uniform(geo20, 0.5, rng=10)
        image = render_image(truth, rng=11)
        result = detect_occupancy(image, geo20)
        assert detection_fidelity(truth, result.array) >= 0.995
        assert result.separation_snr > 3.0

    def test_all_empty_array(self, geo8):
        truth = AtomArray(geo8)
        image = render_image(truth, rng=1)
        result = detect_occupancy(image, geo8)
        assert result.array.n_atoms == 0

    def test_all_full_array(self, geo8):
        truth = AtomArray.full(geo8)
        image = render_image(truth, rng=1)
        result = detect_occupancy(image, geo8)
        assert result.array.n_atoms == geo8.n_sites

    def test_site_signals_shape(self, geo8):
        image = render_image(AtomArray(geo8), rng=0)
        signals = site_signals(image, geo8, DEFAULT_CAMERA)
        assert signals.shape == geo8.shape

    def test_image_shape_mismatch_rejected(self, geo8):
        with pytest.raises(DetectionError):
            site_signals(np.zeros((5, 5)), geo8, DEFAULT_CAMERA)

    def test_fidelity_geometry_mismatch(self, geo8, geo20):
        with pytest.raises(DetectionError):
            detection_fidelity(AtomArray(geo8), AtomArray(geo20))
