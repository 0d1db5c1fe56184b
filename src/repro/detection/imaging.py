"""Synthetic fluorescence image generation.

Atoms are point emitters at site centres; their light spreads with the
camera PSF, photon arrival is Poisson, and the sensor adds a uniform
Poisson background plus Gaussian read noise.  The output is an
electron-count image on which :mod:`repro.detection.detect` runs.

Units: photon/electron counts per pixel (floats after quantum
efficiency and read noise), PSF width in pixels, geometry in lattice
sites.  Randomness comes only from the caller-supplied generator, so
the closed-loop pipeline can pre-spawn one camera stream per frame and
stay bit-reproducible.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.detection.camera import CameraConfig, DEFAULT_CAMERA
from repro.detection.psf import _gaussian_profile, convolve2d_same, gaussian_kernel
from repro.lattice.array import AtomArray
from repro.lattice.loading import as_rng


def _site_weights(camera: CameraConfig) -> tuple[np.ndarray, int]:
    """PSF weight of each neighbouring site on each pixel of a site.

    Returns ``(weights, low)``: ``weights[b, j]`` is the normalised 1-D
    kernel's weight on pixel ``b`` of a site (along either axis) from
    the site ``low + j`` sites away, zero beyond the kernel radius.
    """
    pps = camera.pixels_per_site
    profile = _gaussian_profile(camera.psf_sigma_px)
    kernel = profile / profile.sum()
    radius = kernel.size // 2
    centre = pps // 2
    low = -((radius + centre) // pps)
    high = (radius + pps - 1 - centre) // pps
    # Pixel b sees the atom of site offset d at distance b - centre - d*pps.
    distance = np.arange(pps)[:, None] - centre - np.arange(low, high + 1) * pps
    reach = np.abs(distance) <= radius
    weights = np.where(reach, kernel[np.where(reach, distance + radius, 0)], 0.0)
    return weights, low


def expected_image(
    array: AtomArray, camera: CameraConfig = DEFAULT_CAMERA
) -> np.ndarray:
    """Noise-free expected electron counts per pixel.

    Atoms sit only at site centres, so the separable PSF reaches each
    pixel from only the few sites around its own: the image is two
    smears of the occupancy grid at site stride, one per axis, through
    the ``(pixels_per_site, offsets)`` table of :func:`_site_weights`.
    Light beyond the image edge is cropped, as in
    :func:`expected_image_reference`, which this matches to round-off.
    A pixel out of every atom's reach is exactly the background.
    """
    height, width = array.geometry.height, array.geometry.width
    weights, low = _site_weights(camera)
    offsets = weights.shape[1]
    # padded[i, j] is site (i + low, j + low); sites off the array are empty.
    padded = np.zeros((height + offsets - 1, width + offsets - 1))
    padded[-low : height - low, -low : width - low] = array.grid
    # Along x: rows[i, c, b] is site row i + low's light on pixel column
    # c * pps + b.
    along_x = weights.T * camera.photons_per_atom
    rows = sliding_window_view(padded, offsets, axis=1) @ along_x
    rows = rows.reshape(height + offsets - 1, -1)
    # Along y: photons[r, a] is pixel row r * pps + a.
    windows = sliding_window_view(rows, offsets, axis=0).transpose(0, 2, 1)
    photons = (weights @ windows).reshape(camera.image_shape(height, width))
    photons += camera.background_per_px
    photons *= camera.quantum_efficiency
    return photons


def expected_image_reference(
    array: AtomArray, camera: CameraConfig = DEFAULT_CAMERA
) -> np.ndarray:
    """FFT convolution of the atoms' impulses, the oracle for :func:`expected_image`."""
    pps = camera.pixels_per_site
    shape = camera.image_shape(array.geometry.height, array.geometry.width)
    impulses = np.zeros(shape, dtype=float)
    centre = pps // 2
    rows, cols = np.nonzero(array.grid)
    impulses[rows * pps + centre, cols * pps + centre] = (camera.photons_per_atom)
    kernel = gaussian_kernel(camera.psf_sigma_px)
    photons = convolve2d_same(impulses, kernel) + camera.background_per_px
    return photons * camera.quantum_efficiency


def render_image(
    array: AtomArray,
    camera: CameraConfig = DEFAULT_CAMERA,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """One noisy exposure of ``array`` (electron counts per pixel)."""
    gen = as_rng(rng)
    image = gen.poisson(expected_image(array, camera)).astype(float)
    if camera.read_noise_e > 0:
        image += gen.normal(0.0, camera.read_noise_e, size=image.shape)
    return image
