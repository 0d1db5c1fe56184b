"""Gaussian point-spread function utilities.

The imaging model approximates the microscope's PSF as an isotropic
Gaussian; ``sigma`` and kernel radii are in *pixels* (the camera model
converts from physical units), and kernels are normalised to unit sum
so convolution conserves photon counts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def gaussian_kernel(sigma: float, radius: int | None = None) -> np.ndarray:
    """Normalised 2-D Gaussian kernel.

    ``radius`` defaults to ``ceil(3 * sigma)``, which captures > 99.7 %
    of the energy; the kernel is renormalised to sum to exactly 1 so
    photon counts are conserved by the convolution.
    """
    one_d = _gaussian_profile(sigma, radius)
    kernel = np.outer(one_d, one_d)
    return kernel / kernel.sum()


def _gaussian_profile(sigma: float, radius: int | None = None) -> np.ndarray:
    """Unnormalised 1-D Gaussian at offsets ``-radius..radius`` (see above)."""
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    if radius is None:
        radius = int(np.ceil(3.0 * sigma))
    if radius < 1:
        radius = 1
    coords = np.arange(-radius, radius + 1, dtype=float)
    return np.exp(-0.5 * (coords / sigma) ** 2)


def convolve2d_same(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-size 2-D convolution via FFT (kernel centred)."""
    kh, kw = kernel.shape
    ih, iw = image.shape
    padded = np.zeros((ih + kh - 1, iw + kw - 1), dtype=float)
    padded[:ih, :iw] = image
    spec = np.fft.rfft2(padded) * np.fft.rfft2(kernel, s=padded.shape)
    full = np.fft.irfft2(spec, s=padded.shape)
    r0 = (kh - 1) // 2
    c0 = (kw - 1) // 2
    return full[r0 : r0 + ih, c0 : c0 + iw]
