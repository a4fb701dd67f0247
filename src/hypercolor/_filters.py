"""Shared low-level image filtering helpers."""

from __future__ import annotations

import numpy as np
from scipy import ndimage

__all__ = [
    "sobel_gradients",
    "gaussian_kernel_1d",
    "window_sum",
    "window_count",
]

# Derivative along columns; transpose for rows.
_SOBEL = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])


def sobel_gradients(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dcol, d/drow) Sobel responses with reflected borders."""
    image = np.asarray(image, dtype=np.float64)
    gx = ndimage.correlate(image, _SOBEL, mode="reflect")
    gy = ndimage.correlate(image, _SOBEL.T, mode="reflect")
    return gx, gy


def gaussian_kernel_1d(sigma: float, radius: int) -> np.ndarray:
    """Unit-sum Gaussian taps at integer offsets -radius..radius."""
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def window_sum(image: np.ndarray, size: int) -> np.ndarray:
    """Sum over a size x size window, zero outside the image."""
    image = np.asarray(image, dtype=np.float64)
    return ndimage.uniform_filter(image, size=size, mode="constant", cval=0.0) * (
        float(size) ** image.ndim
    )


def window_count(shape: tuple[int, ...], size: int) -> np.ndarray:
    """Number of in-bounds pixels in each size x size window."""
    counts = window_sum(np.ones(shape), size)
    return np.rint(counts)
