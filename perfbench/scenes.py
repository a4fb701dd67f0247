"""Seeded piecewise-smooth hyperspectral scenes for the benchmark.

A scene is a jittered Voronoi partition whose cells ramp between two
material spectra, overlaid with squares and disks of single materials, all
under a smooth illumination field, over 31 bands from 420 to 720 nm. Every
scene draws on one fixed material library and cell and patch counts scale
with the area, so every seed of one size poses a problem of similar
difficulty and quality. Data is nonnegative and normalized to a peak of 1.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

BANDS = 31
WAVELENGTHS = np.linspace(420.0, 720.0, BANDS)

# side of one Voronoi cell's grid square; one patch per 2x2 squares
_CELL_PITCH = 16
# scenes differ in layout, ramps and shading but share one material library,
# so a seed changes the scene without changing how hard it is
_LIBRARY_SEED = 20240318
_LIBRARY_SIZE = 16
# patch half-side as a share of its 2x2-cell block
_PATCH_HALF = 0.22
# illumination varies between 1 - depth and 1, as a sum of this many cosines
_SHADING_DEPTH = 0.4
_SHADING_TERMS = 6


def _spectrum(rng) -> np.ndarray:
    """Smooth positive spectrum (floor, sigmoid slope, 1-3 bumps), peak in [0.4, 1]."""
    wl = WAVELENGTHS
    out = np.full(BANDS, rng.uniform(0.05, 0.25))
    center = rng.uniform(480.0, 660.0)
    out += rng.uniform(0.0, 0.6) / (1.0 + np.exp(-(wl - center) / rng.uniform(15.0, 40.0)))
    for _ in range(rng.integers(1, 4)):
        mid = rng.uniform(420.0, 720.0)
        width = rng.uniform(20.0, 70.0)
        out += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((wl - mid) / width) ** 2)
    return out * (rng.uniform(0.4, 1.0) / out.max())


def _library() -> np.ndarray:
    """The fixed material spectra every scene draws from, shape (L, bands)."""
    rng = np.random.default_rng(_LIBRARY_SEED)
    return np.stack([_spectrum(rng) for _ in range(_LIBRARY_SIZE)])


def _material_pairs(materials, count) -> np.ndarray:
    """``count`` (start, end) library index pairs, every offset in turn."""
    index = np.arange(count)
    rounds = -(-count // materials)
    start = index % materials
    offset = 1 + (index // materials) * (materials // rounds)
    return np.stack([start, (start + offset) % materials], axis=1)


def _shading(rng, rows, cols, size) -> np.ndarray:
    """Illumination in [1 - depth, 1]: cosines of 2 to 4 periods across the scene."""
    terms = _SHADING_TERMS
    field = np.zeros((rows.shape[0], cols.shape[1]))
    for _ in range(terms):
        fy, fx = rng.uniform(2.0, 4.0, size=2) * rng.choice((-1.0, 1.0), size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        field += np.cos(2.0 * np.pi * (fy * rows + fx * cols) / size + phase)
    return 1.0 - _SHADING_DEPTH * ((field + terms) / (2.0 * terms))


def make_scene(seed: int, size: int):
    """Ground-truth ``HyperCube`` of shape (size, size, 31) for ``seed``."""
    from hypercolor import HyperCube

    rng = np.random.default_rng(seed)
    rows = np.arange(size, dtype=np.float64)[:, None]
    cols = np.arange(size, dtype=np.float64)[None, :]

    # jittered grids keep cell and patch sizes alike across seeds
    pitch = min(_CELL_PITCH, size // 2)
    grid = np.arange(size // pitch, dtype=np.float64)
    sites = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    sites = (sites + rng.uniform(0.2, 0.8, size=sites.shape)) * pitch
    pixels = np.stack(np.meshgrid(rows[:, 0], cols[0], indexing="ij"), axis=-1)
    label = cKDTree(sites).query(pixels.reshape(-1, 2))[1].reshape(size, size)

    # cells ramp between material pairs from a fixed list and patches cycle
    # through the materials, so a seed rearranges the scene's content
    # without changing it
    library = _library()
    pairs = _material_pairs(len(library), len(sites))[rng.permutation(len(sites))]
    angle = rng.uniform(0.0, 2.0 * np.pi, size=len(sites))
    along = (np.cos(angle)[label] * (rows - sites[label, 0])
             + np.sin(angle)[label] * (cols - sites[label, 1]))
    ramp = np.clip(0.5 + along / pitch, 0.0, 1.0)[:, :, None]
    data = (1.0 - ramp) * library[pairs[label, 0]] + ramp * library[pairs[label, 1]]

    block = 2 * pitch
    blocks = size // block
    patches = rng.permutation(np.arange(blocks * blocks) % len(library))
    for index in range(blocks * blocks):
        by, bx = divmod(index, blocks)
        cy, cx = (np.array([by, bx]) + rng.uniform(0.35, 0.65, size=2)) * block
        half = _PATCH_HALF * block
        if rng.random() < 0.5:
            inside = (np.abs(rows - cy) <= half) & (np.abs(cols - cx) <= half)
        else:
            inside = (rows - cy) ** 2 + (cols - cx) ** 2 <= half * half
        data[inside] = library[patches[index]]

    data *= _shading(rng, rows, cols, size)[:, :, None]
    return HyperCube(data / data.max(), WAVELENGTHS.copy())
