"""Shared scene builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from hypercolor import ClueSet, GuideImage, HyperCube, colorizer, cube_to_clues, harness
from hypercolor import make_guide

try:
    from hypothesis import settings
except ImportError:  # the property tests skip without hypothesis
    pass
else:
    # every run draws the same examples, whatever the local database holds;
    # ``--hypothesis-seed`` still explores others
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")
DEFAULT_WAVELENGTHS = (420.0, 680.0)


def wavelengths_for(bands: int, span=DEFAULT_WAVELENGTHS) -> np.ndarray:
    return np.linspace(span[0], span[1], bands)


def random_cube(height, width, bands, seed=0, rank=None, floor=0.05) -> HyperCube:
    """Random nonnegative cube scaled into [floor-ish, 1].

    With ``rank`` set, pixels are mixtures of that many random spectral
    components, so the cube's pixel matrix has exactly that rank.
    """
    rng = np.random.default_rng(seed)
    if rank is None:
        data = rng.random((height, width, bands)) + floor
    else:
        weights = rng.random((height, width, rank)) + floor
        components = rng.random((rank, bands)) + floor
        data = weights @ components
    return HyperCube(data / data.max(), wavelengths_for(bands))


def rank1_cube(height, width, bands, seed=0) -> HyperCube:
    """Smooth positive scalar field times one fixed positive spectrum."""
    rng = np.random.default_rng(seed)
    rows = np.linspace(0.0, 2.0 * np.pi, height)[:, None]
    cols = np.linspace(0.0, 2.0 * np.pi, width)[None, :]
    field = 1.5 + np.sin(rows + rng.uniform(0, 1)) * np.cos(cols)
    spectrum = rng.random(bands) + 0.2
    data = field[:, :, None] * spectrum[None, None, :]
    return HyperCube(data / data.max(), wavelengths_for(bands))


def constant_cube(height, width, spectrum) -> HyperCube:
    spectrum = np.asarray(spectrum, dtype=np.float64)
    data = np.broadcast_to(spectrum, (height, width, spectrum.size)).copy()
    return HyperCube(data, wavelengths_for(spectrum.size))


def two_region_cube(height, width, bands, seed=0):
    """Left/right halves with distinct fixed spectra; returns the two spectra."""
    rng = np.random.default_rng(seed)
    left = rng.random(bands) * 0.4 + 0.1
    right = rng.random(bands) * 0.4 + 0.5
    data = np.empty((height, width, bands))
    split = width // 2
    data[:, :split] = left
    data[:, split:] = right
    peak = data.max()
    return HyperCube(data / peak, wavelengths_for(bands)), left / peak, right / peak


def guide_of(cube: HyperCube) -> GuideImage:
    return make_guide(cube)


def clues_at(cube: HyperCube, mask) -> ClueSet:
    return cube_to_clues(cube, np.asarray(mask, dtype=bool))


def full_clues(cube: HyperCube) -> ClueSet:
    return clues_at(cube, np.ones((cube.height, cube.width), dtype=bool))


def densify(clues: ClueSet) -> np.ndarray:
    """A clue set as a dense array: its spectra at their pixels, zeros elsewhere."""
    data = np.zeros((clues.height, clues.width, clues.bands))
    data[clues.mask] = clues.spectra
    return data


def scatter_mask(height, width, rate, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    count = max(1, int(rate * height * width))
    flat = rng.choice(height * width, size=count, replace=False)
    mask = np.zeros(height * width, dtype=bool)
    mask[flat] = True
    return mask.reshape(height, width)


def relative_error(actual, expected) -> float:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return float(
        np.linalg.norm((actual - expected).ravel())
        / max(np.linalg.norm(expected.ravel()), 1e-300)
    )


def spy_costly_stages(patch) -> list:
    """Make the costly stages fail and record their names; returns the record.

    ``patch`` is a ``MonkeyPatch``. The stages are the guide simulation,
    the system build and both solvers: a rejected input reaches none.
    """
    calls = []

    def refuse(name):
        def stage(*_args, **_kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran before the bad input was rejected")

        return stage

    for module, name in ((harness, "simulate_guide"), (colorizer, "build_system"),
                         (colorizer.sparse_linalg, "splu"),
                         (colorizer.sparse_linalg, "bicgstab")):
        patch.setattr(module, name, refuse(name))
    return calls


@pytest.fixture
def costly_stages(monkeypatch) -> list:
    """The costly stages, spied for the test; see ``spy_costly_stages``."""
    return spy_costly_stages(monkeypatch)
