"""Core containers for hyperspectral scenes and their conversions.

A scene lives in three forms: a dense :class:`HyperCube`, a single-channel
:class:`GuideImage`, and a sparse :class:`ClueSet` holding full spectra at a
subset of pixel positions. Conversions between the three are lossless where
the data allows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.typing as npt

from .errors import ValidationError

__all__ = [
    "VISIBLE_RANGE_NM",
    "HyperCube",
    "GuideImage",
    "ClueSet",
    "SpectralResponse",
    "make_guide",
    "cube_to_clues",
    "clues_to_cube",
    "import_band_stack",
]

NDArrayF = npt.NDArray[np.float64]
NDArrayB = npt.NDArray[np.bool_]

# Wavelength window a plain grayscale sensor integrates over.
VISIBLE_RANGE_NM = (400.0, 700.0)


def _as_float_array(values, name: str, ndim: int) -> NDArrayF:
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not numeric ({exc})") from None
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def _check_wavelengths(wavelengths: NDArrayF) -> None:
    if wavelengths.size < 1:
        raise ValidationError("wavelength axis is empty")
    if wavelengths.size > 1 and not np.all(np.diff(wavelengths) > 0):
        raise ValidationError("wavelengths must be strictly increasing")


@dataclass(frozen=True)
class HyperCube:
    """Dense datacube of shape (height, width, bands) with a wavelength axis.

    Data is float64 in memory and finite everywhere. Ground-truth and
    measurement cubes are nonnegative by construction; intermediate
    reconstructions are allowed to dip below zero and are clamped before
    they leave the reconstruction pipeline.
    """

    data: NDArrayF
    wavelengths: NDArrayF

    def __post_init__(self):
        data = _as_float_array(self.data, "cube data", 3)
        wavelengths = _as_float_array(self.wavelengths, "wavelengths", 1)
        _check_wavelengths(wavelengths)
        if data.shape[2] != wavelengths.size:
            raise ValidationError(
                f"cube has {data.shape[2]} bands but {wavelengths.size} wavelengths"
            )
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValidationError(f"cube spatial shape {data.shape[:2]} is empty")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "wavelengths", wavelengths)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def pixels(self) -> NDArrayF:
        """View the cube as a (height * width, bands) matrix, row-major."""
        return self.data.reshape(-1, self.bands)


@dataclass(frozen=True)
class GuideImage:
    """Single-channel image on the cube's pixel grid.

    Values are finite. Guides derived from radiance are nonnegative; guides
    simulated with read noise may carry small negative excursions, which
    downstream code tolerates.
    """

    values: NDArrayF

    def __post_init__(self):
        values = _as_float_array(self.values, "guide values", 2)
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValidationError(f"guide shape {values.shape} is empty")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class ClueSet:
    """Spectra pinned to a sparse set of pixel positions.

    ``spectra`` rows align with the True positions of ``mask`` in row-major
    order. Spectra may be negative (noisy measurements are not clamped).
    """

    height: int
    width: int
    wavelengths: NDArrayF
    mask: NDArrayB
    spectra: NDArrayF

    def __post_init__(self):
        wavelengths = _as_float_array(self.wavelengths, "wavelengths", 1)
        _check_wavelengths(wavelengths)
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.height, self.width):
            raise ValidationError(
                f"mask shape {mask.shape} does not match ({self.height}, {self.width})"
            )
        spectra = _as_float_array(self.spectra, "clue spectra", 2)
        count = int(mask.sum())
        if spectra.shape != (count, wavelengths.size):
            raise ValidationError(
                f"spectra shape {spectra.shape} does not match "
                f"{count} mask positions x {wavelengths.size} bands"
            )
        object.__setattr__(self, "wavelengths", wavelengths)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "spectra", spectra)

    @property
    def bands(self) -> int:
        return self.wavelengths.size

    @property
    def count(self) -> int:
        return self.spectra.shape[0]

    def coordinates(self) -> npt.NDArray[np.int64]:
        """(count, 2) array of (row, col) positions in row-major order."""
        return np.argwhere(self.mask).astype(np.int64)


@dataclass(frozen=True)
class SpectralResponse:
    """Per-band sensitivity weights, normalized to unit sum on construction."""

    wavelengths: NDArrayF
    weights: NDArrayF
    name: str = "custom"

    def __post_init__(self):
        wavelengths = _as_float_array(self.wavelengths, "wavelengths", 1)
        _check_wavelengths(wavelengths)
        weights = _as_float_array(self.weights, "response weights", 1)
        if weights.size != wavelengths.size:
            raise ValidationError(
                f"response has {weights.size} weights for {wavelengths.size} bands"
            )
        if np.any(weights < 0):
            raise ValidationError("response weights must be nonnegative")
        total = weights.sum()
        if total <= 0:
            raise ValidationError("response weights are all zero")
        object.__setattr__(self, "wavelengths", wavelengths)
        object.__setattr__(self, "weights", weights / total)

    @classmethod
    def visible_flat(cls, wavelengths) -> "SpectralResponse":
        """Uniform weight over bands inside the visible window, zero outside."""
        wl = _as_float_array(np.asarray(wavelengths, dtype=np.float64), "wavelengths", 1)
        lo, hi = VISIBLE_RANGE_NM
        weights = ((wl >= lo) & (wl <= hi)).astype(np.float64)
        if weights.sum() == 0:
            raise ValidationError(
                f"no bands fall inside the visible window {VISIBLE_RANGE_NM}"
            )
        return cls(wl, weights, name="visible-flat")


def _resolve_response(
    wavelengths: NDArrayF, response: SpectralResponse | None
) -> SpectralResponse:
    if response is None:
        return SpectralResponse.visible_flat(wavelengths)
    if response.weights.size != wavelengths.size:
        raise ValidationError(
            f"response covers {response.weights.size} bands, cube has {wavelengths.size}"
        )
    return response


def _guide_values(guide) -> NDArrayF:
    """Pixel values of a GuideImage or of any 2-d array."""
    if isinstance(guide, GuideImage):
        return guide.values
    values = np.asarray(guide, dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError(f"guide must be a 2-d image, got shape {values.shape}")
    return values


def make_guide(cube: HyperCube, response: SpectralResponse | None = None) -> GuideImage:
    """Collapse a cube to a guide image with a response-weighted band mean.

    Parameters
    ----------
    cube : HyperCube
        Source radiance cube.
    response : SpectralResponse, optional
        Per-band weights. Defaults to uniform weight over the visible
        window. The weights are unit-sum, so a constant cube maps to a
        guide with the same constant value.

    Returns
    -------
    GuideImage
    """
    resp = _resolve_response(cube.wavelengths, response)
    return GuideImage(cube.data @ resp.weights)


def cube_to_clues(cube: HyperCube, mask) -> ClueSet:
    """Extract the spectra of a cube at the True positions of ``mask``."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (cube.height, cube.width):
        raise ValidationError(
            f"mask shape {mask.shape} does not match cube {cube.shape[:2]}"
        )
    spectra = cube.data[mask]
    return ClueSet(cube.height, cube.width, cube.wavelengths, mask, spectra)


def clues_to_cube(clues: ClueSet) -> HyperCube:
    """Densify a clue set: clue spectra at their positions, zeros elsewhere."""
    data = np.zeros((clues.height, clues.width, clues.bands), dtype=np.float64)
    data[clues.mask] = clues.spectra
    return HyperCube(data, clues.wavelengths)


def import_band_stack(bands: Sequence[npt.ArrayLike], wavelengths) -> HyperCube:
    """Stack single-band images of identical shape into a cube.

    ``bands`` must be ordered to match ``wavelengths``. Integer images are
    scaled by 1/(2^bits - 1) into [0, 1]; float images pass through as
    linear radiance.
    """
    wavelengths = np.asarray(wavelengths, dtype=np.float64)
    if len(bands) == 0:
        raise ValidationError("band stack is empty")
    if len(bands) != wavelengths.size:
        raise ValidationError(
            f"{len(bands)} bands for {wavelengths.size} wavelengths"
        )
    planes = []
    for i, band in enumerate(bands):
        plane = np.asarray(band)
        if plane.ndim != 2:
            raise ValidationError(f"band {i} is not a 2-d image (shape {plane.shape})")
        if plane.shape != np.asarray(bands[0]).shape:
            raise ValidationError(
                f"band {i} shape {plane.shape} does not match band 0 shape "
                f"{np.asarray(bands[0]).shape}"
            )
        if np.issubdtype(plane.dtype, np.integer):
            full_scale = float(2 ** (8 * plane.dtype.itemsize) - 1)
            plane = plane.astype(np.float64) / full_scale
        else:
            plane = plane.astype(np.float64)
        planes.append(plane)
    return HyperCube(np.stack(planes, axis=-1), wavelengths)
