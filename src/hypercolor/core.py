"""Core containers for hyperspectral scenes and their conversions.

A scene lives in three forms: a dense :class:`HyperCube`, a single-channel
:class:`GuideImage`, and a sparse :class:`ClueSet` holding full spectra at a
subset of pixel positions. Conversions between the three are lossless where
the data allows it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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
]

NDArrayF = npt.NDArray[np.float64]
NDArrayB = npt.NDArray[np.bool_]

# Wavelength window a plain grayscale sensor integrates over.
VISIBLE_RANGE_NM = (400.0, 700.0)


def _as_float(values, name: str) -> NDArrayF:
    """``values`` as a float64 array, or ValidationError."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} is not numeric ({exc})") from None


def _as_float_array(values, name: str, ndim: int | None = None) -> NDArrayF:
    """``values`` as a finite float64 array of ``ndim`` axes (of at least
    one when ``ndim`` is None), or ValidationError."""
    arr = _as_float(values, name)
    if ndim is None and arr.ndim < 1:
        raise ValidationError(f"{name} need an axis, got the scalar {values!r}")
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def _as_mask(mask, shape: tuple[int, int], what: str) -> NDArrayB:
    """``mask`` as a boolean array over the ``shape`` grid of ``what``, or
    ValidationError."""
    try:
        mask = np.asarray(mask, dtype=bool)
    except ValueError as exc:
        raise ValidationError(f"mask is not boolean ({exc})") from None
    if mask.shape != shape:
        raise ValidationError(f"mask shape {mask.shape} does not match {what} {shape}")
    return mask


def _check_wavelengths(wavelengths: NDArrayF) -> None:
    if wavelengths.size < 1:
        raise ValidationError("wavelength axis is empty")
    if wavelengths.size > 1 and not np.all(np.diff(wavelengths) > 0):
        raise ValidationError("wavelengths must be strictly increasing")


def _check_same_wavelengths(given: NDArrayF, expected: NDArrayF, what: str) -> None:
    """Raise ValidationError unless the ``what`` wavelengths ``given`` are
    the data's ``expected`` ones, band for band."""
    if not np.array_equal(given, expected):
        raise ValidationError(
            f"{what} wavelengths differ from the data's: {given.size} bands over "
            f"{given[0]:g}-{given[-1]:g} nm against {expected.size} over "
            f"{expected[0]:g}-{expected[-1]:g} nm"
        )


def _check_type(value, kinds, name: str) -> None:
    """Raise ValidationError unless ``value`` is an instance of ``kinds``,
    a class or a tuple of classes; ``type(None)`` among them admits None."""
    if not isinstance(value, kinds):
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        expected = " or ".join(
            "None" if kind is type(None) else kind.__name__ for kind in kinds
        )
        raise ValidationError(f"{name} must be {expected}, got {type(value).__name__}")


def _as_tuple(values, name: str) -> tuple:
    """A list argument's items; a bare string or a single value raises."""
    try:
        if not isinstance(values, (str, bytes)):
            return tuple(values)
    except TypeError:
        pass
    raise ValidationError(f"{name} must be a list of values, got {values!r}")


# numpy's numbers count; bools do not
def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_seed(seed) -> None:
    """Raise ValidationError unless ``seed`` is an integer in [0, 2**63)."""
    if not (_is_int(seed) and 0 <= seed < 2**63):
        raise ValidationError(f"seed must be an integer in [0, 2**63), got {seed!r}")


def _is_finite_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


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
        mask = _as_mask(self.mask, (self.height, self.width), "clue grid")
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
        wl = _as_float_array(wavelengths, "wavelengths", 1)
        lo, hi = VISIBLE_RANGE_NM
        weights = ((wl >= lo) & (wl <= hi)).astype(np.float64)
        if weights.sum() == 0:
            raise ValidationError(
                f"no bands fall inside the visible window {VISIBLE_RANGE_NM}"
            )
        return cls(wl, weights, name="visible-flat")


def _resolve_response(
    wavelengths: NDArrayF | None, response, bands: int | None = None
) -> SpectralResponse:
    """The response a guide over these bands is drawn with: ``response``,
    or by default uniform weight over the visible window of ``wavelengths``.

    Data with no wavelength axis passes ``wavelengths=None`` and its band
    count ``bands``; it needs an explicit response. Raises ValidationError
    for anything but a SpectralResponse or None, for a response whose
    length is not the band count, and for one whose wavelengths are not
    the data's.
    """
    _check_type(response, (SpectralResponse, type(None)), "response")
    if response is None:
        if wavelengths is None:
            raise ValidationError(
                "data without wavelengths needs an explicit SpectralResponse"
            )
        return SpectralResponse.visible_flat(wavelengths)
    if wavelengths is not None:
        bands = wavelengths.size
    if response.weights.size != bands:
        raise ValidationError(
            f"response covers {response.weights.size} bands, cube has {bands}"
        )
    if wavelengths is not None:
        _check_same_wavelengths(response.wavelengths, wavelengths, "response")
    return response


def _guide_values(guide, grid: tuple[int, int] | None = None, what: str = "") -> NDArrayF:
    """Pixel values of a GuideImage, or of a 2-d array checked as a
    GuideImage checks them: numeric, finite and non-empty. With ``grid``,
    ValidationError unless they lie on the ``grid`` of ``what``."""
    values = guide.values if isinstance(guide, GuideImage) else GuideImage(guide).values
    if grid is not None and values.shape != grid:
        raise ValidationError(f"guide shape {values.shape} does not match {what} {grid}")
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
    _check_type(cube, HyperCube, "cube")
    resp = _resolve_response(cube.wavelengths, response)
    return GuideImage(cube.data @ resp.weights)


def cube_to_clues(cube: HyperCube, mask) -> ClueSet:
    """Extract the spectra of a cube at the True positions of ``mask``."""
    _check_type(cube, HyperCube, "cube")
    mask = _as_mask(mask, (cube.height, cube.width), "cube")
    spectra = cube.data[mask]
    return ClueSet(cube.height, cube.width, cube.wavelengths, mask, spectra)
