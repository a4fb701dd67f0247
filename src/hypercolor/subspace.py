"""Low-rank spectral subspaces and reconstruction-dimension estimation.

A basis is learned from the band-by-band Gram matrix of one or more cubes,
which keeps memory flat no matter how many pixels contribute. Projection
and unprojection are per-pixel matrix products. The dimension estimator
reads two features off the clue-coefficient variance curve (the kneedle
elbow and the log of the noise floor) and maps them through a quadratic
regression to a reconstruction dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ClueSet, HyperCube, NDArrayF, _as_float_array, _as_tuple, _check_same_wavelengths,
    _check_type, _check_wavelengths, _is_finite_real, _is_int,
)
from .errors import ValidationError

__all__ = [
    "SpectralBasis",
    "VarianceCurve",
    "DimensionModel",
    "learn_basis",
    "project",
    "unproject",
    "variance_curve",
    "fit_dimension_model",
    "estimate_dimension",
]

_ORTHONORMAL_TOL = 1e-10
_MIN_CLUES_FOR_CURVE = 8
_MIN_TRAINING_PAIRS = 6


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal spectral directions with their singular values.

    ``vectors`` is (bands, rank) with orthonormal columns ordered by
    non-increasing singular value; each column's largest-magnitude entry is
    positive, which pins the otherwise arbitrary sign. Every array is
    finite, and the wavelengths strictly increase.
    """

    wavelengths: NDArrayF
    vectors: NDArrayF
    singular_values: NDArrayF
    source: str = ""

    def __post_init__(self):
        wavelengths = _as_float_array(self.wavelengths, "basis wavelengths", 1)
        _check_wavelengths(wavelengths)
        vectors = _as_float_array(self.vectors, "basis vectors", 2)
        singular_values = _as_float_array(self.singular_values, "singular values", 1)
        bands, rank = vectors.shape
        if wavelengths.shape != (bands,):
            raise ValidationError(
                f"wavelength axis {wavelengths.shape} does not match {bands} bands"
            )
        if rank < 1 or rank > bands:
            raise ValidationError(f"rank {rank} invalid for {bands} bands")
        if singular_values.shape != (rank,):
            raise ValidationError(
                f"expected {rank} singular values, got {singular_values.shape}"
            )
        if np.any(singular_values < 0):
            raise ValidationError("singular values must be nonnegative")
        if np.any(np.diff(singular_values) > 1e-12 * max(singular_values[0], 1.0)):
            raise ValidationError("singular values must be non-increasing")
        gram = vectors.T @ vectors
        if np.max(np.abs(gram - np.eye(rank))) > _ORTHONORMAL_TOL:
            raise ValidationError("basis columns are not orthonormal")
        object.__setattr__(self, "wavelengths", wavelengths)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "singular_values", singular_values)

    @property
    def bands(self) -> int:
        return self.vectors.shape[0]

    @property
    def rank(self) -> int:
        return self.vectors.shape[1]


def learn_basis(
    cubes: HyperCube | Sequence[HyperCube],
    rank: int | None = None,
    source: str | None = None,
) -> SpectralBasis:
    """Learn a spectral basis from the Gram matrix of one or more cubes.

    Parameters
    ----------
    cubes : HyperCube or sequence of HyperCube
        Training scenes; all must share the wavelength axis.
    rank : int, optional
        Number of leading directions to keep. Defaults to the band count.
    source : str, optional
        Identifier recorded on the basis for provenance.

    Returns
    -------
    SpectralBasis

    Notes
    -----
    The bands x bands Gram matrix is accumulated cube by cube and
    eigendecomposed, so memory stays independent of the pixel count. The
    singular values are those of the stacked pixels x bands matrix.
    """
    cubes = (cubes,) if isinstance(cubes, HyperCube) else _as_tuple(cubes, "cubes")
    if not cubes:
        raise ValidationError("learn_basis needs at least one cube")
    for cube in cubes:
        _check_type(cube, HyperCube, "training cube")
    wavelengths = cubes[0].wavelengths
    bands = cubes[0].bands
    rank = bands if rank is None else rank
    if not (_is_int(rank) and 1 <= rank <= bands):
        raise ValidationError(f"rank {rank!r} must be an int in [1, {bands}]")
    gram = np.zeros((bands, bands), dtype=np.float64)
    total_pixels = 0
    for cube in cubes:
        _check_same_wavelengths(cube.wavelengths, wavelengths, "training cube")
        pixels = cube.pixels()
        gram += pixels.T @ pixels
        total_pixels += pixels.shape[0]

    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    vectors = eigenvectors[:, order[:rank]].copy()
    # sign convention: largest-magnitude entry of each column is positive
    for column in range(rank):
        anchor = np.argmax(np.abs(vectors[:, column]))
        if vectors[anchor, column] < 0:
            vectors[:, column] = -vectors[:, column]
    singular_values = np.sqrt(eigenvalues[:rank])
    if source is None:
        source = f"gram:{len(cubes)}cubes:{total_pixels}px"
    return SpectralBasis(wavelengths, vectors, singular_values, source)


def _leading_vectors(basis: SpectralBasis, dim: int | None) -> NDArrayF:
    if dim is None:
        dim = basis.rank
    if not (_is_int(dim) and 1 <= dim <= basis.rank):
        raise ValidationError(f"dimension {dim!r} must be an int in [1, {basis.rank}]")
    return basis.vectors[:, :dim]


def project(data, basis: SpectralBasis, dim: int | None = None):
    """Coefficients of spectra in the leading ``dim`` basis directions.

    Accepts a finite spectral-axis-last array (returns an array of
    coefficients) or a ClueSet over the basis's wavelengths (returns a
    ClueSet in coefficient space with a placeholder 1..dim wavelength axis).
    """
    _check_type(basis, SpectralBasis, "basis")
    vectors = _leading_vectors(basis, dim)
    if isinstance(data, ClueSet):
        _check_same_wavelengths(basis.wavelengths, data.wavelengths, "basis")
        coefficients = data.spectra @ vectors
        return ClueSet(
            data.height,
            data.width,
            np.arange(1, vectors.shape[1] + 1, dtype=np.float64),
            data.mask,
            coefficients,
        )
    data = _as_float_array(data, "spectra")
    if data.shape[-1] != basis.bands:
        raise ValidationError(
            f"spectra of shape {data.shape} lack the basis's {basis.bands}-band axis"
        )
    return data @ vectors


def unproject(coefficients, basis: SpectralBasis) -> NDArrayF:
    """Map a finite coefficient-axis-last array back to spectra; the inverse
    of :func:`project` on the subspace the retained directions span."""
    _check_type(basis, SpectralBasis, "basis")
    coefficients = _as_float_array(coefficients, "coefficients")
    vectors = _leading_vectors(basis, coefficients.shape[-1])
    return coefficients @ vectors.T


# ---------------------------------------------------------------------------
# Variance curve and dimension estimation


@dataclass(frozen=True)
class VarianceCurve:
    """Per-dimension clue-coefficient variance with its elbow features.

    ``explained`` is the sample variance of the clue coefficients along
    each basis direction; ``elbow_index`` is 1-based.
    """

    explained: NDArrayF
    elbow_index: int
    log_min_variance: float

    def __post_init__(self):
        explained = _as_float_array(self.explained, "explained variance", 1)
        if explained.size < 1:
            raise ValidationError("explained variance is empty")
        if not (_is_int(self.elbow_index) and 1 <= self.elbow_index <= explained.size):
            raise ValidationError(
                f"elbow index {self.elbow_index!r} is no int in [1, {explained.size}]"
            )
        if not _is_finite_real(self.log_min_variance):
            raise ValidationError(
                f"log_min_variance must be a finite real number, "
                f"got {self.log_min_variance!r}"
            )
        object.__setattr__(self, "explained", explained)

    @property
    def dimensions(self) -> int:
        return self.explained.size


def _kneedle_elbow(log_explained: NDArrayF) -> int:
    """Elbow of a decaying curve: the dimension just before the point of
    maximum sag below the chord joining the curve's endpoints."""
    count = log_explained.size
    if count < 3:
        return 1
    span = log_explained.max() - log_explained.min()
    if span <= 0:
        return 1
    normalized = (log_explained - log_explained.min()) / span
    positions = np.linspace(0.0, 1.0, count)
    chord = normalized[0] + (normalized[-1] - normalized[0]) * positions
    sag = chord - normalized
    foot = int(np.argmax(sag))
    return max(foot, 1)


def _check_full_rank(rank: int, bands: int, what: str, error=ValidationError) -> None:
    """Raise ``error`` unless a basis of ``rank`` directions spans its ``bands``."""
    if rank != bands:
        raise error(f"{what} needs a full-rank basis, got rank {rank} for {bands} bands")


def variance_curve(clues: ClueSet, basis: SpectralBasis) -> VarianceCurve:
    """Variance of clue coefficients along every direction of a full basis.

    Requires a full-rank basis (rank == bands) over the clues' wavelengths
    and at least 8 clues; the coefficients are mean-centered before the
    per-direction sample variance. The floor of the curve is what read and shot noise leave
    behind, so its log feeds dimension prediction alongside the elbow.
    """
    _check_type(clues, ClueSet, "clues")
    _check_type(basis, SpectralBasis, "basis")
    _check_full_rank(basis.rank, basis.bands, "variance_curve")
    if clues.count < _MIN_CLUES_FOR_CURVE:
        raise ValidationError(
            f"variance_curve needs at least {_MIN_CLUES_FOR_CURVE} clues, "
            f"got {clues.count}"
        )
    _check_same_wavelengths(basis.wavelengths, clues.wavelengths, "basis")
    coefficients = clues.spectra @ basis.vectors
    explained = coefficients.var(axis=0, ddof=1)
    floor = max(float(explained.max()) * 1e-15, 1e-300)
    log_explained = np.log10(np.maximum(explained, floor))
    elbow = _kneedle_elbow(log_explained)
    return VarianceCurve(explained, elbow, float(log_explained.min()))


_COEFFICIENTS = ("intercept", "elbow", "log_min_variance", "elbow_sq",
                 "log_min_variance_sq", "elbow_x_log_min_variance")


@dataclass(frozen=True)
class DimensionModel:
    """Quadratic map from (elbow, log noise floor) to a reconstruction dim.

    The coefficients are finite real numbers and the clamp bounds whole
    numbers with 2 <= ``clamp_min`` <= ``clamp_max``; they are checked, not
    converted.
    """

    intercept: float
    elbow: float
    log_min_variance: float
    elbow_sq: float
    log_min_variance_sq: float
    elbow_x_log_min_variance: float
    clamp_min: int = 2
    clamp_max: int = 31

    def __post_init__(self):
        for name in _COEFFICIENTS:
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise ValidationError(
                    f"model coefficient {name} must be a finite real number, "
                    f"got {value!r}"
                )
        for name in ("clamp_min", "clamp_max"):
            value = getattr(self, name)
            if not (_is_finite_real(value) and float(value).is_integer()):
                raise ValidationError(
                    f"model {name} must be a whole number, got {value!r}"
                )
        if not 2 <= self.clamp_min <= self.clamp_max:
            raise ValidationError(
                f"clamp bounds [{self.clamp_min}, {self.clamp_max}] are invalid"
            )

    def predict(self, curve: VarianceCurve) -> int:
        """Dimension predicted from a curve's elbow and log noise floor,
        rounded half-up and clamped to the bounds.

        A prediction past the float range takes the bound on its side; one
        that is not a number raises ValidationError.
        """
        elbow, log_min = float(curve.elbow_index), curve.log_min_variance
        with np.errstate(over="ignore", invalid="ignore"):
            value = (
                self.intercept
                + self.elbow * elbow
                + self.log_min_variance * log_min
                + self.elbow_sq * elbow * elbow
                + self.log_min_variance_sq * log_min * log_min
                + self.elbow_x_log_min_variance * elbow * log_min
            )
        if math.isnan(value):
            raise ValidationError("the model's prediction for this curve is not a number")
        # rounded and clamped as floats, so an infinite value meets a bound
        return int(np.clip(np.floor(value + 0.5), self.clamp_min, self.clamp_max))


def _feature_matrix(elbows: NDArrayF, log_mins: NDArrayF) -> NDArrayF:
    return np.column_stack(
        [
            np.ones_like(elbows),
            elbows,
            log_mins,
            elbows**2,
            log_mins**2,
            elbows * log_mins,
        ]
    )


def fit_dimension_model(curves, labels) -> DimensionModel:
    """Least-squares fit of the quadratic dimension predictor.

    Parameters
    ----------
    curves : sequence of VarianceCurve
        Training clue variance curves; each gives its elbow and log noise
        floor.
    labels : sequence of int
        Best reconstruction dimension observed for each curve.

    The model clamps its predictions to [2, the first curve's dimension
    count].
    """
    curves = _as_tuple(curves, "curves")
    for curve in curves:
        _check_type(curve, VarianceCurve, "training curve")
    labels = _as_float_array(labels, "labels", 1)
    if len(curves) != labels.size:
        raise ValidationError(
            f"{len(curves)} training curves but {labels.size} labels"
        )
    if len(curves) < _MIN_TRAINING_PAIRS:
        raise ValidationError(
            f"need at least {_MIN_TRAINING_PAIRS} training pairs, got {len(curves)}"
        )
    elbows = np.array([float(c.elbow_index) for c in curves])
    log_mins = np.array([c.log_min_variance for c in curves])
    design = _feature_matrix(elbows, log_mins)
    coefficients, *_ = np.linalg.lstsq(design, labels, rcond=None)
    return DimensionModel(
        intercept=float(coefficients[0]),
        elbow=float(coefficients[1]),
        log_min_variance=float(coefficients[2]),
        elbow_sq=float(coefficients[3]),
        log_min_variance_sq=float(coefficients[4]),
        elbow_x_log_min_variance=float(coefficients[5]),
        clamp_min=2,
        clamp_max=curves[0].dimensions,
    )


def estimate_dimension(
    clues: ClueSet, basis: SpectralBasis, model: DimensionModel | None = None
) -> tuple[int, VarianceCurve]:
    """Variance curve plus the dimension it points to: the model's
    prediction, or the curve's elbow when no model is given.

    A model trained on cubes with more bands can predict past this basis,
    so its prediction is capped at the curve's dimension count.
    """
    _check_type(model, (DimensionModel, type(None)), "model")
    curve = variance_curve(clues, basis)
    if model is None:
        return curve.elbow_index, curve
    return min(model.predict(curve), curve.dimensions), curve

