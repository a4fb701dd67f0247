"""Low-rank spectral subspaces and reconstruction-dimension estimation.

A basis is learned from the band-by-band Gram matrix of one or more cubes,
which keeps memory flat no matter how many pixels contribute. Projection
and unprojection are per-pixel matrix products. The dimension estimator
reads two features off the clue-coefficient variance curve (the kneedle
elbow and the log of the noise floor) and maps them through a quadratic
regression to a reconstruction dimension.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .core import ClueSet, HyperCube, NDArrayF
from .errors import FormatError, ValidationError

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
    "read_model",
    "write_model",
]

_ORTHONORMAL_TOL = 1e-10
_MIN_CLUES_FOR_CURVE = 8
_MIN_TRAINING_PAIRS = 6


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal spectral directions with their singular values.

    ``vectors`` is (bands, rank) with orthonormal columns ordered by
    non-increasing singular value; each column's largest-magnitude entry is
    positive, which pins the otherwise arbitrary sign.
    """

    wavelengths: NDArrayF
    vectors: NDArrayF
    singular_values: NDArrayF
    source: str = ""

    def __post_init__(self):
        wavelengths = np.asarray(self.wavelengths, dtype=np.float64)
        vectors = np.asarray(self.vectors, dtype=np.float64)
        singular_values = np.asarray(self.singular_values, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValidationError(f"basis vectors must be 2-d, got shape {vectors.shape}")
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
        if not np.all(np.isfinite(vectors)) or not np.all(np.isfinite(singular_values)):
            raise ValidationError("basis contains non-finite values")
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
    if isinstance(cubes, HyperCube):
        cubes = [cubes]
    cubes = list(cubes)
    if not cubes:
        raise ValidationError("learn_basis needs at least one cube")
    wavelengths = cubes[0].wavelengths
    bands = cubes[0].bands
    gram = np.zeros((bands, bands), dtype=np.float64)
    total_pixels = 0
    for cube in cubes:
        if not np.array_equal(cube.wavelengths, wavelengths):
            raise ValidationError("training cubes must share the wavelength axis")
        pixels = cube.pixels()
        gram += pixels.T @ pixels
        total_pixels += pixels.shape[0]
    if rank is None:
        rank = bands
    if not 1 <= rank <= bands:
        raise ValidationError(f"rank {rank} must be in [1, {bands}]")

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
    if not 1 <= dim <= basis.rank:
        raise ValidationError(f"dimension {dim} must be in [1, {basis.rank}]")
    return basis.vectors[:, :dim]


def project(data, basis: SpectralBasis, dim: int | None = None):
    """Coefficients of spectra in the leading ``dim`` basis directions.

    Accepts a HyperCube or a spectral-axis-last array (returns an array of
    coefficients) or a ClueSet (returns a ClueSet in coefficient space with
    a placeholder 1..dim wavelength axis).
    """
    vectors = _leading_vectors(basis, dim)
    if isinstance(data, ClueSet):
        if data.bands != basis.bands:
            raise ValidationError(
                f"clues have {data.bands} bands, basis has {basis.bands}"
            )
        coefficients = data.spectra @ vectors
        return ClueSet(
            data.height,
            data.width,
            np.arange(1, vectors.shape[1] + 1, dtype=np.float64),
            data.mask,
            coefficients,
        )
    if isinstance(data, HyperCube):
        data = data.data
    data = np.asarray(data, dtype=np.float64)
    if data.shape[-1] != basis.bands:
        raise ValidationError(
            f"spectral axis has {data.shape[-1]} bands, basis has {basis.bands}"
        )
    return data @ vectors


def unproject(coefficients, basis: SpectralBasis):
    """Map coefficients back to spectra; the inverse of :func:`project` on
    the subspace the retained directions span."""
    if isinstance(coefficients, ClueSet):
        spectra = unproject(coefficients.spectra, basis)
        return ClueSet(
            coefficients.height,
            coefficients.width,
            basis.wavelengths,
            coefficients.mask,
            spectra,
        )
    coefficients = np.asarray(coefficients, dtype=np.float64)
    dim = coefficients.shape[-1]
    vectors = _leading_vectors(basis, dim)
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
        explained = np.asarray(self.explained, dtype=np.float64)
        if explained.ndim != 1 or explained.size < 1:
            raise ValidationError("explained variance must be a 1-d array")
        if not 1 <= self.elbow_index <= explained.size:
            raise ValidationError(
                f"elbow index {self.elbow_index} outside [1, {explained.size}]"
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


def variance_curve(clues: ClueSet, basis: SpectralBasis) -> VarianceCurve:
    """Variance of clue coefficients along every direction of a full basis.

    Requires a full-rank basis (rank == bands) and at least 8 clues; the
    coefficients are mean-centered before the per-direction sample
    variance. The floor of the curve is what read and shot noise leave
    behind, so its log feeds dimension prediction alongside the elbow.
    """
    if basis.rank != basis.bands:
        raise ValidationError(
            f"variance_curve needs a full-rank basis, got rank {basis.rank} "
            f"for {basis.bands} bands"
        )
    if clues.count < _MIN_CLUES_FOR_CURVE:
        raise ValidationError(
            f"variance_curve needs at least {_MIN_CLUES_FOR_CURVE} clues, "
            f"got {clues.count}"
        )
    if clues.bands != basis.bands:
        raise ValidationError(
            f"clues have {clues.bands} bands, basis has {basis.bands}"
        )
    coefficients = clues.spectra @ basis.vectors
    explained = coefficients.var(axis=0, ddof=1)
    floor = max(float(explained.max()) * 1e-15, 1e-300)
    log_explained = np.log10(np.maximum(explained, floor))
    elbow = _kneedle_elbow(log_explained)
    return VarianceCurve(explained, elbow, float(log_explained.min()))


@dataclass(frozen=True)
class DimensionModel:
    """Quadratic map from (elbow, log noise floor) to a reconstruction dim."""

    intercept: float
    elbow: float
    log_min_variance: float
    elbow_sq: float
    log_min_variance_sq: float
    elbow_x_log_min_variance: float
    clamp_min: int = 2
    clamp_max: int = 31

    def __post_init__(self):
        if not 2 <= self.clamp_min <= self.clamp_max:
            raise ValidationError(
                f"clamp bounds [{self.clamp_min}, {self.clamp_max}] are invalid"
            )

    def predict(self, curve) -> int:
        """Predicted dimension, rounded half-up and clamped to the bounds."""
        if isinstance(curve, VarianceCurve):
            elbow, log_min = float(curve.elbow_index), curve.log_min_variance
        else:
            elbow, log_min = float(curve[0]), float(curve[1])
        value = (
            self.intercept
            + self.elbow * elbow
            + self.log_min_variance * log_min
            + self.elbow_sq * elbow * elbow
            + self.log_min_variance_sq * log_min * log_min
            + self.elbow_x_log_min_variance * elbow * log_min
        )
        predicted = int(np.floor(value + 0.5))
        return int(np.clip(predicted, self.clamp_min, self.clamp_max))


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


def fit_dimension_model(
    curves, labels, clamp_max: int | None = None
) -> DimensionModel:
    """Least-squares fit of the quadratic dimension predictor.

    Parameters
    ----------
    curves : sequence of VarianceCurve, or (n, 2) array
        Training features; arrays carry (elbow, log_min_variance) rows.
    labels : sequence of int
        Best reconstruction dimension observed for each training point.
    clamp_max : int, optional
        Upper clamp for predictions. Defaults to the band count of the
        curves; required when raw feature rows are passed.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 1:
        raise ValidationError("labels must be a 1-d sequence")
    if isinstance(curves, np.ndarray):
        features = np.asarray(curves, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != 2:
            raise ValidationError(f"feature array must be (n, 2), got {features.shape}")
        if clamp_max is None:
            raise ValidationError("clamp_max is required with raw feature rows")
        elbows, log_mins = features[:, 0], features[:, 1]
    else:
        curves = list(curves)
        if clamp_max is None:
            if not curves:
                raise ValidationError("no training curves given")
            clamp_max = curves[0].dimensions
        elbows = np.array([float(c.elbow_index) for c in curves])
        log_mins = np.array([c.log_min_variance for c in curves])
    if elbows.size != labels.size:
        raise ValidationError(
            f"{elbows.size} training curves but {labels.size} labels"
        )
    if elbows.size < _MIN_TRAINING_PAIRS:
        raise ValidationError(
            f"need at least {_MIN_TRAINING_PAIRS} training pairs, got {elbows.size}"
        )
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
        clamp_max=int(clamp_max),
    )


def estimate_dimension(
    clues: ClueSet, basis: SpectralBasis, model: DimensionModel | None = None
) -> tuple[int, VarianceCurve]:
    """Variance curve plus the dimension it points to: the model's
    prediction, or the curve's elbow when no model is given.

    A model trained on cubes with more bands can predict past this basis,
    so its prediction is capped at the curve's dimension count.
    """
    curve = variance_curve(clues, basis)
    if model is None:
        return curve.elbow_index, curve
    return min(model.predict(curve), curve.dimensions), curve


# ---------------------------------------------------------------------------
# Model serialization (JSON)

_MODEL_FIELDS = tuple(spec.name for spec in fields(DimensionModel))


def write_model(model: DimensionModel, path) -> None:
    """Write a dimension model as JSON with named coefficients."""
    payload = {name: getattr(model, name) for name in _MODEL_FIELDS}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_model(path) -> DimensionModel:
    """Read a dimension model written by :func:`write_model`."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: model file is not JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: model file must hold a JSON object")
    missing = [name for name in _MODEL_FIELDS if name not in payload]
    if missing:
        raise ValidationError(f"{path}: model file missing fields {missing}")
    kwargs = {name: payload[name] for name in _MODEL_FIELDS}
    for name, value in kwargs.items():
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not number or not np.isfinite(value):
            raise FormatError(
                f"{path}: model field {name} must be a finite number, got {value!r}"
            )
    kwargs["clamp_min"] = int(kwargs["clamp_min"])
    kwargs["clamp_max"] = int(kwargs["clamp_max"])
    return DimensionModel(**kwargs)
