"""Sampling masks for sparse spectral acquisition.

Push patterns select whole rows (a push-broom line scanner), whisk patterns
select pixels on a row/column lattice (a whisk-broom point scanner). The
guided variants weight rows and pixels by how much structure the guide
image shows nearby, using corner density and local gray-level diversity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ._filters import sobel_gradients, window_sum
from .core import _guide_values
from .errors import ValidationError

__all__ = [
    "PATTERNS",
    "SamplingPlan",
    "RowWeights",
    "build_mask",
    "sample_random",
    "sample_uniform_push",
    "sample_uniform_whisk",
    "sample_guided_push",
    "sample_guided_whisk",
    "compute_row_weights",
    "detect_corners",
]

PATTERNS = (
    "random",
    "uniform-push",
    "uniform-whisk",
    "guided-push",
    "guided-whisk",
)

# Half-widths of the feature-counting bands.
_ROW_BAND = 5
_COL_BAND = 10
_POSTERIZE_LEVELS = 16


@dataclass(frozen=True)
class SamplingPlan:
    """Which pattern to run, at what rate, with what guidance mix.

    ``alpha`` blends the corner-density feature against the gray-level
    diversity feature in the guided patterns; ``seed`` only matters for the
    random pattern.
    """

    pattern: str
    rate: float
    alpha: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValidationError(
                f"unknown pattern {self.pattern!r}, expected one of {PATTERNS}"
            )
        _check_rate(self.rate)
        if not np.isfinite(self.alpha) or not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must be in [0, 1], got {self.alpha}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class RowWeights:
    """Per-row sampling weights, positive with unit mean."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size < 1:
            raise ValidationError(f"row weights must be a 1-d array, got {weights.shape}")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValidationError("row weights must be finite and positive")
        if abs(weights.mean() - 1.0) > 1e-6:
            raise ValidationError(f"row weights mean {weights.mean()} is not 1")
        object.__setattr__(self, "weights", weights)


def _check_rate(rate: float) -> None:
    if not np.isfinite(rate) or not 0.0 < rate <= 1.0:
        raise ValidationError(f"sampling rate must be in (0, 1], got {rate}")


def _threshold_select(weights: np.ndarray, threshold: float) -> np.ndarray:
    """Accumulate-and-threshold selection over a weight sequence.

    Eligibility is checked before each weight is added and the accumulator
    starts at the threshold, so index 0 always fires; a hit on exact
    equality counts as a selection.
    """
    selected = np.zeros(weights.size, dtype=bool)
    accumulator = threshold
    for index, weight in enumerate(weights):
        if accumulator >= threshold:
            selected[index] = True
            accumulator -= threshold
        accumulator += weight
    return selected


# ---------------------------------------------------------------------------
# Uniform and random patterns


def sample_random(shape: tuple[int, int], rate: float, seed: int = 0) -> np.ndarray:
    """floor(rate * pixels) distinct pixels, uniform without replacement."""
    _check_rate(rate)
    height, width = shape
    total = height * width
    count = int(np.floor(rate * total))
    if count < 1:
        raise ValidationError(
            f"rate {rate} selects zero pixels on a {height}x{width} grid"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = rng.choice(total, size=count, replace=False)
    mask = np.zeros(total, dtype=bool)
    mask[chosen] = True
    return mask.reshape(height, width)


def sample_uniform_push(shape: tuple[int, int], rate: float) -> np.ndarray:
    """Whole rows at the target rate via accumulate-and-threshold."""
    _check_rate(rate)
    height, width = shape
    rows = _threshold_select(np.ones(height), 1.0 / rate)
    mask = np.zeros((height, width), dtype=bool)
    mask[rows, :] = True
    return mask


def sample_uniform_whisk(shape: tuple[int, int], rate: float) -> np.ndarray:
    """Row/column lattice: rows at rate sqrt(rate), pixels within at sqrt(rate)."""
    _check_rate(rate)
    height, width = shape
    axis_rate = np.sqrt(rate)
    rows = _threshold_select(np.ones(height), 1.0 / axis_rate)
    cols = _threshold_select(np.ones(width), 1.0 / axis_rate)
    return np.outer(rows, cols)


# ---------------------------------------------------------------------------
# Guide features


def detect_corners(guide) -> np.ndarray:
    """Minimum-eigenvalue corner positions, (count, 2) as (row, col).

    3x3 Sobel gradients feed a structure tensor summed over a 5x5 window;
    the corner score is the tensor's smaller eigenvalue. Survivors of a 5x5
    non-maximum suppression are kept when they reach 1% of the peak score.
    """
    values = _guide_values(guide)
    grad_x, grad_y = sobel_gradients(values)
    sum_xx = window_sum(grad_x * grad_x, 5)
    sum_yy = window_sum(grad_y * grad_y, 5)
    sum_xy = window_sum(grad_x * grad_y, 5)
    half_trace = 0.5 * (sum_xx + sum_yy)
    spread = np.sqrt((0.5 * (sum_xx - sum_yy)) ** 2 + sum_xy**2)
    score = half_trace - spread
    peak = float(score.max())
    if peak <= 0.0:
        return np.empty((0, 2), dtype=np.int64)
    local_max = score == ndimage.maximum_filter(
        score, size=5, mode="constant", cval=-np.inf
    )
    keep = local_max & (score >= 0.01 * peak) & (score > 0.0)
    return np.argwhere(keep).astype(np.int64)


def _posterize(values: np.ndarray, levels: int = _POSTERIZE_LEVELS) -> np.ndarray:
    lo = float(values.min())
    hi = float(values.max())
    if hi <= lo:
        return np.zeros(values.shape, dtype=np.int64)
    quantized = np.floor((values - lo) / (hi - lo) * levels).astype(np.int64)
    return np.clip(quantized, 0, levels - 1)


def _spread_feature(feature: np.ndarray) -> np.ndarray:
    """Min-max rescale into [0.1, 1.0]; all ones when the feature is flat."""
    lo = float(feature.min())
    hi = float(feature.max())
    if hi <= lo:
        return np.ones_like(feature)
    return 0.1 + 0.9 * (feature - lo) / (hi - lo)


def _unit_mean(weights: np.ndarray) -> np.ndarray:
    return weights / weights.mean()


def _feature_weights(feature: np.ndarray) -> np.ndarray:
    return _unit_mean(_spread_feature(np.asarray(feature, dtype=np.float64)))


def _band_sum_1d(values: np.ndarray, half_width: int) -> np.ndarray:
    # ndimage keeps the output the size of the input even when the window
    # is wider than the image; np.convolve "same" would return the window
    window = np.ones(2 * half_width + 1)
    return ndimage.convolve1d(values, window, mode="constant", cval=0.0)


def compute_row_weights(guide, alpha: float = 0.7) -> RowWeights:
    """Blend corner density and gray-level diversity into per-row weights.

    Both features count within a band of +-5 rows. Each is rescaled into
    [0.1, 1.0] and normalized to unit mean before blending, so a constant
    guide degrades to uniform weights.
    """
    values = _guide_values(guide)
    height = values.shape[0]
    corners = detect_corners(values)
    corner_rows = np.bincount(corners[:, 0], minlength=height).astype(np.float64)
    corner_feature = _band_sum_1d(corner_rows, _ROW_BAND)

    levels = _posterize(values)
    row_presence = np.zeros((height, _POSTERIZE_LEVELS), dtype=np.uint8)
    for level in range(_POSTERIZE_LEVELS):
        row_presence[:, level] = (levels == level).any(axis=1)
    band_presence = ndimage.maximum_filter1d(
        row_presence, size=2 * _ROW_BAND + 1, axis=0, mode="constant", cval=0
    )
    diversity_feature = band_presence.sum(axis=1).astype(np.float64)

    combined = alpha * _feature_weights(corner_feature) + (1.0 - alpha) * _feature_weights(
        diversity_feature
    )
    return RowWeights(combined)


# ---------------------------------------------------------------------------
# Guided patterns


def sample_guided_push(guide, rate: float, alpha: float = 0.7) -> np.ndarray:
    """Whole rows, more of them where the guide shows structure."""
    _check_rate(rate)
    values = _guide_values(guide)
    height, width = values.shape
    weights = compute_row_weights(values, alpha).weights
    rows = _threshold_select(weights, 1.0 / rate)
    mask = np.zeros((height, width), dtype=bool)
    mask[rows, :] = True
    return mask


def _column_features(
    values: np.ndarray, levels: np.ndarray, corner_map: np.ndarray, row: int
) -> tuple[np.ndarray, np.ndarray]:
    """Corner and diversity counts per column around one scan row."""
    height, width = values.shape
    band = slice(max(0, row - _ROW_BAND), min(height, row + _ROW_BAND + 1))
    corner_cols = corner_map[band].sum(axis=0).astype(np.float64)
    corner_feature = _band_sum_1d(corner_cols, _COL_BAND)

    presence = np.zeros((_POSTERIZE_LEVELS, width), dtype=np.uint8)
    band_levels = levels[band]
    for level in range(_POSTERIZE_LEVELS):
        presence[level] = (band_levels == level).any(axis=0)
    windowed = ndimage.maximum_filter1d(
        presence, size=2 * _COL_BAND + 1, axis=1, mode="constant", cval=0
    )
    diversity_feature = windowed.sum(axis=0).astype(np.float64)
    return corner_feature, diversity_feature


def sample_guided_whisk(guide, rate: float, alpha: float = 0.7) -> np.ndarray:
    """Guided rows, then guided pixels within each selected row.

    Rows come from :func:`sample_guided_push` at rate sqrt(rate); within a
    selected row, per-pixel weights blend corner and diversity counts in a
    +-10-column window over the row band, and pixels fire through the same
    accumulate-and-threshold walk at threshold 1/sqrt(rate).
    """
    _check_rate(rate)
    values = _guide_values(guide)
    height, width = values.shape
    axis_rate = np.sqrt(rate)
    row_weights = compute_row_weights(values, alpha).weights
    rows = _threshold_select(row_weights, 1.0 / axis_rate)

    corners = detect_corners(values)
    corner_map = np.zeros((height, width), dtype=np.float64)
    if corners.size:
        corner_map[corners[:, 0], corners[:, 1]] = 1.0
    levels = _posterize(values)

    mask = np.zeros((height, width), dtype=bool)
    for row in np.flatnonzero(rows):
        corner_feature, diversity_feature = _column_features(
            values, levels, corner_map, int(row)
        )
        pixel_weights = alpha * _feature_weights(corner_feature) + (
            1.0 - alpha
        ) * _feature_weights(diversity_feature)
        mask[row] = _threshold_select(pixel_weights, 1.0 / axis_rate)
    return mask


# ---------------------------------------------------------------------------
# Dispatcher


def build_mask(plan: SamplingPlan, shape: tuple[int, int] | None = None, guide=None) -> np.ndarray:
    """Build the boolean sampling mask a plan describes.

    Guided patterns require ``guide``; the others accept either ``shape``
    or a guide to borrow the shape from.
    """
    if guide is not None:
        shape = _guide_values(guide).shape
    if shape is None:
        raise ValidationError("build_mask needs a shape or a guide image")
    if plan.pattern == "random":
        return sample_random(shape, plan.rate, plan.seed)
    if plan.pattern == "uniform-push":
        return sample_uniform_push(shape, plan.rate)
    if plan.pattern == "uniform-whisk":
        return sample_uniform_whisk(shape, plan.rate)
    if guide is None:
        raise ValidationError(f"pattern {plan.pattern!r} requires a guide image")
    if plan.pattern == "guided-push":
        return sample_guided_push(guide, plan.rate, plan.alpha)
    return sample_guided_whisk(guide, plan.rate, plan.alpha)
