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
from .core import _check_seed, _guide_values, _is_finite_real, _is_int
from .errors import ValidationError

__all__ = ["PATTERNS", "SamplingPlan", "build_mask"]

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
    random pattern. The plan holds the one check of the rate.
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
        if not (_is_finite_real(self.rate) and 0.0 < self.rate <= 1.0):
            raise ValidationError(f"sampling rate must be in (0, 1], got {self.rate}")
        if not (_is_finite_real(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ValidationError(f"alpha must be in [0, 1], got {self.alpha}")
        _check_seed(self.seed)


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


def _sample_random(shape: tuple[int, int], rate: float, seed: int) -> np.ndarray:
    """floor(rate * pixels) distinct pixels, uniform without replacement."""
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


def _row_mask(weights: np.ndarray, width: int, rate: float) -> np.ndarray:
    """Whole rows picked by the threshold walk over per-row weights."""
    rows = _threshold_select(weights, 1.0 / rate)
    return np.repeat(rows[:, None], width, axis=1)


def _sample_uniform_push(shape: tuple[int, int], rate: float) -> np.ndarray:
    """Whole rows at the target rate via accumulate-and-threshold."""
    height, width = shape
    return _row_mask(np.ones(height), width, rate)


def _sample_uniform_whisk(shape: tuple[int, int], rate: float) -> np.ndarray:
    """Row/column lattice: rows at rate sqrt(rate), pixels within at sqrt(rate)."""
    height, width = shape
    axis_rate = np.sqrt(rate)
    rows = _threshold_select(np.ones(height), 1.0 / axis_rate)
    cols = _threshold_select(np.ones(width), 1.0 / axis_rate)
    return np.outer(rows, cols)


# ---------------------------------------------------------------------------
# Guide features


def _detect_corners(values: np.ndarray) -> np.ndarray:
    """Minimum-eigenvalue corner positions, (count, 2) as (row, col).

    3x3 Sobel gradients feed a structure tensor summed over a 5x5 window;
    the corner score is the tensor's smaller eigenvalue. Survivors of a 5x5
    non-maximum suppression are kept when they reach 1% of the peak score.
    """
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


def _guide_features(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner map (1.0 at each detected corner) and posterized levels."""
    corners = _detect_corners(values)
    corner_map = np.zeros(values.shape, dtype=np.float64)
    corner_map[corners[:, 0], corners[:, 1]] = 1.0
    return corner_map, _posterize(values)


def _spread_feature(feature) -> np.ndarray:
    """Min-max rescale into [0.1, 1.0], then to unit mean; all ones when
    the feature is flat."""
    feature = np.asarray(feature, dtype=np.float64)
    lo = float(feature.min())
    hi = float(feature.max())
    if hi <= lo:
        return np.ones_like(feature)
    spread = 0.1 + 0.9 * (feature - lo) / (hi - lo)
    return spread / spread.mean()


def _axis_weights(
    corner_map: np.ndarray, levels: np.ndarray, axis: int, half_width: int, alpha: float
) -> np.ndarray:
    """Structure weights per position along ``axis`` of a guide region.

    The corner feature counts corners within +-``half_width`` positions;
    the diversity feature counts the gray levels present there. Each is
    spread into [0.1, 1.0] at unit mean, then blended by ``alpha``.
    """
    across = 1 - axis
    window = 2 * half_width + 1
    # ndimage keeps the output the size of the input even when the window
    # is wider than the region; np.convolve "same" would return the window
    corners = ndimage.convolve1d(
        corner_map.sum(axis=across), np.ones(window), mode="constant", cval=0.0
    )
    presence = np.stack(
        [(levels == level).any(axis=across) for level in range(_POSTERIZE_LEVELS)]
    ).astype(np.uint8)
    diversity = ndimage.maximum_filter1d(
        presence, size=window, axis=1, mode="constant", cval=0
    ).sum(axis=0)
    return alpha * _spread_feature(corners) + (1.0 - alpha) * _spread_feature(diversity)


# ---------------------------------------------------------------------------
# Guided patterns


def _sample_guided_push(values: np.ndarray, rate: float, alpha: float) -> np.ndarray:
    """Whole rows, more of them where the guide shows structure.

    Row weights count corners and gray levels within +-5 rows, so a
    constant guide degrades to the uniform push.
    """
    corner_map, levels = _guide_features(values)
    weights = _axis_weights(corner_map, levels, 0, _ROW_BAND, alpha)
    return _row_mask(weights, values.shape[1], rate)


def _sample_guided_whisk(values: np.ndarray, rate: float, alpha: float) -> np.ndarray:
    """Guided rows, then guided pixels within each selected row.

    Rows come from the guided push weights at rate sqrt(rate); within a
    selected row, per-pixel weights blend corner and diversity counts in a
    +-10-column window over the +-5-row band, and pixels fire through the
    same accumulate-and-threshold walk at threshold 1/sqrt(rate).
    """
    height = values.shape[0]
    threshold = 1.0 / np.sqrt(rate)
    corner_map, levels = _guide_features(values)
    rows = _threshold_select(
        _axis_weights(corner_map, levels, 0, _ROW_BAND, alpha), threshold
    )
    mask = np.zeros(values.shape, dtype=bool)
    for row in np.flatnonzero(rows):
        band = slice(max(0, row - _ROW_BAND), min(height, row + _ROW_BAND + 1))
        pixel_weights = _axis_weights(
            corner_map[band], levels[band], 1, _COL_BAND, alpha
        )
        mask[row] = _threshold_select(pixel_weights, threshold)
    return mask


# ---------------------------------------------------------------------------
# Dispatcher


def build_mask(plan: SamplingPlan, shape: tuple[int, int] | None = None, guide=None) -> np.ndarray:
    """Build the boolean sampling mask a plan describes.

    Guided patterns require ``guide``; the others accept either ``shape``,
    two integers of at least 1, or a guide to borrow the shape from.
    """
    if not isinstance(plan, SamplingPlan):
        raise ValidationError(f"build_mask needs a SamplingPlan, got {plan!r}")
    values = None
    if guide is not None:
        values = _guide_values(guide)
        shape = values.shape
    if shape is None:
        raise ValidationError("build_mask needs a shape or a guide image")
    try:
        height, width = shape
    except (TypeError, ValueError):
        height = width = None
    if not all(_is_int(side) and side >= 1 for side in (height, width)):
        raise ValidationError(f"shape must be two integers of at least 1, got {shape!r}")
    shape = (int(height), int(width))
    if plan.pattern == "random":
        return _sample_random(shape, plan.rate, plan.seed)
    if plan.pattern == "uniform-push":
        return _sample_uniform_push(shape, plan.rate)
    if plan.pattern == "uniform-whisk":
        return _sample_uniform_whisk(shape, plan.rate)
    if values is None:
        raise ValidationError(f"pattern {plan.pattern!r} requires a guide image")
    if plan.pattern == "guided-push":
        return _sample_guided_push(values, plan.rate, plan.alpha)
    return _sample_guided_whisk(values, plan.rate, plan.alpha)
