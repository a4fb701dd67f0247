"""Guide-driven spectral colorization.

Spectra propagate from sparse clues to every pixel through a sparse linear
system: each non-clue pixel is tied to the affinity-weighted average of its
8 neighbors, and clue pixels additionally anchor the measured spectrum with
a doubled diagonal. Affinities follow the guide image, so spectra stop at
the guide's edges. A noisy clue set can be pre-filtered toward its local
neighborhood everywhere the guide shows no edge, and the solved cube is
rescaled per pixel so its response-weighted brightness reproduces the
guide.
"""

from __future__ import annotations

import ctypes
import inspect
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from ._filters import gaussian_kernel_1d, sobel_gradients, window_count, window_sum
from .core import ClueSet, HyperCube, SpectralResponse, _guide_values
from .errors import SolverError, ValidationError
from .subspace import SpectralBasis, project, unproject

__all__ = [
    "NEIGHBOR_OFFSETS",
    "AffinitySystem",
    "SolveReport",
    "ColorizeResult",
    "canny_edges",
    "edge_confidence",
    "edge_filter",
    "affinity_weights",
    "build_system",
    "solve",
    "luminance_rescale",
    "colorize",
]

# 8-neighbor stencil, center excluded.
NEIGHBOR_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)

_CLUE_DIAGONAL = 2.0
_PLAIN_DIAGONAL = 1.0
_VARIANCE_FLOOR_SCALE = 1e-8
_DEGENERATE_DENOMINATOR = 1e-12
_EDGE_BLUR_SIZE = 31
_EDGE_BLUR_SIGMA = np.sqrt(11.0)
_CLUE_WINDOW = 21
# the stencil in the row order of a CSC column, None for the diagonal:
# column j holds plane k's entry on row j - offset_k, and the flat
# offsets of NEIGHBOR_OFFSETS ascend with k
_COLUMN_ORDER = (7, 6, 5, 4, None, 3, 2, 1, 0)
# LU fill of the grid system: nonzeros ~ _FACTOR_FILL * n * log2(n)
_FACTOR_FILL = 6.0
_FACTOR_BYTES_PER_NONZERO = 16
# auto solves directly while the estimated factor fits this many bytes
_DIRECT_SOLVE_BUDGET = 2**30
# channels per triangular solve: each solve streams the whole factor from
# memory once, so a block of channels shares that traffic
_SOLVE_BLOCK = 8

# LU factors alive at once, in any threads, share the budget above, so it
# bounds the process; a factor that does not fit beside the others waits
_FACTOR_ROOM = threading.Condition()
_factor_bytes_in_use = 0

_ITERATIVE_TOL_KW = (
    "rtol"
    if "rtol" in inspect.signature(sparse_linalg.bicgstab).parameters
    else "tol"
)


# ---------------------------------------------------------------------------
# Edge detection and the edge-aware clue prefilter


def canny_edges(
    guide, low_percentile: float = 70.0, high_percentile: float = 90.0
) -> np.ndarray:
    """Boolean edge map via Canny with percentile hysteresis thresholds.

    The guide is presmoothed with a sigma 1.4 Gaussian, gradients come from
    3x3 Sobel kernels, ridges are thinned by non-maximum suppression along
    the gradient direction, and hysteresis keeps weak edges only when they
    8-connect to a strong one. Thresholds sit at the given percentiles of
    the gradient-magnitude distribution over the whole image.
    """
    _check_percentiles(low_percentile, high_percentile)
    values = _guide_values(guide)
    smoothed = ndimage.gaussian_filter(values, sigma=1.4, mode="reflect")
    grad_x, grad_y = sobel_gradients(smoothed)
    magnitude = np.hypot(grad_x, grad_y)

    # rounding wiggle from the presmooth must never count as gradient, so
    # thresholds are floored relative to the guide's dynamic range
    floor = 1e-9 * float(values.max() - values.min())
    if floor <= 0.0:
        return np.zeros(values.shape, dtype=bool)

    thinned = _nonmax_suppress(magnitude, grad_x, grad_y)
    low, high = np.percentile(magnitude, [low_percentile, high_percentile])
    strong = thinned & (magnitude >= max(high, floor))
    weak = thinned & (magnitude >= max(low, floor))
    if not strong.any():
        return strong
    labels, _ = ndimage.label(weak, structure=np.ones((3, 3), dtype=int))
    keep = np.unique(labels[strong])
    return np.isin(labels, keep[keep > 0])


def _check_percentiles(low_percentile, high_percentile) -> None:
    """Raise ValidationError unless 0 <= low <= high <= 100."""
    if not 0.0 <= low_percentile <= high_percentile <= 100.0:
        raise ValidationError(
            f"percentiles must satisfy 0 <= low <= high <= 100, "
            f"got ({low_percentile}, {high_percentile})"
        )


def _nonmax_suppress(magnitude, grad_x, grad_y) -> np.ndarray:
    """Keep pixels whose magnitude tops both neighbors along the gradient."""
    height, width = magnitude.shape
    padded = np.pad(magnitude, 1, mode="constant")
    angle = np.mod(np.degrees(np.arctan2(grad_y, grad_x)), 180.0)

    # neighbor steps (drow, dcol) per quantized gradient direction
    sectors = [
        ((angle < 22.5) | (angle >= 157.5), (0, 1)),
        ((angle >= 22.5) & (angle < 67.5), (1, 1)),
        ((angle >= 67.5) & (angle < 112.5), (1, 0)),
        ((angle >= 112.5) & (angle < 157.5), (1, -1)),
    ]
    keep = np.zeros_like(magnitude, dtype=bool)
    center = padded[1 : height + 1, 1 : width + 1]
    for mask, (dr, dc) in sectors:
        ahead = padded[1 + dr : height + 1 + dr, 1 + dc : width + 1 + dc]
        behind = padded[1 - dr : height + 1 - dr, 1 - dc : width + 1 - dc]
        keep |= mask & (center >= ahead) & (center >= behind)
    return keep & (magnitude > 0)


def edge_confidence(
    guide, low_percentile: float = 70.0, high_percentile: float = 90.0
) -> np.ndarray:
    """Soft edge map in [0, 1]: blurred Canny edges, peak renormalized to 1.

    The blur is a unit-sum 31x31 Gaussian window of variance 11. An image
    with no detected edges returns all zeros.
    """
    edges = canny_edges(guide, low_percentile, high_percentile).astype(np.float64)
    kernel = gaussian_kernel_1d(_EDGE_BLUR_SIGMA, _EDGE_BLUR_SIZE // 2)
    blurred = ndimage.correlate1d(edges, kernel, axis=0, mode="constant")
    blurred = ndimage.correlate1d(blurred, kernel, axis=1, mode="constant")
    peak = float(blurred.max())
    if peak > 0:
        blurred = blurred / peak
    return np.clip(blurred, 0.0, 1.0)


def edge_filter(
    clues: ClueSet,
    guide,
    low_percentile: float = 70.0,
    high_percentile: float = 90.0,
) -> ClueSet:
    """Shrink each clue toward its local clue neighborhood away from edges.

    A clue at an edge (confidence 1) passes through untouched; a clue in a
    flat region is replaced by the average of the other clues inside its
    21x21 window, which cancels independent noise. Clues with no neighbors
    in the window always pass through.
    """
    values = _guide_values(guide)
    if values.shape != (clues.height, clues.width):
        raise ValidationError(
            f"guide shape {values.shape} does not match clues "
            f"({clues.height}, {clues.width})"
        )
    confidence = edge_confidence(values, low_percentile, high_percentile)

    # window sums one band at a time, read back at the clue pixels only
    rows, cols = np.nonzero(clues.mask)
    plane = np.zeros((clues.height, clues.width), dtype=np.float64)
    window_totals = np.empty_like(clues.spectra)
    for band in range(clues.bands):
        plane[rows, cols] = clues.spectra[:, band]
        window_totals[:, band] = window_sum(plane, _CLUE_WINDOW)[rows, cols]
    neighbor_counts = window_sum(clues.mask.astype(np.float64), _CLUE_WINDOW)

    own = clues.spectra
    others_sum = window_totals - own
    others_count = np.rint(neighbor_counts[clues.mask]) - 1.0
    zeta = confidence[clues.mask][:, None]
    has_neighbors = others_count > 0
    local_mean = np.where(
        has_neighbors[:, None], others_sum / np.maximum(others_count, 1.0)[:, None], own
    )
    filtered = np.where(
        has_neighbors[:, None], zeta * own + (1.0 - zeta) * local_mean, own
    )
    return ClueSet(clues.height, clues.width, clues.wavelengths, clues.mask, filtered)


# ---------------------------------------------------------------------------
# Affinity system assembly


def affinity_weights(guide) -> np.ndarray:
    """Normalized neighbor affinities, shape (8, height, width).

    Plane k holds the weight toward NEIGHBOR_OFFSETS[k]; out-of-bounds
    neighbors weigh zero, and the weights of each pixel with at least one
    neighbor sum to one (a pixel with none, as in a 1x1 guide, keeps all
    zeros). The similarity scale is the pixel's own 3x3 patch variance,
    floored at 1e-8 of the squared guide dynamic range, which makes the
    weights invariant under affine rescaling of the guide.
    """
    values = _guide_values(guide)
    height, width = values.shape
    patch_sum = window_sum(values, 3)
    patch_sq = window_sum(values * values, 3)
    counts = window_count(values.shape, 3)
    mean = patch_sum / counts
    variance = np.maximum(patch_sq / counts - mean * mean, 0.0)
    value_range = float(values.max() - values.min())
    if value_range > 0:
        variance = np.maximum(variance, _VARIANCE_FLOOR_SCALE * value_range**2)
    else:
        variance = np.ones_like(variance)

    weights = np.zeros((len(NEIGHBOR_OFFSETS), height, width), dtype=np.float64)
    for plane, (drow, dcol) in enumerate(NEIGHBOR_OFFSETS):
        center = _shift_slices(height, width, drow, dcol, invert=False)
        neighbor = _shift_slices(height, width, drow, dcol, invert=True)
        diff = values[center] - values[neighbor]
        weights[plane][center] = np.exp(-(diff * diff) / (2.0 * variance[center]))
    totals = weights.sum(axis=0)
    return np.divide(weights, totals, out=weights, where=totals > 0)


def _shift_slices(height, width, drow, dcol, invert):
    """Slices selecting centers with a valid (drow, dcol) neighbor, or the
    neighbors themselves when ``invert``."""
    if invert:
        drow, dcol = -drow, -dcol
    rows = slice(max(0, -drow), height - max(0, drow))
    cols = slice(max(0, -dcol), width - max(0, dcol))
    return rows, cols


@dataclass
class AffinitySystem:
    """Sparse propagation system with its right-hand sides.

    ``matrix`` is pixel-count square, held in CSC with the row indices of
    every column sorted, so a direct solve factors it without a copy:
    diagonal 2 at clue pixels and 1 elsewhere, off-diagonals the negated
    normalized affinities (each row's off-diagonal entries sum to -1). A
    pixel with no neighbour, the lone pixel of a 1x1 guide, has diagonal 1
    whether or not it holds a clue, so its row reads ``x = c``.
    The right-hand sides are zero off the clue rows and are kept compact:
    ``clue_rows`` holds the flat indices of the clue pixels, ascending,
    and ``clue_values`` their (clue count, channels) values. ``rhs``
    expands them into a read-only dense (pixel count, channels) array,
    built anew on each access.
    """

    matrix: sparse.csc_matrix
    clue_rows: np.ndarray
    clue_values: np.ndarray

    @property
    def rhs(self) -> np.ndarray:
        """Dense (pixel count, channels) right-hand sides, read-only."""
        dense = self._dense(slice(None))
        dense.flags.writeable = False
        return dense

    def _dense(self, channels, order="C") -> np.ndarray:
        """Dense right-hand sides of the selected channels."""
        values = self.clue_values[:, channels]
        dense = np.zeros((self.matrix.shape[0], values.shape[1]), order=order)
        dense[self.clue_rows] = values
        return dense


def build_system(guide, clues: ClueSet) -> AffinitySystem:
    """Assemble the propagation system for a guide and a clue set.

    The clue set may hold raw spectra or basis coefficients; channels are
    solved against the same matrix either way.
    """
    values = _guide_values(guide)
    height, width = values.shape
    if (clues.height, clues.width) != (height, width):
        raise ValidationError(
            f"clues grid ({clues.height}, {clues.width}) does not match "
            f"guide {values.shape}"
        )
    if clues.count < 1:
        raise ValidationError("colorization needs at least one clue")

    weights = affinity_weights(values)
    total = height * width
    diagonal = np.full((height, width), _PLAIN_DIAGONAL)
    if total > 1:  # a lone pixel has no neighbour to average its clue with
        diagonal[clues.mask] = _CLUE_DIAGONAL

    # a column holds the pixel and its in-bounds 8-neighbors: one entry
    # per pair of rows and pair of columns at most one apart
    nnz = (3 * height - 2) * (3 * width - 2)
    index_dtype = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(total + 1, dtype=index_dtype)
    indptr[1:] = np.cumsum(window_count((height, width), 3))
    # next free position in each column, filled one stencil entry at a time
    cursor = indptr[:-1].reshape(height, width).copy()
    index = np.arange(total, dtype=index_dtype).reshape(height, width)

    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index_dtype)
    for plane in _COLUMN_ORDER:
        drow, dcol = (0, 0) if plane is None else NEIGHBOR_OFFSETS[plane]
        center = _shift_slices(height, width, drow, dcol, invert=False)
        column = _shift_slices(height, width, drow, dcol, invert=True)
        slots = cursor[column]
        indices[slots] = index[center]
        data[slots] = diagonal if plane is None else -weights[plane][center]
        cursor[column] += 1

    matrix = sparse.csc_matrix((data, indices, indptr), shape=(total, total))
    rows = np.flatnonzero(clues.mask)
    return AffinitySystem(matrix, rows, np.array(clues.spectra, order="C"))


# ---------------------------------------------------------------------------
# Solving


@dataclass
class SolveReport:
    """Per-channel convergence record, with why the method was used.

    ``factor_bytes`` is the estimated memory of the sparse LU factor of
    the system, computed whichever method ran; ``reason`` says why the
    method was used.
    """

    method: str
    residuals: tuple[float, ...]
    iterations: tuple[int, ...]
    factor_bytes: int = 0
    reason: str = ""


def _estimate_factor_bytes(pixels: int) -> int:
    """Estimated memory of the sparse LU factor of a ``pixels``-node system.

    Under the minimum-degree ordering of A + A^T the 8-neighbor grid fills
    in to about c * n * log2(n) nonzeros; c was measured at 4.8 to 5.7 on
    grids from 128x128 to 700x700 and is rounded up here. Each nonzero
    costs a value and an index plus SuperLU's supernode bookkeeping.
    """
    pixels = max(int(pixels), 2)
    nonzeros = _FACTOR_FILL * pixels * math.log2(pixels)
    return int(nonzeros * _FACTOR_BYTES_PER_NONZERO)


# the solver methods solve() accepts; "auto" picks one of the other two
_SOLVER_METHODS = ("auto", "direct", "iterative")


def _choose_method(method: str, pixels: int) -> tuple[str, int, str]:
    """(method, estimated factor bytes, reason) for a ``pixels``-row system."""
    factor_bytes = _estimate_factor_bytes(pixels)
    if method != "auto":
        return method, factor_bytes, "requested"
    budget_mb = _DIRECT_SOLVE_BUDGET / 2**20
    estimate_mb = factor_bytes / 2**20
    if factor_bytes <= _DIRECT_SOLVE_BUDGET:
        return "direct", factor_bytes, (
            f"estimated LU factor {estimate_mb:.0f} MiB fits the "
            f"{budget_mb:.0f} MiB budget"
        )
    return "iterative", factor_bytes, (
        f"estimated LU factor {estimate_mb:.0f} MiB exceeds the "
        f"{budget_mb:.0f} MiB budget"
    )


def _load_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _load_malloc_trim()


@contextmanager
def _factor_room(factor_bytes: int):
    """Hold ``factor_bytes`` of the direct-solve budget for one factor.

    Factors run side by side while their estimates together fit the
    budget. One alone always runs, so an explicit ``method="direct"``
    above the budget waits for the others and then proceeds.
    """
    global _factor_bytes_in_use
    with _FACTOR_ROOM:
        _FACTOR_ROOM.wait_for(
            lambda: _factor_bytes_in_use == 0
            or _factor_bytes_in_use + factor_bytes <= _DIRECT_SOLVE_BUDGET
        )
        _factor_bytes_in_use += factor_bytes
    try:
        yield
    finally:
        with _FACTOR_ROOM:
            _factor_bytes_in_use -= factor_bytes
            _FACTOR_ROOM.notify_all()


def _direct_solve_into(solution, system, channels, factor_bytes) -> None:
    """Factor the system's matrix once and solve the given channels into
    ``solution``, ``_SOLVE_BLOCK`` channels per triangular solve."""
    with _factor_room(factor_bytes):
        # every row is diagonally dominant (clue rows strictly), so the
        # factorization needs no pivoting and keeps the symmetric ordering
        factor = sparse_linalg.splu(
            system.matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        for start in range(0, len(channels), _SOLVE_BLOCK):
            block = channels[start : start + _SOLVE_BLOCK]
            solution[:, block] = factor.solve(system._dense(block, order="F"))
        del factor
        # freeing the factor's multi-MB buffers raises glibc's dynamic mmap
        # threshold, and later cube-sized arrays then stay resident in the
        # per-thread arenas; hand the freed pages back instead
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)


def _channel_norms(system: AffinitySystem) -> np.ndarray:
    """2-norm of each channel's right-hand side.

    numpy sums several columns row by row, so the zero rows off the clues
    drop out and the compact values give the dense sums bit for bit. A
    lone column is summed pairwise over every row instead, which the zeros
    regroup, so it is taken densely.
    """
    if system.clue_values.shape[1] == 1:
        return np.linalg.norm(system.rhs, axis=0)
    return np.linalg.norm(system.clue_values, axis=0)


def _gap_norms(system: AffinitySystem, solution, channels) -> np.ndarray:
    """2-norm of matrix @ x - b for the given channels of ``solution``."""
    # the product reads its operand row-major, so the block is copied in
    # that order
    gaps = system.matrix @ np.ascontiguousarray(solution[:, channels])
    gaps[system.clue_rows] -= system.clue_values[:, channels]
    return np.linalg.norm(gaps, axis=0)


def solve(
    system: AffinitySystem,
    method: str = "auto",
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, SolveReport]:
    """Solve every channel of the system against its shared matrix.

    Right-hand sides are expanded from the system's compact clue values
    one block at a time, never for every channel at once, and the CSC
    matrix is factored as it is. Outside the LU factor, the direct path
    holds the solution plus two (pixel count, 8) blocks; the iterative
    path the solution plus a few single columns.

    Parameters
    ----------
    system : AffinitySystem
    method : str
        "iterative" (BiCGStab with a Jacobi preconditioner, one channel at
        a time), "direct" (one sparse LU factorization under a
        minimum-degree ordering, shared by every channel and applied to
        blocks of 8 channels per triangular solve), or "auto",
        which picks direct whenever the estimated LU factor fits a
        1 GiB budget (up to roughly 580k pixels) and iterative above it.
        Direct solves in several threads run at once while their
        estimated factors together fit that budget; past it they wait
        their turn.
    tol : float
        Relative residual each channel must reach.
    max_iter : int
        Iteration cap for the iterative path.

    Returns
    -------
    (solution, report)
        ``solution`` is (pixel count, channels) in Fortran order; the
        report carries the verified relative residual and iteration count
        per channel, the factor memory estimate and why the method ran.
        Channels whose right-hand side is zero are not solved: they stay
        zero with residual 0 and no iterations.

    Raises
    ------
    SolverError
        When a channel cannot reach ``tol``; carries the achieved residual.
    """
    if method not in _SOLVER_METHODS:
        raise ValidationError(f"unknown solver method {method!r}")
    matrix = system.matrix
    method, factor_bytes, reason = _choose_method(method, matrix.shape[0])

    channels = system.clue_values.shape[1]
    solution = np.zeros((matrix.shape[0], channels), order="F")
    norms = _channel_norms(system)
    active = [channel for channel in range(channels) if norms[channel] != 0]
    residuals = [0.0] * channels
    iterations = [0] * channels

    if method == "direct":
        _direct_solve_into(solution, system, active, factor_bytes)
        # one sparse-times-dense product per block of channels; one product
        # over every channel holds cube-sized temporaries, which raised the
        # peak RSS of a two-thread 128x128 sweep by about 7%
        for start in range(0, len(active), _SOLVE_BLOCK):
            block = active[start : start + _SOLVE_BLOCK]
            for channel, gap in zip(block, _gap_norms(system, solution, block)):
                residual = float(gap / norms[channel])
                if not np.isfinite(residual) or residual > tol:
                    raise SolverError(
                        f"direct solve left relative residual {residual:.3e} "
                        f"above {tol:.1e} on channel {channel}",
                        residual=residual,
                    )
                residuals[channel] = residual
        return solution, SolveReport(
            "direct", tuple(residuals), tuple(iterations), factor_bytes, reason
        )

    preconditioner = sparse.diags(1.0 / matrix.diagonal())
    for channel in active:
        b = system._dense([channel])[:, 0]
        count = {"n": 0}

        def _tick(_xk):
            count["n"] += 1

        x, info = sparse_linalg.bicgstab(
            matrix,
            b,
            M=preconditioner,
            maxiter=max_iter,
            callback=_tick,
            atol=0.0,
            **{_ITERATIVE_TOL_KW: tol},
        )
        residual = float(np.linalg.norm(matrix @ x - b) / norms[channel])
        if info != 0 or not np.isfinite(residual) or residual > tol:
            raise SolverError(
                f"BiCGStab stopped at relative residual {residual:.3e} "
                f"(target {tol:.1e}) after {count['n']} iterations "
                f"on channel {channel}",
                residual=residual,
            )
        solution[:, channel] = x
        residuals[channel] = residual
        iterations[channel] = count["n"]
    return solution, SolveReport(
        "iterative", tuple(residuals), tuple(iterations), factor_bytes, reason
    )


# ---------------------------------------------------------------------------
# Luminance rescale


def _flat_response(bands: int) -> np.ndarray:
    return np.full(bands, 1.0 / bands)


def _response_weights(response, bands: int, what: str) -> np.ndarray:
    if response is None:
        return _flat_response(bands)
    if isinstance(response, SpectralResponse):
        weights = response.weights
    else:
        weights = np.asarray(response, dtype=np.float64)
        total = weights.sum()
        if weights.ndim != 1 or np.any(weights < 0) or total <= 0:
            raise ValidationError(f"{what} must be nonnegative with positive sum")
        weights = weights / total
    if weights.size != bands:
        raise ValidationError(
            f"{what} covers {weights.size} bands, reconstruction has {bands}"
        )
    return weights


def luminance_rescale(
    recon,
    guide,
    response_guide=None,
    response_recon=None,
    alpha="auto",
):
    """Rescale reconstructed spectra so brightness follows the guide.

    Every pixel's spectrum is multiplied by alpha * guide / denominator,
    where the denominator is the absolute spectrum weighted by the ratio
    of the guide response to the reconstruction response. Responses
    default to flat. With ``alpha="auto"`` the scale is chosen so any cube
    already consistent with its guide is a fixed point (the reciprocal of
    the reconstruction response on the guide response's support when that
    is constant, otherwise a global least-squares calibration). Pixels
    whose denominator falls below 1e-12 are left unscaled and flagged.

    Returns ``(rescaled, degenerate_mask)``; the first mirrors the input
    type (HyperCube in, HyperCube out), the mask marks flagged pixels.
    """
    is_cube = isinstance(recon, HyperCube)
    data = recon.data if is_cube else np.asarray(recon, dtype=np.float64)
    if data.ndim != 3:
        raise ValidationError(f"reconstruction must be 3-d, got shape {data.shape}")
    values = _guide_values(guide)
    if values.shape != data.shape[:2]:
        raise ValidationError(
            f"guide shape {values.shape} does not match reconstruction {data.shape[:2]}"
        )
    bands = data.shape[2]
    guide_weights = _response_weights(response_guide, bands, "guide response")
    recon_weights = _response_weights(response_recon, bands, "reconstruction response")

    support = guide_weights > 0
    if np.any(support & (recon_weights <= 0)):
        raise ValidationError(
            "reconstruction response vanishes inside the guide response support"
        )
    ratio = np.zeros(bands)
    ratio[support] = guide_weights[support] / recon_weights[support]

    denominator = np.abs(data) @ ratio
    scale_alpha = _resolve_alpha(alpha, guide_weights, recon_weights, denominator, values)
    degenerate = denominator < _DEGENERATE_DENOMINATOR
    # per-pixel gain alpha * guide / denominator, kept as numerator and
    # denominator planes so each value rounds as (alpha * guide * x) / d;
    # degenerate pixels get 1 / 1 and keep their spectrum exactly
    numerator = np.where(degenerate, 1.0, scale_alpha * values)
    safe = np.where(degenerate, 1.0, denominator)
    scaled = data * numerator[:, :, None]
    scaled /= safe[:, :, None]
    if is_cube:
        return HyperCube(scaled, recon.wavelengths), degenerate
    return scaled, degenerate


def _resolve_alpha(alpha, guide_weights, recon_weights, denominator, guide_values):
    if alpha != "auto":
        value = float(alpha)
        if not np.isfinite(value) or value <= 0:
            raise ValidationError(f"alpha must be positive, got {alpha}")
        return value
    support = guide_weights > 0
    on_support = recon_weights[support]
    spread = float(on_support.max() - on_support.min())
    if spread <= 1e-9 * float(on_support.max()):
        return 1.0 / float(on_support[0])
    # non-constant reconstruction response: no exact fixed point exists,
    # fall back to the least-squares scale tying denominator to guide
    weight = float(np.dot(guide_values.ravel(), guide_values.ravel()))
    if weight <= 0:
        return 1.0
    return float(np.dot(denominator.ravel(), guide_values.ravel()) / weight)


# ---------------------------------------------------------------------------
# Full pipeline


def _solve_coefficients(
    values, clues, basis, dim, *, apply_edge_filter, method, tol, max_iter,
    canny_low=70.0, canny_high=90.0,
) -> tuple[np.ndarray, SolveReport]:
    """First stage of :func:`colorize`: filter, project, build, solve.

    Returns ``(solution, report)``. ``solution`` is (pixel count,
    channels): the leading ``dim`` basis coefficients of every pixel, or
    its spectrum when ``basis`` is None.
    """
    working = (
        edge_filter(clues, values, canny_low, canny_high)
        if apply_edge_filter
        else clues
    )
    if basis is not None:
        working = project(working, basis, dim)
    system = build_system(values, working)
    del working
    return solve(system, method=method, tol=tol, max_iter=max_iter)


def _finish(
    spectra, values, wavelengths, *, response_guide=None, alpha="auto",
) -> tuple[HyperCube, int]:
    """Second stage of :func:`colorize`: rescale and clamp.

    ``spectra`` is (pixel count, bands). The rescaled cube is clamped at
    zero in place. Returns the cube and its count of degenerate pixels.
    """
    scaled, degenerate = luminance_rescale(
        spectra.reshape(*values.shape, -1), values, response_guide=response_guide,
        alpha=alpha,
    )
    cube = HyperCube(np.maximum(scaled, 0.0, out=scaled), wavelengths)
    return cube, int(degenerate.sum())


@dataclass
class ColorizeResult:
    """Reconstruction plus its solver and rescale diagnostics."""

    cube: HyperCube
    residuals: tuple[float, ...]
    iterations: tuple[int, ...]
    solver_method: str
    dimension: int | None
    degenerate_pixels: int
    wall_ms: float


def colorize(
    guide,
    clues: ClueSet,
    basis: SpectralBasis | None = None,
    dim: int | None = None,
    *,
    apply_edge_filter: bool = True,
    response_guide=None,
    rescale_alpha="auto",
    method: str = "auto",
    tol: float = 1e-7,
    max_iter: int = 10_000,
    canny_low: float = 70.0,
    canny_high: float = 90.0,
) -> ColorizeResult:
    """Reconstruct a dense cube from a guide image and sparse clues.

    Parameters
    ----------
    guide : GuideImage or 2-d array
        Grayscale scene the affinities and the brightness rescale follow.
    clues : ClueSet
        Sparse (possibly noisy) spectra.
    basis : SpectralBasis, optional
        When given, clues are projected into its leading ``dim``
        directions, channels are solved there, and the result is mapped
        back to spectra.
    dim : int, optional
        Number of basis directions to keep; requires ``basis``.
    apply_edge_filter : bool
        Pre-filter clues toward their off-edge neighborhoods first.
    response_guide : SpectralResponse or array, optional
        Guide response used by the brightness rescale; default flat.
    rescale_alpha : float or "auto"
        Scale of the brightness rescale.
    method, tol, max_iter : solver controls, see :func:`solve`.
    canny_low, canny_high : float
        Percentile hysteresis thresholds for the edge detector.

    Returns
    -------
    ColorizeResult
        The clamped nonnegative cube plus solver diagnostics.
    """
    start = time.perf_counter()
    values = _guide_values(guide)
    if dim is not None and basis is None:
        raise ValidationError("dim was given without a basis")
    solution, report = _solve_coefficients(
        values, clues, basis, dim, apply_edge_filter=apply_edge_filter,
        canny_low=canny_low, canny_high=canny_high,
        method=method, tol=tol, max_iter=max_iter,
    )
    # dropping the coefficients before the rescale allocates its output
    # keeps the peak memory down
    spectra = unproject(solution, basis) if basis is not None else solution
    del solution
    cube, degenerate_pixels = _finish(
        spectra, values, clues.wavelengths, response_guide=response_guide,
        alpha=rescale_alpha,
    )
    wall_ms = (time.perf_counter() - start) * 1e3
    return ColorizeResult(
        cube=cube,
        residuals=report.residuals,
        iterations=report.iterations,
        solver_method=report.method,
        dimension=dim if basis is not None else None,
        degenerate_pixels=degenerate_pixels,
        wall_ms=wall_ms,
    )
