"""Reconstruction quality metrics and their report container.

All metrics compare a reconstruction against ground truth and reduce to a
single scalar. Spatial quality comes from PSNR and mean SSIM, which
equals the four-blur formula within rounding; spectral quality from
per-pixel cosine similarity, a combined RMSE/correlation score, and the
earth mover's distance between normalized spectra.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._filters import gaussian_kernel_1d
from .core import HyperCube, _as_float
from .errors import ValidationError

__all__ = [
    "CSV_COLUMNS",
    "MetricReport",
    "psnr",
    "ssim",
    "gfc",
    "ssv",
    "emd",
    "evaluate",
]

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
# output rows and columns one tap-matrix product blurs: the banded matrices
# multiply few zeros (14 or 26 taps for 11), yet each spans every band
_SSIM_TILE_ROWS = 4
_SSIM_BLOCK_COLS = 16
_MASS_FLOOR = 1e-12
# the smallest norm whose square cannot underflow
_GFC_SMALL_NORM = math.sqrt(np.finfo(float).tiny)
# pixels per block of the per-pixel spectral metrics
_BLOCK_PIXELS = 4096
# largest magnitude a scored value may have: SSIM multiplies second
# moments, so its terms grow as the fourth power of the values, and below
# this bound they, ``a*a + b*b`` and every squared difference stay finite
_MAX_MAGNITUDE = 1e75

CSV_COLUMNS = ("psnr", "ssim", "gfc", "ssv", "emd", "wall_ms")


# Each public metric validates its pair through _paired_arrays and scores
# it with a private helper that takes the checked arrays; evaluate checks
# once and calls the helpers directly.


def _paired_arrays(truth, recon):
    t, r = (a.data if isinstance(a, HyperCube) else _as_float(a, name)
            for a, name in ((truth, "truth"), (recon, "reconstruction")))
    if t.shape != r.shape:
        raise ValidationError(
            f"truth shape {t.shape} does not match reconstruction {r.shape}"
        )
    if t.size == 0:
        raise ValidationError(f"metrics need non-empty inputs, got shape {t.shape}")
    for a in (t, r):
        # NaN fails both comparisons
        if not (-_MAX_MAGNITUDE <= a.min() and a.max() <= _MAX_MAGNITUDE):
            raise ValidationError(
                f"metrics require finite inputs of magnitude at most {_MAX_MAGNITUDE:g}"
            )
    return t, r


def _spectra(t, r):
    """(pixels, bands) views of a checked pair of 3-d arrays."""
    if t.ndim != 3:
        raise ValidationError(f"expected 3-d arrays, got shape {t.shape}")
    bands = t.shape[2]
    if bands < 2:
        raise ValidationError("spectral metrics need at least 2 bands")
    return t.reshape(-1, bands), r.reshape(-1, bands)


def psnr(truth, recon) -> float:
    """Peak signal-to-noise ratio in dB, peak taken from the truth.

    A perfect reconstruction returns ``inf``; any other pair scores a
    finite value, also where ``peak**2 / mse`` leaves float64's range.
    """
    return _psnr(*_paired_arrays(truth, recon))


def _psnr(t, r) -> float:
    peak = float(t.max())
    if peak <= 0:
        raise ValidationError("PSNR needs a positive truth peak")
    diff = t - r
    mse = float(np.mean(np.square(diff, out=diff)))
    if mse > 0 and 0 < peak * peak / mse < math.inf:
        return 10.0 * math.log10(peak * peak / mse)
    if np.array_equal(t, r):
        return math.inf
    # the squared errors or the ratio left float64's range: score the
    # errors scaled by the largest, whose logarithms still fit
    gap = float(np.max(np.abs(t - r)))
    scaled = float(np.mean(np.square((t - r) / gap)))
    return 20.0 * (math.log10(peak) - math.log10(gap)) - 10.0 * math.log10(scaled)


def ssim(truth, recon) -> float:
    """Mean structural similarity over valid 11x11 Gaussian windows.

    The window is a unit-sum Gaussian with sigma 1.5; only windows fully
    inside the image count, and the dynamic range constant comes from the
    truth peak. 3-d inputs are averaged band by band.

    Each band's local means and second moments come from four separable
    blurs: of the truth, of the reconstruction, of ``a*a + b*b`` (the
    variance denominator needs only the sum) and of ``a*b``. Each pass is
    a BLAS product with a banded matrix of the taps, so the score equals
    that four-blur formula within rounding, whatever the thread count.
    """
    return _ssim(*_paired_arrays(truth, recon))


def _ssim(t, r) -> float:
    if t.ndim == 2:
        t = t[:, :, None]
        r = r[:, :, None]
    elif t.ndim != 3:
        raise ValidationError(f"ssim expects 2-d or 3-d arrays, got shape {t.shape}")
    if t.shape[0] < _SSIM_WINDOW or t.shape[1] < _SSIM_WINDOW:
        raise ValidationError(
            f"ssim needs spatial extent of at least {_SSIM_WINDOW}, got {t.shape[:2]}"
        )
    peak = float(t.max())
    if peak <= 0:
        raise ValidationError("SSIM needs a positive truth peak")
    c1 = (_SSIM_K1 * peak) ** 2
    c2 = (_SSIM_K2 * peak) ** 2
    windows = (t.shape[0] - _SSIM_WINDOW + 1) * (t.shape[1] - _SSIM_WINDOW + 1)
    return float(np.mean(_ssim_band_sums(t, r, c1, c2) / windows))


def _ssim_band_sums(t, r, c1, c2) -> np.ndarray:
    """Each band's SSIM map of a band-last ``(H, W, bands)`` pair, summed.

    The map is made a tile of output rows at a time: each of its four maps
    is blurred down the rows by one tap-matrix product over all columns and
    bands, then across by one batched product over blocks of columns. The
    maps ``a*a + b*b`` and ``a*b`` are formed for each tile's rows and halo.
    """
    kernel = gaussian_kernel_1d(_SSIM_SIGMA, _SSIM_WINDOW // 2)
    halo = kernel.size - 1
    height, width, bands = t.shape
    valid_h, valid_w = height - halo, width - halo
    tile = min(_SSIM_TILE_ROWS, valid_h)
    block = min(_SSIM_BLOCK_COLS, valid_w)
    down = _tap_matrix(kernel, tile).T
    across = _tap_matrix(kernel, block).T
    a_rows, b_rows = t.reshape(height, -1), r.reshape(height, -1)
    # a*a + b*b and a*b of a tile's rows and halo
    sq_rows, cross_rows = np.empty((2, tile + halo, width * bands))
    # per map: blurred down the rows as (column, band, tile row), then
    # across the columns as (band, tile row, column)
    along_rows = np.empty((4, width, bands * tile))
    moments = np.empty((4, bands * tile, valid_w))
    mu_aa, mu_bb = np.empty((2, bands * tile, valid_w))
    blocks = sliding_window_view(along_rows, block + halo, axis=1)
    whole = valid_w - valid_w % block
    whole_out = moments[:, :, :whole].reshape(4, -1, whole // block, block).transpose(0, 2, 1, 3)
    sums = np.zeros(bands)
    for top in range(0, valid_h, tile):
        # a short last tile moves up to end at the last row; the rows the
        # tile before it scored are not summed again
        scored = max(0, top + tile - valid_h)
        top -= scored
        rows = slice(top, top + tile + halo)
        a, b = a_rows[rows], b_rows[rows]
        np.multiply(a, a, out=sq_rows)
        np.multiply(b, b, out=cross_rows)
        np.add(sq_rows, cross_rows, out=sq_rows)
        np.multiply(a, b, out=cross_rows)
        for source, out in zip((a, b, sq_rows, cross_rows), along_rows):
            np.matmul(source.T, down, out=out.reshape(-1, tile))
        np.matmul(blocks[:, :whole:block], across, out=whole_out)
        if whole < valid_w:
            np.matmul(blocks[:, valid_w - block], across, out=moments[:, :, valid_w - block :])
        mu_a, mu_b, sum_sq, cross = moments
        np.multiply(mu_a, mu_a, out=mu_aa)
        np.multiply(mu_b, mu_b, out=mu_bb)
        mu_ab = np.multiply(mu_a, mu_b, out=mu_b)
        var_sum = np.subtract(sum_sq, mu_aa, out=sum_sq)
        np.subtract(var_sum, mu_bb, out=var_sum)
        cov = np.subtract(cross, mu_ab, out=cross)
        # (mu_aa + mu_bb + c1) * (var_sum + c2)
        denom = np.add(mu_aa, mu_bb, out=mu_a)
        np.add(denom, c1, out=denom)
        np.add(var_sum, c2, out=var_sum)
        np.multiply(denom, var_sum, out=denom)
        # (2 * mu_ab + c1) * (2 * cov + c2)
        numer = np.multiply(mu_ab, 2, out=mu_ab)
        np.add(numer, c1, out=numer)
        np.multiply(cov, 2, out=cov)
        np.add(cov, c2, out=cov)
        np.multiply(numer, cov, out=numer)
        ssim_map = np.divide(numer, denom, out=numer).reshape(bands, tile, valid_w)
        sums += ssim_map[:, scored:].sum(axis=(1, 2))
    return sums


def _tap_matrix(kernel, n) -> np.ndarray:
    """The ``(n, n + kernel.size - 1)`` matrix whose product with ``n``
    rows and their halo correlates them with ``kernel``."""
    return np.array([np.roll(np.pad(kernel, (0, n - 1)), i) for i in range(n)])


def _per_pixel(t, r, score) -> np.ndarray:
    """``score`` of every pixel's spectrum pair of a checked pair, flat.

    ``score`` maps (pixels, bands) truth and reconstruction blocks to one
    value per pixel; it runs over blocks of a few thousand pixels so its
    temporaries stay small whatever the cube size.
    """
    t, r = _spectra(t, r)
    values = np.empty(t.shape[0])
    for start in range(0, t.shape[0], _BLOCK_PIXELS):
        block = slice(start, start + _BLOCK_PIXELS)
        values[block] = score(t[block], r[block])
    return values


def _cosines(t, r):
    """(absolute cosine, truth norm, reconstruction norm) per pixel; the
    cosine is 0 where either norm is."""
    norm_t = np.linalg.norm(t, axis=1)
    norm_r = np.linalg.norm(r, axis=1)
    denom = norm_t * norm_r
    dots = np.abs(np.einsum("ij,ij->i", t, r))
    scores = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
    return scores, norm_t, norm_r


def _gfc_block(t, r):
    """Absolute cosine per pixel; NaN where the truth spectrum is zero.

    A norm below ``_GFC_SMALL_NORM`` may have lost squared entries that
    underflowed, so a pixel with such a norm and a nonzero truth is scored
    again with each spectrum divided by its largest magnitude.
    """
    scores, norm_t, norm_r = _cosines(t, r)
    defined = norm_t > 0
    small = np.flatnonzero(np.minimum(norm_t, norm_r) < _GFC_SMALL_NORM)
    small = small[np.any(t[small] != 0, axis=1)]
    if small.size:
        t, r = t[small], r[small]
        peak_r = np.abs(r).max(axis=1, keepdims=True)
        scores[small] = _cosines(
            t / np.abs(t).max(axis=1, keepdims=True),
            r / np.where(peak_r > 0, peak_r, 1.0),
        )[0]
        defined[small] = True
    return np.where(defined, scores, np.nan)


def gfc(truth, recon) -> float:
    """Mean absolute cosine similarity between per-pixel spectra.

    Pixels whose truth spectrum is all zero are excluded; an all-zero
    reconstruction against a nonzero truth scores 0 at that pixel. The
    cosine does not depend on scale, so spectra too small to square
    (a truth of 1e-300, say) score as they would scaled up.
    """
    return _gfc(*_paired_arrays(truth, recon))


def _gfc(t, r) -> float:
    values = _per_pixel(t, r, _gfc_block)
    scores = values[~np.isnan(values)]
    if scores.size == 0:
        raise ValidationError("GFC is undefined for an all-zero truth")
    return float(scores.mean())


def _ssv_block(t, r):
    diff = t - r
    rmse_sq = np.mean(diff * diff, axis=1)

    t_c = t - t.mean(axis=1, keepdims=True)
    r_c = r - r.mean(axis=1, keepdims=True)
    spread_t = np.linalg.norm(t_c, axis=1)
    spread_r = np.linalg.norm(r_c, axis=1)
    both = (spread_t > 0) & (spread_r > 0)
    pairs = np.einsum("ij,ij->i", t_c, r_c)
    spread = np.where(both, spread_t * spread_r, 1.0)
    corr = np.where(both, np.clip(pairs / spread, -1.0, 1.0), 1.0)
    return np.sqrt(rmse_sq + (1.0 - corr * corr))


def ssv(truth, recon) -> float:
    """Mean combined spectral score: sqrt(RMSE^2 + (1 - r^2)) per pixel.

    RMSE runs over the bands of one pixel and r is the Pearson correlation
    between the two spectra; a constant spectrum on either side drops the
    correlation penalty (r is taken as 1). Lower is better, 0 is exact.
    """
    return _ssv(*_paired_arrays(truth, recon))


def _ssv(t, r) -> float:
    return float(np.mean(_per_pixel(t, r, _ssv_block)))


def _emd_block(t, r):
    bands = t.shape[1]
    t = np.clip(t, 0.0, None)
    r = np.clip(r, 0.0, None)
    mass_t = t.sum(axis=1)
    mass_r = r.sum(axis=1)
    valid = (mass_t >= _MASS_FLOOR) & (mass_r >= _MASS_FLOOR)
    p = t / np.where(valid, mass_t, 1.0)[:, None]
    q = r / np.where(valid, mass_r, 1.0)[:, None]
    cdf_gap = np.cumsum(p - q, axis=1)
    return np.where(valid, np.abs(cdf_gap).sum(axis=1) / (bands - 1), np.nan)


def emd(truth, recon) -> float:
    """Mean earth mover's distance between unit-mass per-pixel spectra.

    Spectra are clamped nonnegative and normalized to unit sum; pixels
    where either side has mass below 1e-12 are skipped. The distance is
    the summed absolute CDF difference divided by (bands - 1), so moving
    all mass across the full spectral axis costs 1.
    """
    return _emd(*_paired_arrays(truth, recon))


def _emd(t, r) -> float:
    return _emd_mean(_per_pixel(t, r, _emd_block))


def _emd_mean(values) -> float:
    """Mean of the per-pixel distances, skipped (NaN) pixels left out."""
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise ValidationError("EMD found no pixel with usable mass on both sides")
    return float(finite.mean())


@dataclass(frozen=True)
class MetricReport:
    """One reconstruction's scores.

    ``to_dict`` is the one serialized form: JSON reports embed it and CSV
    rows take their metric cells from it. ``wall_ms``, the time the scores
    took, serializes as 0.0 unless timing is explicitly included, so
    written reports stay byte-identical across runs.
    """

    psnr_db: float
    ssim: float
    gfc: float
    ssv: float
    emd: float
    wall_ms: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        def encode(value):
            value = float(value)
            return "inf" if math.isinf(value) else value

        out = {
            field: encode(getattr(self, field))
            for field in ("psnr_db", "ssim", "gfc", "ssv", "emd")
        }
        out["wall_ms"] = float(self.wall_ms) if include_timing else 0.0
        return out


def _metric_cells(metrics: dict) -> list:
    """A ``to_dict`` payload's values in ``CSV_COLUMNS`` order.

    The CSV column for PSNR drops the unit suffix of its field name.
    """
    return [metrics["psnr_db" if column == "psnr" else column] for column in CSV_COLUMNS]


def evaluate(truth, recon) -> MetricReport:
    """All five metrics of a reconstruction against its ground truth.

    The pair is validated once, then scored by each metric in turn. The
    report's ``wall_ms`` is the time this took.
    """
    return _evaluate_with_emd_values(truth, recon)[0]


def _evaluate_with_emd_values(truth, recon):
    """``evaluate``'s report and the flat per-pixel EMD values it averaged."""
    start = time.perf_counter()
    t, r = _paired_arrays(truth, recon)
    emd_values = _per_pixel(t, r, _emd_block)
    report = MetricReport(
        psnr_db=_psnr(t, r),
        ssim=_ssim(t, r),
        gfc=_gfc(t, r),
        ssv=_ssv(t, r),
        emd=_emd_mean(emd_values),
        wall_ms=(time.perf_counter() - start) * 1e3,
    )
    return report, emd_values
