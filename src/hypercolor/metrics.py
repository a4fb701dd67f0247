"""Reconstruction quality metrics and their report container.

All metrics compare a reconstruction against ground truth and reduce to a
single scalar. Spatial quality comes from PSNR and mean SSIM; spectral
quality from per-pixel cosine similarity, a combined RMSE/correlation
score, and the earth mover's distance between normalized spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._filters import gaussian_kernel_1d
from .core import HyperCube
from .errors import ValidationError

__all__ = [
    "CSV_COLUMNS",
    "MetricReport",
    "psnr",
    "ssim",
    "gfc",
    "ssv",
    "emd",
    "emd_map",
    "evaluate",
]

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_SSIM_BLOCK_BANDS = 8
# bytes of one stacked tile of the four maps: small enough that a blur
# step's operands stay in a core's L2 cache, large enough that numpy's
# per-call cost stays small beside the arithmetic
_SSIM_TILE_BYTES = 384 * 1024
# tiles per window of formed input rows; each refill copies the halo rows
_SSIM_WINDOW_TILES = 4
_MASS_FLOOR = 1e-12
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
    t = truth.data if isinstance(truth, HyperCube) else np.asarray(truth, dtype=np.float64)
    r = recon.data if isinstance(recon, HyperCube) else np.asarray(recon, dtype=np.float64)
    if t.shape != r.shape:
        raise ValidationError(
            f"truth shape {t.shape} does not match reconstruction {r.shape}"
        )
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

    A perfect reconstruction returns ``inf``.
    """
    return _psnr(*_paired_arrays(truth, recon))


def _psnr(t, r) -> float:
    peak = float(t.max())
    if peak <= 0:
        raise ValidationError("PSNR needs a positive truth peak")
    diff = t - r
    mse = float(np.mean(np.square(diff, out=diff)))
    if mse == 0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def ssim(truth, recon) -> float:
    """Mean structural similarity over valid 11x11 Gaussian windows.

    The window is a unit-sum Gaussian with sigma 1.5; only windows fully
    inside the image count, and the dynamic range constant comes from the
    truth peak. 3-d inputs are averaged band by band.

    Each band's local means and second moments come from four separable
    blurs: of the truth, of the reconstruction, of ``a*a + b*b`` (the
    variance denominator needs only the sum) and of ``a*b``. The blurs run
    in blocks of 8 bands over row tiles of the band-last arrays, one
    vectorized shift-and-add per tap, and evaluate only the valid windows.
    They add the taps in the order ``scipy.ndimage.correlate1d`` does, rows
    first and then columns, and each band's map is averaged in the order of
    a full-size map's interior view, so the score equals that four-blur
    ``correlate1d`` formula bit for bit.
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
    kernel = gaussian_kernel_1d(_SSIM_SIGMA, _SSIM_WINDOW // 2)
    scores = []
    for start in range(0, t.shape[2], _SSIM_BLOCK_BANDS):
        block = slice(start, start + _SSIM_BLOCK_BANDS)
        scores.extend(_ssim_band_means(t[:, :, block], r[:, :, block], kernel, c1, c2))
    return float(np.mean(scores))


def _ssim_band_means(t, r, kernel, c1, c2) -> list:
    """Mean SSIM of each band of a band-last ``(H, W, bands)`` pair.

    The four maps of a tile of output rows and its halo sit stacked in one
    array, so each blur step is one numpy call for all of them. The maps
    of each input row are formed once: a window holds several tiles, and
    when it is full its last halo rows move to its top.
    """
    margin = kernel.size // 2
    halo = 2 * margin
    height, width, bands = t.shape
    valid_h, valid_w = height - halo, width - halo
    rows = max(1, min(valid_h, _SSIM_TILE_BYTES // (4 * width * bands * 8)))
    span = min(valid_h, max(_SSIM_WINDOW_TILES * rows, halo))
    window = np.empty((4, span + halo, width, bands))
    down = np.empty((4, rows, width, bands))
    moments = np.empty((4, rows, valid_w, bands))
    scratch = np.empty(down.size)
    # numpy sums a contiguous array in one pairwise pass but a row-strided
    # view row by row; a spare column per row keeps each band's map the
    # row-strided view that a full-size map's interior is
    maps = np.empty((bands, valid_h, valid_w + 1))
    _ssim_inputs(t[:halo], r[:halo], window[:, :halo])
    start = 0  # the output row whose window begins at window row 0
    for top in range(0, valid_h, rows):
        n = min(rows, valid_h - top)
        if top + n > start + span:
            window[:, :halo] = window[:, top - start : top - start + halo]
            start = top
        at = top - start
        fresh = slice(top + halo, top + halo + n)
        _ssim_inputs(t[fresh], r[fresh], window[:, at + halo : at + halo + n])
        along_rows = _blur_valid(window[:, at : at + halo + n], down[:, :n], scratch, kernel, 1)
        mu_a, mu_b, sum_sq, cross = _blur_valid(along_rows, moments[:, :n], scratch, kernel, 2)
        mu_aa, mu_bb = scratch[: 2 * mu_a.size].reshape((2,) + mu_a.shape)
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
        np.divide(numer, denom, out=maps[:, top : top + n, :valid_w].transpose(1, 2, 0))
    return [float(maps[band, :, :valid_w].mean()) for band in range(bands)]


def _ssim_inputs(a, b, out):
    """Stack ``a``, ``b``, ``a*a + b*b`` and ``a*b`` into ``out``."""
    out[0] = a
    out[1] = b
    np.multiply(out[:2], out[:2], out=out[2:])
    np.add(out[2], out[3], out=out[2])
    np.multiply(out[0], out[1], out=out[3])


def _blur_valid(src, out, scratch, kernel, axis):
    """``correlate1d`` of ``src`` along ``axis`` with a symmetric kernel,
    at the positions whose window lies inside ``src``.

    Like ``scipy.ndimage.correlate1d``, each output is the centre tap's
    product plus ``(x[i - j] + x[i + j]) * w[j]`` for j from the kernel
    radius down to 1, so the valid part equals its result bit for bit.
    ``scratch`` is a flat buffer of at least ``out.size`` elements.
    """
    margin = kernel.size // 2
    n = out.shape[axis]
    scratch = scratch[: out.size].reshape(out.shape)
    lead = (slice(None),) * axis

    def tap(offset):
        return src[lead + (slice(margin + offset, margin + offset + n),)]

    np.multiply(tap(0), kernel[margin], out=out)
    for j in range(margin, 0, -1):
        np.add(tap(-j), tap(j), out=scratch)
        np.multiply(scratch, kernel[margin - j], out=scratch)
        np.add(out, scratch, out=out)
    return out


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


def _gfc_block(t, r):
    """Absolute cosine per pixel; NaN where the truth spectrum is zero."""
    norm_t = np.linalg.norm(t, axis=1)
    norm_r = np.linalg.norm(r, axis=1)
    valid = norm_t > 0
    dots = np.abs(np.einsum("ij,ij->i", t[valid], r[valid]))
    denom = norm_t[valid] * norm_r[valid]
    values = np.full(t.shape[0], np.nan)
    values[valid] = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
    return values


def gfc(truth, recon) -> float:
    """Mean absolute cosine similarity between per-pixel spectra.

    Pixels whose truth spectrum has zero norm are excluded; a zero-norm
    reconstruction against a nonzero truth scores 0 at that pixel.
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
    corr = np.ones(t.shape[0])
    pairs = np.einsum("ij,ij->i", t_c[both], r_c[both])
    corr[both] = np.clip(pairs / (spread_t[both] * spread_r[both]), -1.0, 1.0)
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
    values = np.full(t.shape[0], np.nan)
    if valid.any():
        p = t[valid] / mass_t[valid, None]
        q = r[valid] / mass_r[valid, None]
        cdf_gap = np.cumsum(p - q, axis=1)
        values[valid] = np.abs(cdf_gap).sum(axis=1) / (bands - 1)
    return values


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


def emd_map(truth, recon) -> np.ndarray:
    """Per-pixel earth mover's distances as an image; skipped pixels are NaN.

    Same conventions as :func:`emd`; feeds distribution plots of spatial
    error structure.
    """
    t, r = _paired_arrays(truth, recon)
    return _per_pixel(t, r, _emd_block).reshape(t.shape[0], t.shape[1])


@dataclass(frozen=True)
class MetricReport:
    """One reconstruction's scores.

    ``to_dict`` is the one serialized form: JSON reports embed it and CSV
    rows take their metric cells from it. ``wall_ms`` is carried for
    inspection but serializes as 0.0 unless timing is explicitly included,
    so written reports stay byte-identical across runs.
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

    The pair is validated once, then scored by each metric in turn.
    """
    return _evaluate_with_emd_values(truth, recon)[0]


def _evaluate_with_emd_values(truth, recon):
    """``evaluate``'s report and the flat per-pixel EMD values it averaged."""
    t, r = _paired_arrays(truth, recon)
    emd_values = _per_pixel(t, r, _emd_block)
    report = MetricReport(
        psnr_db=_psnr(t, r),
        ssim=_ssim(t, r),
        gfc=_gfc(t, r),
        ssv=_ssv(t, r),
        emd=_emd_mean(emd_values),
    )
    return report, emd_values
