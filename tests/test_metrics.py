import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.stats import wasserstein_distance

from conftest import random_cube
from hypercolor import (
    CSV_COLUMNS,
    MetricReport,
    ValidationError,
    emd,
    evaluate,
    gfc,
    psnr,
    ssim,
    ssv,
)
from hypercolor import metrics
from hypercolor.formats import _csv_text
from hypercolor.metrics import _evaluate_with_emd_values


def emd_values(truth, recon):
    """Per-pixel EMD, flat, by the path ``_evaluate_with_emd_values`` takes;
    it holds on pairs too small for SSIM."""
    return metrics._per_pixel(*metrics._paired_arrays(truth, recon), metrics._emd_block)


def ssim_oracle(truth, recon, peak=None):
    """Direct windowed SSIM: explicit 11x11 Gaussian sums per position."""
    offsets = np.arange(-5, 6, dtype=np.float64)
    taps = np.exp(-(offsets**2) / (2.0 * 1.5**2))
    taps /= taps.sum()
    window = np.outer(taps, taps)
    peak = truth.max() if peak is None else peak
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    height, width = truth.shape
    scores = []
    for i in range(5, height - 5):
        for j in range(5, width - 5):
            a = truth[i - 5 : i + 6, j - 5 : j + 6]
            b = recon[i - 5 : i + 6, j - 5 : j + 6]
            mu_a = (window * a).sum()
            mu_b = (window * b).sum()
            var_a = (window * a * a).sum() - mu_a * mu_a
            var_b = (window * b * b).sum() - mu_b * mu_b
            cov = (window * a * b).sum() - mu_a * mu_b
            scores.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(scores))


def ssim_five_blur(truth, recon):
    """Textbook SSIM: one separable blur each for mu_a, mu_b, E[a^2],
    E[b^2] and E[ab]."""
    taps = np.exp(-(np.arange(-5, 6) ** 2) / (2.0 * 1.5**2))
    taps /= taps.sum()

    def blur(image):
        out = ndimage.correlate1d(image, taps, axis=0, mode="constant")
        return ndimage.correlate1d(out, taps, axis=1, mode="constant")

    if truth.ndim == 2:
        truth, recon = truth[:, :, None], recon[:, :, None]
    peak = truth.max()
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    scores = []
    for band in range(truth.shape[2]):
        a, b = truth[:, :, band], recon[:, :, band]
        mu_a, mu_b = blur(a), blur(b)
        var_a = blur(a * a) - mu_a * mu_a
        var_b = blur(b * b) - mu_b * mu_b
        cov = blur(a * b) - mu_a * mu_b
        ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
            (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        )
        scores.append(ssim_map[5:-5, 5:-5].mean())
    return float(np.mean(scores))


def ssim_four_blur(truth, recon):
    """SSIM from four separable ndimage blurs per band: of the truth, the
    reconstruction, the summed squares and the cross product. ``ssim``
    must equal it within rounding."""
    taps = np.exp(-(np.arange(-5.0, 6.0) ** 2) / (2.0 * 1.5 * 1.5))
    taps /= taps.sum()

    def blur(image):
        out = ndimage.correlate1d(image, taps, axis=0, mode="constant")
        return ndimage.correlate1d(out, taps, axis=1, mode="constant")

    if truth.ndim == 2:
        truth, recon = truth[:, :, None], recon[:, :, None]
    peak = float(truth.max())
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    scores = []
    for band in range(truth.shape[2]):
        a, b = truth[:, :, band], recon[:, :, band]
        mu_a, mu_b = blur(a), blur(b)
        mu_aa, mu_bb, mu_ab = mu_a * mu_a, mu_b * mu_b, mu_a * mu_b
        var_sum = blur(a * a + b * b) - mu_aa - mu_bb
        cov = blur(a * b) - mu_ab
        ssim_map = ((2 * mu_ab + c1) * (2 * cov + c2)) / (
            (mu_aa + mu_bb + c1) * (var_sum + c2)
        )
        scores.append(float(ssim_map[5:-5, 5:-5].mean()))
    return float(np.mean(scores))


def ssim_pair(shape, seed, exponent=0, noise=0.1):
    """A nonnegative truth of magnitude 10**exponent and a noisy copy."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    truth = rng.random(shape) * scale
    recon = np.clip(truth + rng.normal(0.0, noise * scale, shape), 0.0, None)
    return truth, recon


class TestPsnr:
    def test_closed_form_forty_db(self):
        truth = np.zeros((10, 10))
        truth[0, 0] = 1.0
        recon = truth + 0.01
        assert psnr(truth, recon) == pytest.approx(40.0, abs=1e-9)

    def test_perfect_match_is_inf(self):
        cube = random_cube(6, 6, 3)
        assert psnr(cube, cube) == math.inf

    def test_joint_scale_invariance(self):
        rng = np.random.default_rng(0)
        truth = rng.random((8, 8, 3))
        recon = truth + rng.normal(0, 0.05, truth.shape)
        assert psnr(2.0 * truth, 2.0 * recon) == psnr(truth, recon)

    def test_needs_positive_peak(self):
        with pytest.raises(ValidationError):
            psnr(np.zeros((4, 4)), np.ones((4, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            psnr(np.ones((4, 4)), np.ones((4, 5)))

    def test_rejects_non_finite(self):
        bad = np.ones((4, 4))
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            psnr(np.ones((4, 4)), bad)

    def test_ratio_that_underflows_scores_its_finite_value(self):
        # peak**2 / mse = 1e-600 / 1e140 is 0 in float64
        truth = np.full((12, 12, 4), 1e-300)
        recon = np.full((12, 12, 4), 1e70)
        assert psnr(truth, recon) == pytest.approx(-7400.0, abs=1e-9)
        # evaluate gets past PSNR and GFC; the truth's mass is below EMD's floor
        with pytest.raises(ValidationError, match="EMD"):
            evaluate(truth, recon)

    def test_ratio_that_overflows_is_not_a_perfect_score(self):
        # peak**2 / mse = 1e150 / ~1e-320 is inf in float64
        truth = np.zeros((12, 12, 4))
        truth[0, 0, 0] = 1e75
        recon = truth.copy()
        recon[1:] += 1e-160
        # 528 of the 576 values are off by 1e-160
        expected = 20.0 * (75 + 160) - 10.0 * math.log10(528 / 576)
        assert psnr(truth, recon) == pytest.approx(expected, abs=1e-9)
        assert evaluate(truth, recon).psnr_db == psnr(truth, recon)

    def test_squared_errors_that_underflow_are_not_a_perfect_score(self):
        # each squared error, 1e-400, is 0 in float64
        truth = np.full((12, 12, 4), 1e-200)
        assert psnr(truth, 2.0 * truth) == pytest.approx(0.0, abs=1e-9)


class TestSsim:
    def test_matches_direct_window_sums_2d(self):
        rng = np.random.default_rng(1)
        truth = rng.random((16, 16))
        recon = np.clip(truth + rng.normal(0, 0.1, truth.shape), 0, None)
        assert ssim(truth, recon) == pytest.approx(ssim_oracle(truth, recon), abs=1e-10)

    def test_matches_direct_window_sums_3d(self):
        rng = np.random.default_rng(2)
        truth = rng.random((14, 17, 3))
        recon = np.clip(truth + rng.normal(0, 0.08, truth.shape), 0, None)
        # the stabilizing constants use the global truth peak, not per band
        peak = truth.max()
        expected = np.mean(
            [ssim_oracle(truth[:, :, b], recon[:, :, b], peak=peak) for b in range(3)]
        )
        assert ssim(truth, recon) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("shape", [(40, 37), (33, 41, 5)])
    def test_matches_five_blur_formula(self, shape):
        rng = np.random.default_rng(4)
        truth = rng.random(shape)
        recon = np.clip(truth + rng.normal(0, 0.1, shape), 0, None)
        assert ssim(truth, recon) == pytest.approx(
            ssim_five_blur(truth, recon), rel=0, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        height=st.integers(11, 70),
        width=st.integers(11, 70),
        bands=st.one_of(st.none(), st.integers(1, 33)),
        exponent=st.integers(-6, 6),
        noise=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_four_blur_formula_within_rounding(
        self, height, width, bands, exponent, noise, seed
    ):
        shape = (height, width) if bands is None else (height, width, bands)
        truth, recon = ssim_pair(shape, seed, exponent, noise)
        assert ssim(truth, recon) == pytest.approx(
            ssim_four_blur(truth, recon), rel=0, abs=1e-12
        )

    # Thin images have one valid window row or column, or a single window.
    # The others end in a short tile of output rows and, at all but one
    # width, a short block of output columns; so does the paper's 1040x1392
    # frame (1030 = 4 * 257 + 2 rows, 1382 = 16 * 86 + 6 columns).
    @pytest.mark.parametrize(
        "shape",
        [(11, 11), (11, 40), (40, 11), (11, 11, 3), (11, 26, 9), (26, 11, 9),
         (11, 11, 33)] + [(256, width) for width in range(200, 208)]
        + [(11, 1392, 2), (1040, 11, 2)],
    )
    def test_pinned_pairs_equal_four_blur_formula(self, shape):
        truth, recon = ssim_pair(shape, seed=sum(shape))
        assert ssim(truth, recon) == pytest.approx(
            ssim_four_blur(truth, recon), rel=0, abs=1e-12
        )

    def test_bits_do_not_depend_on_blas_threads(self):
        # OpenBLAS runs the 64 x 64 x 31 products on one thread, but splits
        # a row product over the 1392 x 31 columns of the paper's frame
        code = (
            "from test_metrics import ssim_pair\n"
            "from hypercolor import ssim\n"
            "for shape in ((64, 64, 31), (11, 11), (16, 1392, 31)):\n"
            "    print(repr(ssim(*ssim_pair(shape, seed=sum(shape)))))\n"
        )
        path = os.pathsep.join(
            [str(Path(metrics.__file__).parents[1]), str(Path(__file__).parent)]
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0].count("\n") == 3
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("size", [128, 256])
    def test_working_set_stays_under_half_a_cube(self, size):
        truth, recon = ssim_pair((size, size, 31), seed=size)
        tracemalloc.start()
        try:
            ssim(truth, recon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * truth.nbytes + 4e6

    def test_identical_images_score_one(self):
        image = np.random.default_rng(3).random((12, 12))
        assert ssim(image, image) == 1.0

    def test_offset_lowers_score(self):
        image = np.random.default_rng(4).random((12, 12))
        assert ssim(image, image + 0.2) < 1.0

    def test_small_extent_rejected(self):
        with pytest.raises(ValidationError):
            ssim(np.ones((10, 12)), np.ones((10, 12)))


class TestGfc:
    def test_identical_spectra(self):
        cube = random_cube(5, 5, 4, seed=5)
        assert gfc(cube, cube) == pytest.approx(1.0, abs=1e-12)

    def test_per_pixel_scale_invariance(self):
        cube = random_cube(5, 5, 4, seed=6)
        doubled = 2.0 * cube.data
        assert gfc(cube.data, doubled) == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_ignored(self):
        cube = random_cube(5, 5, 4, seed=7)
        assert gfc(cube.data, -cube.data) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_spectra_score_zero(self):
        truth = np.zeros((1, 2, 2))
        recon = np.zeros((1, 2, 2))
        truth[0, :, 0] = 1.0
        recon[0, :, 1] = 1.0
        assert gfc(truth, recon) == 0.0

    def test_zero_truth_pixels_excluded(self):
        truth = np.zeros((1, 2, 3))
        truth[0, 0] = [1.0, 0.0, 0.0]
        recon = np.zeros((1, 2, 3))
        recon[0, 0] = [1.0, 0.0, 0.0]
        recon[0, 1] = [0.3, 0.3, 0.3]  # truth there is zero: skipped
        assert gfc(truth, recon) == pytest.approx(1.0, abs=1e-12)

    def test_zero_recon_scores_zero_at_pixel(self):
        truth = np.ones((1, 2, 3))
        recon = np.ones((1, 2, 3))
        recon[0, 1] = 0.0
        assert gfc(truth, recon) == pytest.approx(0.5, abs=1e-12)

    def test_all_zero_truth_rejected(self):
        with pytest.raises(ValidationError):
            gfc(np.zeros((2, 2, 3)), np.ones((2, 2, 3)))

    def test_truth_whose_squares_underflow_scores_its_cosine(self):
        # each squared truth value, 1e-600, is 0 in float64
        truth = np.full((12, 12, 4), 1e-300)
        assert gfc(truth, np.full((12, 12, 4), 1e70)) == 1.0

    def test_scaling_both_sides_below_the_square_range_keeps_the_score(self):
        rng = np.random.default_rng(0)
        truth, recon = rng.random((2, 12, 12, 4))
        assert gfc(truth * 1e-200, recon * 1e-200) == pytest.approx(
            gfc(truth, recon), rel=1e-14
        )

    def test_needs_two_bands(self):
        with pytest.raises(ValidationError):
            gfc(np.ones((2, 2, 1)), np.ones((2, 2, 1)))


class TestSsv:
    def test_exact_match_is_near_zero(self):
        # the ulp-level error of a self-correlation passes through a square
        # root, so identity lands around 1e-8 rather than exactly 0
        cube = random_cube(4, 4, 5, seed=8)
        assert ssv(cube, cube) == pytest.approx(0.0, abs=1e-7)

    def test_constant_offset_costs_only_rmse(self):
        truth = np.random.default_rng(9).random((3, 3, 4))
        assert ssv(truth, truth + 0.25) == pytest.approx(0.25, abs=1e-12)

    def test_uncorrelated_spectra_add_unit_penalty(self):
        truth = np.array([[[1.0, 0.0, 1.0, 0.0]]])
        recon = np.array([[[1.0, 1.0, 0.0, 0.0]]])
        assert ssv(truth, recon) == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_anticorrelation_is_not_penalized(self):
        # the penalty term uses r^2, so r = -1 counts as fully correlated
        truth = np.array([[[0.0, 1.0]]])
        recon = np.array([[[1.0, 0.0]]])
        assert ssv(truth, recon) == pytest.approx(1.0, abs=1e-12)

    def test_constant_spectrum_skips_correlation(self):
        truth = np.full((2, 2, 3), 0.5)
        recon = np.full((2, 2, 3), 0.6)
        assert ssv(truth, recon) == pytest.approx(0.1, abs=1e-12)


class TestEmd:
    def test_full_axis_shift_costs_one(self):
        truth = np.zeros((1, 1, 4))
        recon = np.zeros((1, 1, 4))
        truth[0, 0, 0] = 1.0
        recon[0, 0, 3] = 1.0
        assert emd(truth, recon) == 1.0

    def test_two_band_shift_on_four_bands(self):
        truth = np.zeros((1, 1, 4))
        recon = np.zeros((1, 1, 4))
        truth[0, 0, 0] = 1.0
        recon[0, 0, 2] = 1.0
        assert emd(truth, recon) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_matches_wasserstein_oracle(self):
        rng = np.random.default_rng(10)
        bands = 7
        positions = np.arange(bands, dtype=np.float64)
        truth = rng.random((4, 5, bands))
        recon = rng.random((4, 5, bands))
        expected = np.mean(
            [
                wasserstein_distance(positions, positions, t, r) / (bands - 1)
                for t, r in zip(truth.reshape(-1, bands), recon.reshape(-1, bands))
            ]
        )
        assert emd(truth, recon) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a = rng.random((3, 3, 5))
        b = rng.random((3, 3, 5))
        assert emd(a, b) == pytest.approx(emd(b, a), abs=1e-15)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(12)
        a, b, c = (rng.random((2, 2, 6)) for _ in range(3))
        assert emd(a, c) <= emd(a, b) + emd(b, c) + 1e-12

    def test_bounded_by_unit_interval(self):
        rng = np.random.default_rng(13)
        value = emd(rng.random((6, 6, 9)), rng.random((6, 6, 9)))
        assert 0.0 <= value <= 1.0

    def test_mass_normalization_ignores_scale(self):
        truth = np.array([[[0.2, 0.3, 0.5]]])
        assert emd(truth, 10.0 * truth) == 0.0

    def test_negative_values_clamp_before_normalizing(self):
        truth = np.array([[[1.0, 0.0]]])
        recon = np.array([[[2.0, -5.0]]])
        assert emd(truth, recon) == 0.0

    def test_low_mass_pixels_skipped(self):
        truth = np.zeros((1, 2, 3))
        recon = np.zeros((1, 2, 3))
        truth[0, 0] = [1.0, 0.0, 0.0]
        recon[0, 0] = [0.0, 1.0, 0.0]  # distance 0.5
        truth[0, 1] = [0.5, 0.5, 0.0]
        recon[0, 1] = [1e-15, 0.0, 0.0]  # recon side has no usable mass
        assert emd(truth, recon) == pytest.approx(0.5, abs=1e-15)
        gaps = emd_values(truth, recon)
        assert gaps.shape == (2,)
        assert gaps[0] == pytest.approx(0.5)
        assert np.isnan(gaps[1])

    def test_all_pixels_skipped_rejected(self):
        with pytest.raises(ValidationError):
            emd(np.zeros((2, 2, 3)), np.ones((2, 2, 3)))

    def test_per_pixel_mean_matches_scalar(self):
        rng = np.random.default_rng(14)
        truth = rng.random((5, 4, 6))
        recon = rng.random((5, 4, 6))
        assert np.nanmean(emd_values(truth, recon)) == pytest.approx(
            emd(truth, recon), abs=1e-14
        )


class TestBlockedSpectralMetrics:
    """The per-pixel metrics run over pixel blocks; a cube spanning more
    than one block must score exactly as the whole-array formulas do. The
    pair's first block mixes skipped pixels with scored ones, and its
    second block has none to skip."""

    def pair(self):
        rng = np.random.default_rng(15)
        truth = rng.random((70, 70, 8))
        recon = truth + rng.normal(0.0, 0.2, truth.shape)
        truth[3, 4] = 0.0
        recon[5, 6] = 0.0
        recon[7, 8] = np.linspace(0.2, 0.2, 8)
        return truth, recon

    def test_gfc_matches_whole_array_formula(self):
        truth, recon = self.pair()
        t, r = truth.reshape(-1, 8), recon.reshape(-1, 8)
        norm_t = np.linalg.norm(t, axis=1)
        norm_r = np.linalg.norm(r, axis=1)
        valid = norm_t > 0
        dots = np.abs(np.einsum("ij,ij->i", t[valid], r[valid]))
        denom = norm_t[valid] * norm_r[valid]
        scores = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
        assert gfc(truth, recon) == float(scores.mean())

    def test_ssv_matches_whole_array_formula(self):
        truth, recon = self.pair()
        t, r = truth.reshape(-1, 8), recon.reshape(-1, 8)
        rmse_sq = np.mean((t - r) * (t - r), axis=1)
        t_c = t - t.mean(axis=1, keepdims=True)
        r_c = r - r.mean(axis=1, keepdims=True)
        spread_t = np.linalg.norm(t_c, axis=1)
        spread_r = np.linalg.norm(r_c, axis=1)
        both = (spread_t > 0) & (spread_r > 0)
        corr = np.ones(t.shape[0])
        pairs = np.einsum("ij,ij->i", t_c[both], r_c[both])
        corr[both] = np.clip(pairs / (spread_t[both] * spread_r[both]), -1.0, 1.0)
        expected = float(np.mean(np.sqrt(rmse_sq + (1.0 - corr * corr))))
        assert ssv(truth, recon) == expected

    def test_emd_matches_whole_array_formula(self):
        truth, recon = self.pair()
        t = np.clip(truth.reshape(-1, 8), 0.0, None)
        r = np.clip(recon.reshape(-1, 8), 0.0, None)
        mass_t, mass_r = t.sum(axis=1), r.sum(axis=1)
        valid = (mass_t >= 1e-12) & (mass_r >= 1e-12)
        values = np.full(t.shape[0], np.nan)
        gap = np.cumsum(t[valid] / mass_t[valid, None] - r[valid] / mass_r[valid, None], axis=1)
        values[valid] = np.abs(gap).sum(axis=1) / 7
        report, per_pixel = _evaluate_with_emd_values(truth, recon)
        assert np.array_equal(per_pixel, values, equal_nan=True)
        assert emd(truth, recon) == report.emd == float(values[valid].mean())


class TestMonotoneDegradation:
    def test_every_metric_orders_noise_levels(self):
        truth = random_cube(16, 16, 5, seed=15)
        rng = np.random.default_rng(16)
        noise = rng.normal(0.0, 1.0, truth.data.shape)
        reports = [
            evaluate(truth, np.clip(truth.data + sigma * noise, 0.0, None))
            for sigma in (1e-3, 1e-2, 1e-1)
        ]
        assert reports[0].psnr_db > reports[1].psnr_db > reports[2].psnr_db
        assert reports[0].ssim > reports[1].ssim > reports[2].ssim
        assert reports[0].gfc > reports[1].gfc > reports[2].gfc
        assert reports[0].ssv < reports[1].ssv < reports[2].ssv
        assert reports[0].emd < reports[1].emd < reports[2].emd


def csv_lines(report, include_timing=False):
    """The CSV header and row the reports write for ``report``."""
    cells = metrics._metric_cells(report.to_dict(include_timing))
    return _csv_text(CSV_COLUMNS, [cells]).splitlines()


class TestMetricReport:
    def sample(self, **overrides):
        values = dict(psnr_db=40.0, ssim=0.5, gfc=0.25, ssv=1.5, emd=0.125,
                      wall_ms=7.0)
        values.update(overrides)
        return MetricReport(**values)

    def test_csv_header_is_pinned(self):
        assert csv_lines(self.sample())[0] == "psnr,ssim,gfc,ssv,emd,wall_ms"
        assert CSV_COLUMNS == ("psnr", "ssim", "gfc", "ssv", "emd", "wall_ms")

    def test_csv_row_zeroes_timing_by_default(self):
        assert csv_lines(self.sample())[1] == "40.0,0.5,0.25,1.5,0.125,0.0"

    def test_csv_row_with_timing(self):
        assert csv_lines(self.sample(), include_timing=True)[1] == (
            "40.0,0.5,0.25,1.5,0.125,7.0"
        )

    def test_infinite_psnr_serializes_as_sentinel(self):
        report = self.sample(psnr_db=math.inf)
        assert report.to_dict()["psnr_db"] == "inf"
        assert csv_lines(report)[1].startswith("inf,")
        assert '"psnr_db": "inf"' in json.dumps(report.to_dict())

    def test_json_is_sorted_and_timing_gated(self):
        report = self.sample()
        assert json.dumps(report.to_dict(), sort_keys=True) == (
            '{"emd": 0.125, "gfc": 0.25, "psnr_db": 40.0, "ssim": 0.5, '
            '"ssv": 1.5, "wall_ms": 0.0}'
        )
        assert report.to_dict(include_timing=True)["wall_ms"] == 7.0


class TestEvaluate:
    def test_bundles_individual_metrics(self):
        truth = random_cube(12, 12, 4, seed=17)
        rng = np.random.default_rng(18)
        recon = np.clip(truth.data + rng.normal(0, 0.05, truth.data.shape), 0, None)
        report = evaluate(truth, recon)
        assert report.psnr_db == psnr(truth, recon)
        assert report.ssim == ssim(truth, recon)
        assert report.gfc == gfc(truth, recon)
        assert report.ssv == ssv(truth, recon)
        assert report.emd == emd(truth, recon)

    def test_validates_the_pair_once(self, monkeypatch):
        truth = random_cube(12, 12, 4, seed=19)
        calls = []
        checked = metrics._paired_arrays

        def counting(*args):
            calls.append(args)
            return checked(*args)

        monkeypatch.setattr(metrics, "_paired_arrays", counting)
        evaluate(truth, truth.data * 0.9)
        assert len(calls) == 1

    def test_rejects_non_finite_and_non_spectral_pairs(self):
        truth = random_cube(12, 12, 4, seed=20)
        bad = truth.data.copy()
        bad[3, 4, 1] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            evaluate(truth, bad)
        # finite, but the squared difference overflows
        with pytest.raises(ValidationError, match="magnitude"):
            evaluate(truth, truth.data + 1e200)
        with pytest.raises(ValidationError, match="magnitude"):
            psnr(truth.data * -1e200, truth)
        with pytest.raises(ValidationError, match="3-d"):
            evaluate(truth.data[:, :, 0], truth.data[:, :, 0])

    @pytest.mark.parametrize("recon", ["x", [[1.0, 2.0], [3.0]], [[0.5, {}]]])
    def test_rejects_a_reconstruction_that_is_not_numeric(self, recon):
        truth = random_cube(12, 12, 4, seed=20)
        with pytest.raises(ValidationError, match="numeric"):
            evaluate(truth, recon)
        for metric in (psnr, ssim, gfc, ssv, emd):
            with pytest.raises(ValidationError, match="numeric"):
                metric(recon, truth)

    @pytest.mark.parametrize("shape", [(0, 0, 4), (3, 0, 4), (2, 2, 0), (0,)])
    def test_rejects_an_empty_pair(self, shape):
        empty = np.zeros(shape)
        with pytest.raises(ValidationError, match="non-empty"):
            evaluate(empty, empty)
        for metric in (psnr, ssim, gfc, ssv, emd):
            with pytest.raises(ValidationError, match="non-empty"):
                metric(empty, empty)
