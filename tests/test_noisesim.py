import numpy as np
import pytest

from conftest import constant_cube, random_cube, scatter_mask
from hypercolor import (
    MAX_POISSON_MEAN,
    HyperCube,
    NoiseParams,
    SpectralResponse,
    ValidationError,
    simulate_clues,
    simulate_guide,
)


def params(t=1e-6, rho=9.6e7, mu=0.0, sigma=0.1, seed=0):
    return NoiseParams(t=t, rho=rho, mu=mu, sigma=sigma, seed=seed)


class TestNoiseParams:
    def test_gain_is_rho_times_t(self):
        assert params(t=2e-3, rho=5e4).gain == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t": 0.0},
            {"t": -1e-3},
            {"rho": 0.0},
            {"sigma": -0.1},
            {"seed": -1},
            {"seed": 2**63},
            {"seed": True},
            {"seed": np.bool_(False)},
            {"seed": 3.0},
            {"t": 1 / 256, "rho": 5e-324},
            {"t": 1e300, "rho": 1e300},
            {"mu": float("nan")},
            {"t": "x"},
            {"rho": 10**400},
            {"sigma": None},
            {"mu": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            params(**kwargs)


class TestDeterminism:
    def test_same_seed_same_draws(self):
        cube = random_cube(8, 8, 4, seed=1)
        mask = scatter_mask(8, 8, 0.3, seed=2)
        a = simulate_clues(cube, mask, params(seed=11))
        b = simulate_clues(cube, mask, params(seed=11))
        assert np.array_equal(a.spectra, b.spectra)
        ga = simulate_guide(cube, params(seed=11))
        gb = simulate_guide(cube, params(seed=11))
        assert np.array_equal(ga.values, gb.values)

    def test_different_seed_different_draws(self):
        cube = random_cube(8, 8, 4, seed=1)
        mask = scatter_mask(8, 8, 0.3, seed=2)
        a = simulate_clues(cube, mask, params(seed=11))
        b = simulate_clues(cube, mask, params(seed=12))
        assert not np.array_equal(a.spectra, b.spectra)

    def test_shared_pixels_share_noise_across_masks(self):
        # counter streams are keyed by absolute pixel position, so a pixel's
        # measurement is identical no matter which mask selected it
        cube = random_cube(10, 10, 5, seed=3)
        small = np.zeros((10, 10), dtype=bool)
        small[2, 3] = small[7, 1] = True
        big = small | scatter_mask(10, 10, 0.4, seed=4)
        a = simulate_clues(cube, small, params(seed=9))
        b = simulate_clues(cube, big, params(seed=9))
        got = {tuple(c): s for c, s in zip(b.coordinates(), b.spectra)}
        for coord, spectrum in zip(a.coordinates(), a.spectra):
            assert np.array_equal(got[tuple(coord)], spectrum)

    def test_guide_and_clue_streams_independent(self):
        # same slot indices, different domains: draws must not coincide
        cube = constant_cube(4, 4, [0.5])
        mask = np.ones((4, 4), dtype=bool)
        guide = simulate_guide(cube, params(seed=0))
        clues = simulate_clues(cube, mask, params(seed=0))
        assert not np.allclose(guide.values.ravel(), clues.spectra[:, 0])


class TestStatistics:
    def test_unbiased_at_scale(self):
        # mean over >=1e4 draws matches the true radiance within 4 standard errors
        cube = constant_cube(110, 100, [0.4])
        mask = np.ones((110, 100), dtype=bool)
        p = params(t=1e-6, sigma=0.1)
        clues = simulate_clues(cube, mask, p)
        lam = p.gain * 0.4
        se = np.sqrt((lam + p.sigma**2) / p.gain**2 / clues.count)
        assert abs(clues.spectra.mean() - 0.4) < 4 * se

    def test_variance_shrinks_with_exposure(self):
        cube = constant_cube(80, 80, [0.5])
        mask = np.ones((80, 80), dtype=bool)
        stds = [
            simulate_clues(cube, mask, params(t=t, seed=5)).spectra.std()
            for t in (1e-7, 1e-6, 1e-5, 1e-4)
        ]
        assert all(a > b for a, b in zip(stds, stds[1:]))

    def test_zero_scene_leaves_pure_read_noise(self):
        cube = constant_cube(100, 100, [0.0])
        mask = np.ones((100, 100), dtype=bool)
        p = params(t=1e-3, sigma=0.1)
        clues = simulate_clues(cube, mask, p)
        expected_std = p.sigma / p.gain
        assert abs(clues.spectra.mean()) < 5 * expected_std / 100
        assert clues.spectra.std() == pytest.approx(expected_std, rel=0.05)

    def test_negative_readouts_not_clamped(self):
        cube = constant_cube(50, 50, [0.0])
        mask = np.ones((50, 50), dtype=bool)
        clues = simulate_clues(cube, mask, params(t=1e-3, sigma=0.5))
        assert (clues.spectra < 0).any()

    def test_bands_draw_independently(self):
        cube = constant_cube(60, 60, [0.3, 0.3])
        mask = np.ones((60, 60), dtype=bool)
        clues = simulate_clues(cube, mask, params(t=1e-6))
        r = np.corrcoef(clues.spectra[:, 0], clues.spectra[:, 1])[0, 1]
        assert abs(r) < 0.1


class TestPoissonExactness:
    def test_counts_are_integers_without_read_noise(self):
        cube = random_cube(16, 16, 3, seed=8)
        mask = np.ones((16, 16), dtype=bool)
        p = params(t=1e-6, sigma=0.0, mu=0.0)
        clues = simulate_clues(cube, mask, p)
        counts = clues.spectra * p.gain
        assert np.allclose(counts, np.rint(counts), atol=1e-6)
        assert (counts >= 0).all()

    def test_small_mean_zero_probability(self):
        # P(N=0) = exp(-lambda) for the inversion branch (lambda < 10)
        lam = 2.0
        cube = constant_cube(200, 200, [1.0])
        mask = np.ones((200, 200), dtype=bool)
        p = params(t=lam / 9.6e7, sigma=0.0)
        counts = simulate_clues(cube, mask, p).spectra[:, 0] * p.gain
        frac = np.mean(np.rint(counts) == 0)
        expect = np.exp(-lam)
        se = np.sqrt(expect * (1 - expect) / counts.size)
        assert abs(frac - expect) < 4 * se

    def test_large_mean_moments(self):
        # PTRS branch (lambda >= 10): mean and variance both approach lambda
        lam = 50.0
        cube = constant_cube(140, 140, [1.0])
        mask = np.ones((140, 140), dtype=bool)
        p = params(t=lam / 9.6e7, sigma=0.0)
        counts = simulate_clues(cube, mask, p).spectra[:, 0] * p.gain
        n = counts.size
        assert abs(counts.mean() - lam) < 4 * np.sqrt(lam / n)
        assert abs(counts.var() - lam) < 6 * lam * np.sqrt(2.0 / n)

    def test_mean_overflow_guard(self):
        cube = constant_cube(2, 2, [1.0])
        mask = np.ones((2, 2), dtype=bool)
        with pytest.raises(ValidationError):
            simulate_clues(cube, mask, params(t=1.0, rho=2 * MAX_POISSON_MEAN))


class TestValidation:
    def test_empty_mask_rejected(self):
        cube = random_cube(4, 4, 2)
        with pytest.raises(ValidationError):
            simulate_clues(cube, np.zeros((4, 4), dtype=bool), params())

    def test_mask_shape_mismatch(self):
        cube = random_cube(4, 4, 2)
        with pytest.raises(ValidationError):
            simulate_clues(cube, np.ones((4, 5), dtype=bool), params())

    def test_negative_radiance_rejected(self):
        cube = HyperCube(np.full((2, 2, 2), -0.1), [400.0, 500.0])
        with pytest.raises(ValidationError):
            simulate_guide(cube, params())

    @pytest.mark.parametrize("settings", [
        {"rho": 1e-300, "sigma": 1e10},
        {"mu": 1e308, "sigma": 1e308},
        {"mu": -1e308, "sigma": 0.0, "rho": 0.5},
    ])
    def test_measurements_past_the_float_range_rejected(self, settings):
        cube = random_cube(4, 4, 3, seed=5)
        noise = params(t=1.0, **settings)
        with pytest.raises(ValidationError, match="non-finite"):
            simulate_guide(cube, noise)
        with pytest.raises(ValidationError, match="non-finite"):
            simulate_clues(cube, np.ones((4, 4), dtype=bool), noise)

    def test_response_over_other_wavelengths_rejected(self):
        cube = random_cube(4, 4, 5)
        resp = SpectralResponse(np.linspace(800.0, 900.0, 5), np.ones(5))
        with pytest.raises(ValidationError, match="wavelengths differ"):
            simulate_guide(cube, params(), resp)

    def test_guide_uses_response_weights(self):
        cube = constant_cube(4, 4, [0.2, 0.8])
        # huge gain makes shot noise negligible; weighted mean = 0.5
        guide = simulate_guide(cube, params(t=1.0, rho=1e12, sigma=0.0))
        assert guide.values == pytest.approx(0.5, rel=1e-4)
