import numpy as np
import pytest

import hypercolor
from conftest import constant_cube, random_cube, wavelengths_for
from hypercolor import (
    ClueSet,
    GuideImage,
    HyperCube,
    SpectralResponse,
    ValidationError,
    clues_to_cube,
    cube_to_clues,
    colorizer,
    core,
    errors,
    formats,
    harness,
    import_band_stack,
    make_guide,
    metrics,
    noisesim,
    sampling,
    subspace,
)


class TestHyperCube:
    def test_shape_accessors(self):
        cube = random_cube(4, 5, 3)
        assert (cube.height, cube.width, cube.bands) == (4, 5, 3)
        assert cube.shape == (4, 5, 3)
        assert cube.pixels().shape == (20, 3)

    def test_pixels_is_row_major(self):
        cube = random_cube(3, 4, 2)
        assert np.array_equal(cube.pixels()[5], cube.data[1, 1])

    def test_tolerates_transient_negatives(self):
        # pre-clamp reconstructions pass through this type
        data = np.ones((2, 2, 3))
        data[0, 0, 0] = -0.5
        assert HyperCube(data, wavelengths_for(3)).data[0, 0, 0] == -0.5

    def test_rejects_nan(self):
        data = np.ones((2, 2, 3))
        data[1, 1, 2] = np.nan
        with pytest.raises(ValidationError):
            HyperCube(data, wavelengths_for(3))

    def test_rejects_non_numeric_data(self):
        with pytest.raises(ValidationError, match="not numeric"):
            HyperCube(np.array([[["a", "b", "c"]]]), wavelengths_for(3))
        with pytest.raises(ValidationError, match="not numeric"):
            GuideImage([[0.5, {}]])

    def test_rejects_non_increasing_wavelengths(self):
        with pytest.raises(ValidationError):
            HyperCube(np.ones((2, 2, 3)), [400.0, 550.0, 550.0])

    def test_rejects_wavelength_count_mismatch(self):
        with pytest.raises(ValidationError):
            HyperCube(np.ones((2, 2, 3)), [400.0, 550.0])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError):
            HyperCube(np.ones((2, 3)), [400.0, 550.0, 700.0])


class TestGuideImage:
    def test_accepts_negative_values(self):
        # read noise can push simulated guides below zero
        guide = GuideImage(np.array([[0.1, -0.01], [0.2, 0.3]]))
        assert guide.height == 2 and guide.width == 2

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            GuideImage(np.array([[0.1, np.nan]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError):
            GuideImage(np.ones((2, 2, 2)))


class TestClueSet:
    def test_round_trip_preserves_spectra(self):
        cube = random_cube(5, 6, 4, seed=3)
        mask = np.zeros((5, 6), dtype=bool)
        mask[[0, 2, 4], [1, 3, 5]] = True
        clues = cube_to_clues(cube, mask)
        back = cube_to_clues(clues_to_cube(clues), mask)
        assert np.array_equal(back.spectra, clues.spectra)
        assert np.array_equal(back.mask, clues.mask)

    def test_unsampled_pixels_are_zero_in_dense_form(self):
        cube = random_cube(4, 4, 3)
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        dense = clues_to_cube(cube_to_clues(cube, mask))
        assert np.array_equal(dense.data[1, 1], cube.data[1, 1])
        assert dense.data[~mask].max() == 0.0

    def test_empty_mask_gives_zero_entries(self):
        cube = random_cube(3, 3, 2)
        clues = cube_to_clues(cube, np.zeros((3, 3), dtype=bool))
        assert clues.count == 0

    def test_full_mask_count(self):
        cube = random_cube(3, 4, 2)
        clues = cube_to_clues(cube, np.ones((3, 4), dtype=bool))
        assert clues.count == 12

    def test_coordinates_row_major(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[2, 0] = mask[0, 1] = True
        clues = ClueSet(3, 3, wavelengths_for(2), mask, np.ones((2, 2)))
        assert clues.coordinates().tolist() == [[0, 1], [2, 0]]

    def test_rejects_count_mismatch(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ValidationError):
            ClueSet(3, 3, wavelengths_for(2), mask, np.ones((2, 2)))

    def test_rejects_mask_shape_mismatch(self):
        cube = random_cube(3, 3, 2)
        with pytest.raises(ValidationError):
            cube_to_clues(cube, np.zeros((4, 3), dtype=bool))

    def test_allows_negative_spectra(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        clues = ClueSet(2, 2, wavelengths_for(3), mask, np.array([[-0.1, 0.2, 0.3]]))
        assert clues.count == 1


class TestSpectralResponse:
    def test_normalizes_to_unit_sum(self):
        resp = SpectralResponse(wavelengths_for(4), [1.0, 3.0, 4.0, 2.0])
        assert abs(resp.weights.sum() - 1.0) <= 1e-12

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            SpectralResponse(wavelengths_for(3), [0.5, -0.1, 0.6])

    def test_rejects_all_zero(self):
        with pytest.raises(ValidationError):
            SpectralResponse(wavelengths_for(3), [0.0, 0.0, 0.0])

    def test_visible_flat_excludes_out_of_band(self):
        wl = np.array([350.0, 400.0, 550.0, 700.0, 900.0])
        resp = SpectralResponse.visible_flat(wl)
        assert resp.weights[0] == 0.0 and resp.weights[4] == 0.0
        assert np.all(resp.weights[1:4] == resp.weights[1])

    def test_visible_flat_needs_visible_bands(self):
        with pytest.raises(ValidationError):
            SpectralResponse.visible_flat([900.0, 1000.0])


class TestMakeGuide:
    def test_weighted_single_pixel(self):
        cube = HyperCube(np.array([[[1.0, 2.0, 3.0]]]), wavelengths_for(3))
        resp = SpectralResponse(wavelengths_for(3), [0.5, 0.25, 0.25])
        assert make_guide(cube, resp).values[0, 0] == 1.75

    def test_constant_cube_maps_to_same_constant(self):
        cube = constant_cube(4, 4, np.full(6, 0.75))
        guide = make_guide(cube)
        assert np.allclose(guide.values, 0.75, atol=1e-15)

    def test_nir_bands_carry_no_weight(self):
        wl = np.concatenate([np.linspace(420, 680, 4), [800.0, 900.0]])
        visible = np.random.default_rng(0).random((3, 3, 6)) * 0.5
        spiked = visible.copy()
        spiked[..., 4:] += 10.0
        a = make_guide(HyperCube(visible, wl))
        b = make_guide(HyperCube(spiked, wl))
        assert np.array_equal(a.values, b.values)

    def test_linearity(self):
        c1 = random_cube(4, 4, 5, seed=1)
        c2 = random_cube(4, 4, 5, seed=2)
        combo = HyperCube(0.3 * c1.data + 0.6 * c2.data, c1.wavelengths)
        expected = 0.3 * make_guide(c1).values + 0.6 * make_guide(c2).values
        assert np.allclose(make_guide(combo).values, expected, rtol=1e-12, atol=1e-15)

    def test_rejects_response_length_mismatch(self):
        cube = random_cube(2, 2, 4)
        resp = SpectralResponse(wavelengths_for(3), np.ones(3))
        with pytest.raises(ValidationError):
            make_guide(cube, resp)


class TestImportBandStack:
    def test_eight_bit_full_scale_maps_to_one(self):
        band = np.full((4, 4), 255, dtype=np.uint8)
        cube = import_band_stack([band], [550.0])
        assert np.all(cube.data == 1.0)

    def test_sixteen_bit_scaling(self):
        band = np.full((2, 2), 65535, dtype=np.uint16)
        half = np.full((2, 2), 32768, dtype=np.uint16)
        cube = import_band_stack([band, half], [500.0, 600.0])
        assert np.all(cube.data[..., 0] == 1.0)
        assert np.allclose(cube.data[..., 1], 32768 / 65535)

    def test_stacks_in_wavelength_order(self):
        b0 = np.zeros((2, 3))
        b1 = np.ones((2, 3))
        cube = import_band_stack([b0, b1], [450.0, 650.0])
        assert cube.shape == (2, 3, 2)
        assert np.all(cube.data[..., 1] == 1.0)

    def test_rejects_count_mismatch(self):
        bands = [np.ones((2, 2))] * 30
        with pytest.raises(ValidationError):
            import_band_stack(bands, wavelengths_for(31))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            import_band_stack([np.ones((2, 2)), np.ones((3, 2))], [500.0, 600.0])


class TestPackageSurface:
    MODULES = (colorizer, core, errors, formats, harness, metrics, noisesim, sampling,
               subspace)

    def test_package_exports_each_modules_names(self):
        declared = [name for module in self.MODULES for name in module.__all__]
        assert hypercolor.__all__ == ["__version__", *declared]
        assert len(set(hypercolor.__all__)) == len(hypercolor.__all__)
        for module in self.MODULES:
            for name in module.__all__:
                assert getattr(hypercolor, name) is getattr(module, name), name
