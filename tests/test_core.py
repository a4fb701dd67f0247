import re
from pathlib import Path

import numpy as np
import pytest

import hypercolor
from conftest import constant_cube, densify, random_cube, wavelengths_for
from hypercolor import (
    ClueSet,
    GuideImage,
    HyperCube,
    SpectralResponse,
    ValidationError,
    cube_to_clues,
    colorizer,
    core,
    errors,
    formats,
    harness,
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
        back = cube_to_clues(HyperCube(densify(clues), cube.wavelengths), mask)
        assert np.array_equal(back.spectra, clues.spectra)
        assert np.array_equal(back.mask, clues.mask)

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

    @pytest.mark.parametrize("mask, message", [
        (np.zeros((4, 3), dtype=bool), "mask shape"),
        ([[True, False, True], [True], [False] * 3], "not boolean"),
    ])
    def test_rejects_a_mask_off_the_grid(self, mask, message):
        cube = random_cube(3, 3, 2)
        with pytest.raises(ValidationError, match=message):
            cube_to_clues(cube, mask)
        with pytest.raises(ValidationError, match=message):
            ClueSet(3, 3, cube.wavelengths, mask, np.ones((9, 2)))

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

    def test_rejects_a_bare_weight_array(self):
        cube = random_cube(2, 2, 4)
        with pytest.raises(ValidationError, match="SpectralResponse"):
            make_guide(cube, np.ones(4))

    def test_rejects_a_response_over_other_wavelengths(self):
        cube = HyperCube(random_cube(2, 2, 31).data, np.linspace(420.0, 720.0, 31))
        resp = SpectralResponse(np.linspace(800.0, 900.0, 31), np.ones(31))
        with pytest.raises(ValidationError, match="wavelengths differ"):
            make_guide(cube, resp)


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

    def test_every_exported_name_has_a_caller(self):
        # a name counts as called when some whole-word reference to it is
        # left once the package's __all__ lists and each module-level def,
        # class or assignment line are cut; the benchmark and README count too
        root = Path(__file__).resolve().parents[1]
        package = [re.sub(r"^__all__ = \[.*?\]", "", path.read_text(), flags=re.M | re.S)
                   for path in sorted((root / "src" / "hypercolor").glob("*.py"))]
        others = [path.read_text() for path in sorted((root / "perfbench").glob("*.py"))]
        others.append((root / "README.md").read_text())

        def called(name):
            own = re.compile(rf"^(?:(?:def|class) {name}\b|{name}\s*[:=]).*$", re.M)
            word = re.compile(rf"\b{name}\b")
            texts = [own.sub("", text) for text in package] + others
            return any(word.search(text) for text in texts)

        exported = [name for name in hypercolor.__all__ if name != "__version__"]
        assert [name for name in exported if not called(name)] == []

    def test_only_formats_reads_or_writes_json_and_csv_files(self):
        # json.dumps stays open to the CLI, which prints JSON to stdout; .npy
        # arrays are files too
        codec = re.compile(
            r"\bjson\.(?:load|dump)\(|\bcsv\.writer\b|\bnp\.(?:load|save)\("
        )
        package = Path(__file__).resolve().parents[1] / "src" / "hypercolor"
        users = [path.name for path in sorted(package.glob("*.py"))
                 if codec.search(path.read_text())]
        assert users == ["formats.py"]
