import numpy as np
import pytest

from conftest import full_clues, random_cube, rank1_cube, wavelengths_for
from hypercolor import (
    ClueSet,
    DimensionModel,
    HyperCube,
    SpectralBasis,
    ValidationError,
    estimate_dimension,
    fit_dimension_model,
    learn_basis,
    project,
    read_model,
    VarianceCurve,
    unproject,
    variance_curve,
    write_model,
)
from hypercolor.subspace import _kneedle_elbow


def far_basis(cube):
    """A full basis of ``cube``'s pixels over 800-900 nm instead of its own axis."""
    return learn_basis(HyperCube(cube.data, wavelengths_for(cube.bands, (800.0, 900.0))))


def noisy_clues(cube, sigma, seed=0):
    clues = full_clues(cube)
    rng = np.random.default_rng(seed)
    spectra = clues.spectra + rng.normal(0.0, sigma, clues.spectra.shape)
    return ClueSet(clues.height, clues.width, clues.wavelengths, clues.mask, spectra)


class TestLearnBasis:
    def test_columns_orthonormal(self):
        basis = learn_basis(random_cube(10, 12, 7, seed=1))
        gram = basis.vectors.T @ basis.vectors
        assert np.max(np.abs(gram - np.eye(basis.rank))) <= 1e-10

    def test_sign_convention(self):
        basis = learn_basis(random_cube(10, 12, 7, seed=2))
        for column in basis.vectors.T:
            assert column[np.argmax(np.abs(column))] > 0

    def test_default_rank_is_band_count(self):
        basis = learn_basis(random_cube(5, 5, 6))
        assert basis.rank == 6

    def test_matches_dense_svd(self):
        cube = random_cube(14, 9, 6, seed=3)
        basis = learn_basis(cube)
        pixels = cube.pixels()
        u, s, vt = np.linalg.svd(pixels, full_matrices=False)
        assert np.allclose(basis.singular_values, s, rtol=1e-8)
        # columns agree up to the shared sign convention
        for ours, theirs in zip(basis.vectors.T, vt):
            anchor = np.argmax(np.abs(theirs))
            if theirs[anchor] < 0:
                theirs = -theirs
            assert np.allclose(ours, theirs, atol=1e-8)

    def test_rank1_scene_concentrates_energy(self):
        basis = learn_basis(rank1_cube(16, 16, 5, seed=4))
        # the Gram route squares the conditioning, so the null directions
        # surface at sqrt(eps) relative to the leading value
        assert basis.singular_values[1] <= 1e-6 * basis.singular_values[0]

    def test_multi_cube_equals_stacked_pixels(self):
        a = random_cube(6, 8, 4, seed=5)
        b = random_cube(9, 8, 4, seed=6)
        joint = learn_basis([a, b])
        stacked = np.vstack([a.pixels(), b.pixels()])
        s = np.linalg.svd(stacked, compute_uv=False)
        assert np.allclose(joint.singular_values, s, rtol=1e-8)
        assert joint.source == "gram:2cubes:120px"

    def test_validation(self):
        cube = random_cube(4, 4, 3)
        with pytest.raises(ValidationError):
            learn_basis(cube, rank=0)
        with pytest.raises(ValidationError):
            learn_basis(cube, rank=4)
        for rank in (2.5, True):
            with pytest.raises(ValidationError):
                learn_basis(cube, rank=rank)
        with pytest.raises(ValidationError):
            learn_basis([])
        other = random_cube(4, 4, 3)
        shifted = type(other)(other.data, other.wavelengths + 5.0)
        with pytest.raises(ValidationError):
            learn_basis([cube, shifted])


class TestSpectralBasis:
    def parts(self):
        basis = learn_basis(random_cube(5, 5, 4))
        return basis.wavelengths, basis.vectors, basis.singular_values

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_text_is_not_numeric(self, slot):
        parts = list(self.parts())
        parts[slot] = "x"
        with pytest.raises(ValidationError, match="not numeric"):
            SpectralBasis(*parts)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_values_rejected(self, slot):
        parts = [part.copy() for part in self.parts()]
        parts[slot].flat[-1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            SpectralBasis(*parts)

    def test_wavelengths_must_increase(self):
        wavelengths, vectors, singular_values = self.parts()
        with pytest.raises(ValidationError, match="increasing"):
            SpectralBasis(wavelengths[::-1], vectors, singular_values)


class TestProjection:
    def test_full_rank_round_trip_lossless(self):
        cube = random_cube(8, 11, 5, seed=7)
        basis = learn_basis(cube)
        back = unproject(project(cube.data, basis), basis)
        assert np.max(np.abs(back - cube.data)) <= 1e-10

    def test_projection_preserves_energy(self):
        cube = random_cube(8, 11, 5, seed=8)
        basis = learn_basis(cube)
        coeff = project(cube.pixels(), basis)
        assert np.linalg.norm(coeff) == pytest.approx(
            np.linalg.norm(cube.pixels()), rel=1e-10
        )

    def test_truncation_error_matches_discarded_spectrum(self):
        # best rank-p approximation error is the norm of the dropped tail
        cube = random_cube(12, 10, 6, seed=9)
        basis = learn_basis(cube)
        for dim in (1, 3, 5):
            approx = unproject(project(cube.data, basis, dim=dim), basis)
            err = np.linalg.norm(approx - cube.data)
            expected = np.linalg.norm(basis.singular_values[dim:])
            assert err == pytest.approx(expected, rel=1e-8)

    def test_clueset_round_trip(self):
        cube = random_cube(7, 7, 4, seed=10)
        clues = full_clues(cube)
        basis = learn_basis(cube)
        low = project(clues, basis, dim=2)
        assert low.spectra.shape == (49, 2)
        assert np.array_equal(low.wavelengths, [1.0, 2.0])
        assert np.array_equal(low.mask, clues.mask)
        back = unproject(low.spectra, basis)
        assert back.shape == (49, 4)

    def test_dim_bounds(self):
        basis = learn_basis(random_cube(5, 5, 4), rank=3)
        with pytest.raises(ValidationError):
            project(np.ones(4), basis, dim=4)
        with pytest.raises(ValidationError):
            project(np.ones(4), basis, dim=0)

    def test_band_mismatch(self):
        basis = learn_basis(random_cube(5, 5, 4))
        with pytest.raises(ValidationError):
            project(np.ones(5), basis)

    def test_takes_arrays_and_clue_sets_only(self):
        cube = random_cube(5, 5, 4)
        basis = learn_basis(cube)
        with pytest.raises(ValidationError, match="not numeric"):
            project(cube, basis)
        with pytest.raises(ValidationError, match="not numeric"):
            project([[0.5, "x", 0.1, 0.2]], basis)
        with pytest.raises(ValidationError, match="need an axis"):
            project(0.5, basis)
        with pytest.raises(ValidationError, match="4-band axis"):
            project(np.ones((2, 3)), basis)

    def test_non_finite_arrays_rejected(self):
        basis = learn_basis(random_cube(5, 5, 4))
        with pytest.raises(ValidationError, match="non-finite"):
            unproject([[None] * 4], basis)
        with pytest.raises(ValidationError, match="non-finite"):
            project(np.full((3, 4), np.inf), basis)

    def test_basis_over_other_wavelengths_rejected(self):
        cube = random_cube(5, 5, 4)
        with pytest.raises(ValidationError, match="basis wavelengths differ"):
            project(full_clues(cube), far_basis(cube))

    @pytest.mark.parametrize("coefficients, message", [
        (1.0, "need an axis"), (np.float64(2.0), "need an axis"), ("x", "not numeric"),
        ([[1.0, "x"]], "not numeric"), ([[1.0], [2.0, 3.0]], "not numeric"),
        (np.ones((2, 0)), "dimension 0"), (np.ones((2, 5)), "dimension 5"),
    ])
    def test_unproject_takes_coefficient_arrays_only(self, coefficients, message):
        basis = learn_basis(random_cube(5, 5, 4))
        with pytest.raises(ValidationError, match=message):
            unproject(coefficients, basis)


class TestVarianceCurve:
    def test_explained_matches_sample_variance(self):
        cube = random_cube(6, 6, 4, seed=11)
        basis = learn_basis(cube)
        clues = full_clues(cube)
        curve = variance_curve(clues, basis)
        coeff = clues.spectra @ basis.vectors
        centered = coeff - coeff.mean(axis=0)
        oracle = (centered**2).sum(axis=0) / (coeff.shape[0] - 1)
        assert np.allclose(curve.explained, oracle, rtol=1e-12)

    def test_rank3_scene_elbow_at_three(self):
        cube = random_cube(24, 24, 8, seed=12, rank=3)
        basis = learn_basis(cube)
        curve = variance_curve(noisy_clues(cube, 1e-6, seed=1), basis)
        assert curve.elbow_index == 3

    def test_noise_floor_level(self):
        # beyond the signal rank the curve sits at the iid noise variance
        sigma = 1e-3
        cube = rank1_cube(100, 100, 6, seed=13)
        basis = learn_basis(cube)
        curve = variance_curve(noisy_clues(cube, sigma, seed=2), basis)
        assert curve.explained[0] > 100 * sigma**2
        assert np.allclose(curve.explained[1:], sigma**2, rtol=0.1)
        assert 10.0**curve.log_min_variance == pytest.approx(sigma**2, rel=0.15)

    def test_floor_rises_with_noise(self):
        cube = random_cube(40, 40, 6, seed=14, rank=2)
        basis = learn_basis(cube)
        floors = [
            variance_curve(noisy_clues(cube, s, seed=3), basis).log_min_variance
            for s in (1e-4, 1e-3, 1e-2)
        ]
        assert floors[0] < floors[1] < floors[2]

    def test_requires_full_rank_basis(self):
        cube = random_cube(6, 6, 4)
        with pytest.raises(ValidationError):
            variance_curve(full_clues(cube), learn_basis(cube, rank=3))

    def test_basis_over_other_wavelengths_rejected(self):
        cube = random_cube(6, 6, 4)
        with pytest.raises(ValidationError, match="basis wavelengths differ"):
            variance_curve(full_clues(cube), far_basis(cube))

    @pytest.mark.parametrize("explained, message", [
        ("x", "not numeric"), ([1.0, np.nan], "non-finite"), ([[1.0]], "1-dimensional"),
        ([], "empty"),
    ])
    def test_explained_is_a_finite_curve(self, explained, message):
        with pytest.raises(ValidationError, match=message):
            VarianceCurve(explained, 1, 0.0)

    def test_requires_eight_clues(self):
        cube = random_cube(6, 6, 4)
        basis = learn_basis(cube)
        mask = np.zeros((6, 6), dtype=bool)
        mask.ravel()[:7] = True
        clues = ClueSet(6, 6, cube.wavelengths, mask, cube.data[mask])
        with pytest.raises(ValidationError):
            variance_curve(clues, basis)


class TestKneedle:
    def test_short_curves_fall_back_to_one(self):
        assert _kneedle_elbow(np.array([3.0, 1.0])) == 1
        assert _kneedle_elbow(np.array([2.0])) == 1

    def test_flat_curve_falls_back_to_one(self):
        assert _kneedle_elbow(np.full(8, -4.0)) == 1

    def test_step_curve_elbow_before_drop(self):
        log_curve = np.array([0.0, -0.1, -0.2, -6.0, -6.1, -6.2, -6.3])
        assert _kneedle_elbow(log_curve) == 3


def curve(elbow, log_min, dimensions=31) -> VarianceCurve:
    """A curve carrying only the two features a dimension model reads."""
    return VarianceCurve(np.ones(dimensions), elbow, log_min)


class TestDimensionModel:
    def curves(self, n=12, seed=0, dimensions=31):
        rng = np.random.default_rng(seed)
        elbows = rng.integers(1, 9, n)
        log_mins = rng.uniform(-8, -2, n)
        return [curve(int(e), float(v), dimensions) for e, v in zip(elbows, log_mins)]

    def test_recovers_exact_quadratic(self):
        true = DimensionModel(1.5, 0.8, -0.4, 0.05, -0.02, 0.03, clamp_max=31)
        curves = self.curves()
        labels = [
            true.intercept
            + true.elbow * e
            + true.log_min_variance * v
            + true.elbow_sq * e * e
            + true.log_min_variance_sq * v * v
            + true.elbow_x_log_min_variance * e * v
            for e, v in ((c.elbow_index, c.log_min_variance) for c in curves)
        ]
        fitted = fit_dimension_model(curves, labels)
        assert fitted.intercept == pytest.approx(true.intercept, abs=1e-8)
        assert fitted.elbow_sq == pytest.approx(true.elbow_sq, abs=1e-9)
        assert fitted.elbow_x_log_min_variance == pytest.approx(0.03, abs=1e-9)

    def test_constant_labels_predict_constant(self):
        model = fit_dimension_model(self.curves(), [5.0] * 12)
        assert model.predict(curve(3, -4.0)) == 5
        assert model.predict(curve(7, -7.5)) == 5

    def test_rounding_is_half_up(self):
        base = dict(elbow=0.0, log_min_variance=0.0, elbow_sq=0.0,
                    log_min_variance_sq=0.0, elbow_x_log_min_variance=0.0,
                    clamp_max=31)
        assert DimensionModel(intercept=4.49, **base).predict(curve(1, -3.0)) == 4
        assert DimensionModel(intercept=4.5, **base).predict(curve(1, -3.0)) == 5

    def test_prediction_clamped(self):
        base = dict(elbow=0.0, log_min_variance=0.0, elbow_sq=0.0,
                    log_min_variance_sq=0.0, elbow_x_log_min_variance=0.0)
        assert DimensionModel(intercept=100.0, clamp_max=9, **base).predict(curve(1, -1)) == 9
        assert DimensionModel(intercept=-5.0, clamp_max=9, **base).predict(curve(1, -1)) == 2
        # a fitted model clamps to [2, the curves' dimension count]
        fitted = fit_dimension_model(self.curves(dimensions=9), [100.0] * 12)
        assert (fitted.clamp_min, fitted.clamp_max) == (2, 9)
        assert fitted.predict(curve(3, -4.0, dimensions=9)) == 9

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValidationError, match="at least 6"):
            fit_dimension_model(self.curves(n=5), [3] * 5)

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ValidationError, match="8 training curves but 7 labels"):
            fit_dimension_model(self.curves(n=8), [3] * 7)

    @pytest.mark.parametrize("labels, message", [
        ("abcdef", "not numeric"), ([3.0] * 5 + [np.nan], "non-finite"),
        ([[3.0] * 6], "1-dimensional"),
    ])
    def test_labels_are_finite_numbers(self, labels, message):
        with pytest.raises(ValidationError, match=message):
            fit_dimension_model(self.curves(n=6), labels)

    def test_json_round_trip(self, tmp_path):
        model = DimensionModel(1.5, 0.8, -0.4, 0.05, -0.02, 0.03, clamp_max=16)
        path = tmp_path / "model.json"
        write_model(model, path)
        back = read_model(path)
        assert back == model
        # a second write is byte-identical
        again = tmp_path / "model2.json"
        write_model(back, again)
        assert path.read_bytes() == again.read_bytes()

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"intercept": 1.0}')
        with pytest.raises(ValidationError):
            read_model(path)


class TestEstimateDimension:
    def test_combines_curve_and_prediction(self):
        cube = random_cube(20, 20, 6, seed=15, rank=3)
        basis = learn_basis(cube)
        clues = noisy_clues(cube, 1e-5, seed=4)
        base = dict(log_min_variance=0.0, elbow_sq=0.0,
                    log_min_variance_sq=0.0, elbow_x_log_min_variance=0.0)
        model = DimensionModel(intercept=0.0, elbow=1.0, clamp_max=6, **base)
        dim, curve = estimate_dimension(clues, basis, model)
        assert curve.elbow_index == 3
        assert dim == model.predict(curve) == 3
        # without a model the curve's elbow is the dimension
        assert estimate_dimension(clues, basis)[0] == curve.elbow_index
