import numpy as np
import pytest

from hypercolor import (
    PATTERNS,
    RowWeights,
    SamplingPlan,
    ValidationError,
    build_mask,
    compute_row_weights,
    detect_corners,
    sample_guided_push,
    sample_guided_whisk,
    sample_random,
    sample_uniform_push,
    sample_uniform_whisk,
)


def textured_guide(height=64, width=64, seed=0):
    """Random bright blocks on a dark ground: plenty of corners."""
    rng = np.random.default_rng(seed)
    values = np.zeros((height, width))
    for _ in range(12):
        r = rng.integers(2, height - 10)
        c = rng.integers(2, width - 10)
        values[r : r + 6, c : c + 6] = rng.uniform(0.5, 1.0)
    return values


class TestThresholdWalk:
    def test_push_rows_pinned_small(self):
        # threshold 4 on unit weights: fire at 0, then every 4th row
        mask = sample_uniform_push((8, 4), 0.25)
        assert sorted(np.flatnonzero(mask.any(axis=1))) == [0, 4]
        assert mask[0].all() and mask[4].all()

    def test_push_rows_pinned_fractional_threshold(self):
        # threshold 100/3 walks to 0, 34, 67 with carried remainders
        mask = sample_uniform_push((100, 1), 0.03)
        assert sorted(np.flatnonzero(mask[:, 0])) == [0, 34, 67]

    def test_exact_equality_fires(self):
        mask = sample_uniform_push((9, 1), 0.5)
        assert sorted(np.flatnonzero(mask[:, 0])) == [0, 2, 4, 6, 8]

    def test_index_zero_always_selected(self):
        for rate in (0.01, 0.1, 0.37, 1.0):
            assert sample_uniform_push((50, 2), rate)[0].all()


class TestUniformPatterns:
    def test_whisk_is_row_column_lattice(self):
        mask = sample_uniform_whisk((100, 100), 0.01)
        assert int(mask.sum()) == 100
        rows = np.flatnonzero(mask.any(axis=1))
        assert len(rows) == 10
        first = mask[rows[0]]
        assert all(np.array_equal(mask[r], first) for r in rows)

    def test_whisk_rate_near_target(self):
        mask = sample_uniform_whisk((128, 96), 0.04)
        achieved = mask.mean()
        assert abs(achieved - 0.04) < 0.01

    def test_rate_one_selects_everything(self):
        assert sample_uniform_push((7, 5), 1.0).all()
        assert sample_uniform_whisk((7, 5), 1.0).all()
        assert sample_random((7, 5), 1.0).all()

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5, float("nan")])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValidationError):
            sample_uniform_push((4, 4), rate)


class TestRandomPattern:
    def test_count_is_floor_of_rate(self):
        mask = sample_random((30, 30), 0.0537)
        assert int(mask.sum()) == int(np.floor(0.0537 * 900))

    def test_deterministic_per_seed(self):
        a = sample_random((20, 20), 0.1, seed=3)
        b = sample_random((20, 20), 0.1, seed=3)
        c = sample_random((20, 20), 0.1, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_pixel_rate_rejected(self):
        with pytest.raises(ValidationError):
            sample_random((5, 5), 0.01)


class TestCornerDetection:
    def test_constant_guide_has_no_corners(self):
        assert detect_corners(np.full((32, 32), 0.7)).shape == (0, 2)

    def test_isolated_square_corner_found(self):
        values = np.zeros((32, 32))
        values[10:20, 10:20] = 1.0
        corners = detect_corners(values)
        assert corners.shape[0] >= 1
        # at least one detection lands near a square corner
        targets = np.array([[10, 10], [10, 19], [19, 10], [19, 19]])
        dists = np.abs(corners[:, None, :] - targets[None, :, :]).max(axis=2)
        assert (dists.min(axis=1) <= 2).any()

    def test_block_lattice_yields_many_corners(self):
        tiles = np.indices((48, 48)).sum(axis=0) // 8 % 2
        corners = detect_corners(tiles.astype(np.float64))
        assert corners.shape[0] >= 9

    def test_coordinates_in_bounds(self):
        corners = detect_corners(textured_guide())
        assert (corners >= 0).all()
        assert (corners[:, 0] < 64).all() and (corners[:, 1] < 64).all()


class TestRowWeights:
    def test_constant_guide_gives_unit_weights(self):
        weights = compute_row_weights(np.full((40, 40), 0.5)).weights
        assert np.allclose(weights, 1.0, atol=1e-12)

    def test_unit_mean(self):
        weights = compute_row_weights(textured_guide(seed=2)).weights
        assert weights.mean() == pytest.approx(1.0, abs=1e-9)

    def test_floor_to_peak_ratio_from_rescale(self):
        # pure corner feature spans its [0.1, 1.0] rescale range when some
        # row bands are empty and others hold the densest cluster
        guide = np.zeros((80, 40))
        tiles = np.indices((10, 30)).sum(axis=0) % 2
        guide[5:15, 5:35] = tiles
        weights = compute_row_weights(guide, alpha=1.0).weights
        assert weights.min() / weights.max() == pytest.approx(0.1, rel=1e-9)

    def test_structure_attracts_weight(self):
        guide = np.zeros((80, 64))
        guide[:40] = textured_guide(40, 64, seed=3)
        weights = compute_row_weights(guide).weights
        assert weights[:40].mean() > weights[40:].mean()

    def test_row_weights_validation(self):
        with pytest.raises(ValidationError):
            RowWeights(np.array([1.0, -1.0]))
        with pytest.raises(ValidationError):
            RowWeights(np.array([2.0, 2.0]))  # mean 2
        with pytest.raises(ValidationError):
            RowWeights(np.ones((2, 2)))


class TestGuidedPatterns:
    def test_reduce_to_uniform_on_flat_guide(self):
        flat = np.full((50, 60), 0.3)
        assert np.array_equal(
            sample_guided_push(flat, 0.1), sample_uniform_push((50, 60), 0.1)
        )
        assert np.array_equal(
            sample_guided_whisk(flat, 0.04), sample_uniform_whisk((50, 60), 0.04)
        )

    def test_push_row_count_tracks_rate(self):
        guide = textured_guide(64, 64, seed=1)
        rows = sample_guided_push(guide, 0.25).any(axis=1).sum()
        assert abs(int(rows) - 16) <= 1

    def test_push_samples_structured_rows_more(self):
        guide = np.zeros((80, 64))
        guide[:40] = textured_guide(40, 64, seed=3)
        mask = sample_guided_push(guide, 0.2)
        rows = mask.any(axis=1)
        assert rows[:40].sum() > rows[40:].sum()

    def test_whisk_rows_subset_of_push_selection(self):
        # whisk reuses the push row walk at the square-root rate
        guide = textured_guide(seed=4)
        whisk = sample_guided_whisk(guide, 0.04)
        push_rows = sample_guided_push(guide, 0.2).any(axis=1)
        assert np.array_equal(whisk.any(axis=1), push_rows)

    def test_pinned_row_and_pixel_selection(self):
        # index lists recorded from the reference implementation: any drift
        # in the corner or gray-level features moves a row or a pixel
        guide = textured_guide(40, 40, seed=7)
        push = sample_guided_push(guide, 0.09, 0.7)
        assert np.flatnonzero(push.any(axis=1)).tolist() == [0, 13, 22, 31]
        assert np.array_equal(push.all(axis=1), push.any(axis=1))
        whisk = sample_guided_whisk(guide, 0.09, 0.7)
        expected = {
            0: [0, 5, 8, 10, 13, 15, 17, 18, 20, 22, 24, 26],
            5: [0, 7, 11, 15, 17, 19, 20, 22, 24, 26, 30, 34],
            8: [0, 7, 11, 15, 17, 19, 20, 22, 24, 26, 30, 34],
            12: [0, 7, 10, 13, 16, 18, 20, 22, 23, 26, 29, 32],
            14: [0, 9, 13, 16, 19, 21, 23, 25, 27, 29, 32, 35],
            17: [0, 7, 10, 13, 15, 17, 19, 21, 24, 26, 29, 32],
            20: [0, 7, 10, 13, 15, 17, 19, 21, 23, 25, 28, 32],
            22: [0, 8, 11, 15, 17, 20, 22, 25, 27, 29, 32, 35],
            25: [0, 4, 6, 8, 10, 12, 14, 16, 18, 21, 25, 30],
            28: [0, 3, 6, 9, 11, 13, 15, 17, 20, 24, 27, 31],
            31: [0, 3, 6, 9, 11, 13, 15, 17, 20, 23, 26, 31],
            34: [0, 4, 7, 10, 12, 14, 17, 19, 22, 25, 28, 32],
        }
        rows = np.flatnonzero(whisk.any(axis=1)).tolist()
        assert rows == sorted(expected)
        for row in rows:
            assert np.flatnonzero(whisk[row]).tolist() == expected[row]

    def test_alpha_zero_ignores_corners(self):
        # diversity-only weights depend on gray levels, not corner layout
        guide = np.zeros((60, 60))
        guide[10:20, 10:20] = 1.0
        w_corners = compute_row_weights(guide, alpha=1.0).weights
        w_levels = compute_row_weights(guide, alpha=0.0).weights
        assert not np.allclose(w_corners, w_levels)


class TestPlanAndDispatch:
    def test_every_pattern_listed(self):
        assert PATTERNS == (
            "random",
            "uniform-push",
            "uniform-whisk",
            "guided-push",
            "guided-whisk",
        )

    def test_dispatch_matches_direct_calls(self):
        guide = textured_guide(seed=6)
        shape = guide.shape
        cases = {
            "random": sample_random(shape, 0.05, seed=2),
            "uniform-push": sample_uniform_push(shape, 0.05),
            "uniform-whisk": sample_uniform_whisk(shape, 0.05),
            "guided-push": sample_guided_push(guide, 0.05),
            "guided-whisk": sample_guided_whisk(guide, 0.05),
        }
        for pattern, expected in cases.items():
            plan = SamplingPlan(pattern, 0.05, seed=2)
            assert np.array_equal(build_mask(plan, shape=shape, guide=guide), expected)

    def test_guided_requires_guide(self):
        with pytest.raises(ValidationError):
            build_mask(SamplingPlan("guided-push", 0.1), shape=(8, 8))

    def test_needs_shape_or_guide(self):
        with pytest.raises(ValidationError):
            build_mask(SamplingPlan("random", 0.1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pattern": "spiral", "rate": 0.1},
            {"pattern": "random", "rate": 0.0},
            {"pattern": "random", "rate": 1.2},
            {"pattern": "random", "rate": 0.1, "alpha": -0.5},
            {"pattern": "random", "rate": 0.1, "seed": -1},
        ],
    )
    def test_plan_validation(self, kwargs):
        with pytest.raises(ValidationError):
            SamplingPlan(**kwargs)
