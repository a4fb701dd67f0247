import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import ndimage, sparse
from scipy.sparse.linalg import splu

from conftest import (
    constant_cube,
    full_clues,
    guide_of,
    random_cube,
    rank1_cube,
    scatter_mask,
    two_region_cube,
    wavelengths_for,
)
from hypercolor import (
    ClueSet,
    HyperCube,
    NEIGHBOR_OFFSETS,
    SolverError,
    SpectralResponse,
    ValidationError,
    affinity_weights,
    build_system,
    canny_edges,
    colorize,
    cube_to_clues,
    edge_confidence,
    edge_filter,
    learn_basis,
    luminance_rescale,
    make_guide,
    solve,
)
from hypercolor import colorizer
from hypercolor.colorizer import _choose_method, _factor_room


def patch_sigma_sq(values, row, col):
    """Independent 3x3 in-bounds patch variance with the range floor."""
    height, width = values.shape
    patch = values[
        max(0, row - 1) : min(height, row + 2), max(0, col - 1) : min(width, col + 2)
    ]
    variance = patch.var()
    value_range = values.max() - values.min()
    if value_range > 0:
        return max(variance, 1e-8 * value_range**2)
    return 1.0


def clues_of(values_shape, mask, spectra, bands=None):
    height, width = values_shape
    spectra = np.asarray(spectra, dtype=np.float64)
    bands = spectra.shape[1] if bands is None else bands
    return ClueSet(height, width, wavelengths_for(bands), mask, spectra)


def coo_matrix_of(guide, mask):
    """Reference system matrix from one COO triplet per pixel and neighbor.

    A clue pixel's diagonal is 2, unless the pixel has no neighbor (a 1x1
    guide), whose row then reads ``x = c``.
    """
    height, width = guide.shape
    weights = affinity_weights(guide)
    rows, cols, values = [], [], []
    for row in range(height):
        for col in range(width):
            pixel = row * width + col
            rows.append(pixel)
            cols.append(pixel)
            values.append(2.0 if mask[row, col] and height * width > 1 else 1.0)
            for plane, (drow, dcol) in enumerate(NEIGHBOR_OFFSETS):
                if 0 <= row + drow < height and 0 <= col + dcol < width:
                    rows.append(pixel)
                    cols.append((row + drow) * width + col + dcol)
                    values.append(-weights[plane, row, col])
    total = height * width
    return sparse.coo_matrix((values, (rows, cols)), shape=(total, total))


def traced_peak(call):
    """``call()`` and the peak bytes Python and numpy allocated during it.

    tracemalloc sees numpy buffers but not the C allocations of SuperLU,
    so an LU factor does not count.
    """
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAffinityWeights:
    def test_valid_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        weights = affinity_weights(rng.random((9, 7)))
        assert np.allclose(weights.sum(axis=0), 1.0, atol=1e-12)

    def test_out_of_bounds_neighbors_weigh_zero(self):
        weights = affinity_weights(np.random.default_rng(1).random((5, 5)))
        # corner pixel (0, 0) reaches only 3 neighbors
        corner = weights[:, 0, 0]
        nonzero = [
            plane
            for plane, (dr, dc) in enumerate(NEIGHBOR_OFFSETS)
            if 0 <= 0 + dr < 5 and 0 <= 0 + dc < 5
        ]
        assert (corner[nonzero] > 0).all()
        zero_planes = [p for p in range(8) if p not in nonzero]
        assert (corner[zero_planes] == 0).all()

    def test_pairwise_ratio_matches_similarity_kernel(self):
        # normalization cancels in the ratio of two neighbors of one pixel
        rng = np.random.default_rng(2)
        values = rng.random((8, 8))
        weights = affinity_weights(values)
        row, col = 4, 3
        sigma_sq = patch_sigma_sq(values, row, col)
        for plane_a in range(8):
            for plane_b in range(8):
                da = values[row, col] - values[row + NEIGHBOR_OFFSETS[plane_a][0],
                                               col + NEIGHBOR_OFFSETS[plane_a][1]]
                db = values[row, col] - values[row + NEIGHBOR_OFFSETS[plane_b][0],
                                               col + NEIGHBOR_OFFSETS[plane_b][1]]
                expected = np.exp(-(da * da - db * db) / (2.0 * sigma_sq))
                got = weights[plane_a, row, col] / weights[plane_b, row, col]
                assert got == pytest.approx(expected, rel=1e-12)

    def test_single_dissimilar_neighbor_ratio(self):
        values = np.full((5, 5), 0.5)
        values[2, 3] = 0.9
        weights = affinity_weights(values)
        sigma_sq = patch_sigma_sq(values, 2, 2)
        expected = np.exp(-(0.4**2) / (2.0 * sigma_sq))
        # plane 4 is (0, +1): the odd neighbor; plane 3 is (0, -1): a same one
        got = weights[4, 2, 2] / weights[3, 2, 2]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_constant_guide_spreads_evenly(self):
        weights = affinity_weights(np.full((6, 6), 2.5))
        assert weights[:, 3, 3] == pytest.approx(np.full(8, 1.0 / 8.0))
        corner = weights[:, 0, 0]
        assert corner[corner > 0] == pytest.approx(np.full(3, 1.0 / 3.0))

    def test_pixel_without_neighbors_weighs_zero(self):
        # a 1x1 guide has no neighbor to normalize over: zeros, not 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = affinity_weights(np.ones((1, 1)))
        assert weights.shape == (8, 1, 1)
        assert np.isfinite(weights).all() and (weights == 0).all()

    def test_affine_guide_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.random((10, 10))
        base = affinity_weights(values)
        scaled = affinity_weights(7.0 * values - 4.0)
        assert np.allclose(base, scaled, atol=1e-12)


class TestBuildSystem:
    def test_two_pixel_system_by_hand(self):
        mask = np.array([[True, False]])
        clues = clues_of((1, 2), mask, [[0.7]], bands=1)
        system = build_system(np.array([[0.2, 0.9]]), clues)
        assert np.array_equal(
            system.matrix.toarray(), np.array([[2.0, -1.0], [-1.0, 1.0]])
        )
        assert np.array_equal(system.rhs, np.array([[0.7], [0.0]]))
        solution, _ = solve(system)
        assert solution == pytest.approx(np.array([[0.7], [0.7]]))

    def test_row_sums_encode_clue_layout(self):
        rng = np.random.default_rng(4)
        guide = rng.random((12, 9))
        mask = scatter_mask(12, 9, 0.15, seed=5)
        clues = clues_of((12, 9), mask, rng.random((int(mask.sum()), 3)))
        system = build_system(guide, clues)
        row_sums = np.asarray(system.matrix @ np.ones(12 * 9))
        assert np.allclose(row_sums, mask.ravel().astype(float), atol=1e-12)

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (1, 6), (5, 1), (2, 2), (2, 5), (3, 3), (13, 8), (24, 37), (70, 3)],
    )
    def test_matrix_is_the_canonical_csc_of_the_stencil(self, shape):
        rng = np.random.default_rng(sum(shape))
        guide = rng.random(shape)
        mask = scatter_mask(*shape, 0.2, seed=3)
        system = build_system(guide, clues_of(shape, mask, np.ones((mask.sum(), 1))))
        expected = coo_matrix_of(guide, mask).tocsc()
        matrix = system.matrix
        assert matrix.format == "csc" and matrix.has_canonical_format
        # the pixel-order copy is CSC as well, so converting it is free
        assert matrix.tocsc() is matrix
        for name in ("data", "indices", "indptr"):
            got, want = getattr(matrix, name), getattr(expected, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_dissection_orders_halves_first_and_strips_along_their_length(self):
        rank = colorizer._dissection_rank(5, 5)
        # the middle row splits the 5x5 grid: the 2x5 halves come first,
        # each column by column along its longer side, and the row last
        halves = np.arange(10).reshape(5, 2).T
        assert np.array_equal(rank[:2], halves)
        assert np.array_equal(rank[3:], 10 + halves)
        assert np.array_equal(rank[2], np.arange(20, 25))
        # a strip three times as long as it is wide is never cut
        strip = np.arange(120).reshape(40, 3)
        assert np.array_equal(colorizer._dissection_rank(40, 3), strip)
        assert np.array_equal(colorizer._dissection_rank(3, 40), strip.T)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (24, 37), (70, 3), (6, 40)])
    def test_ordered_matrix_is_the_stencil_in_dissection_order(self, shape):
        rng = np.random.default_rng(sum(shape))
        guide = rng.random(shape)
        mask = scatter_mask(*shape, 0.2, seed=4)
        system = build_system(guide, clues_of(shape, mask, np.ones((mask.sum(), 1))))
        assert np.array_equal(system.rank, colorizer._dissection_rank(*shape).ravel())
        ordered = system.ordered
        # canonical int32 CSC, which splu factors without a copy
        assert ordered.format == "csc" and ordered.has_canonical_format
        assert ordered.indices.dtype == np.int32
        # pixel p sits on row and column rank[p]
        pixel = np.argsort(system.rank)
        expected = coo_matrix_of(guide, mask).toarray()[np.ix_(pixel, pixel)]
        assert np.array_equal(ordered.toarray(), expected)

    def test_csc_products_match_csr_bit_for_bit(self):
        # residuals and BiCGStab iteration counts stay byte-identical to a
        # CSR system only while the products do
        rng = np.random.default_rng(21)
        mask = scatter_mask(37, 29, 0.05, seed=22)
        system = build_system(
            rng.random((37, 29)), clues_of((37, 29), mask, rng.random((mask.sum(), 2)))
        )
        csr = system.matrix.tocsr()
        block = np.asfortranarray(rng.standard_normal((37 * 29, 8)))
        vector = rng.standard_normal(37 * 29)
        for operand in (block, vector):
            assert (system.matrix @ operand).tobytes() == (csr @ operand).tobytes()

    def test_right_hand_side_stays_compact(self):
        rng = np.random.default_rng(23)
        mask = scatter_mask(96, 96, 0.04, seed=24)
        clues = clues_of((96, 96), mask, rng.random((mask.sum(), 31)))
        guide = rng.random((96, 96))
        system, peak = traced_peak(lambda: build_system(guide, clues))
        # a dense (pixels, channels) right-hand side alone would fill this
        assert peak < 96 * 96 * 31 * 8
        assert system.clue_values.shape == (mask.sum(), 31)
        assert np.array_equal(system.clue_rows, np.flatnonzero(mask))
        dense = system.rhs
        assert not dense.flags.writeable
        assert np.array_equal(dense[mask.ravel()], clues.spectra)
        assert not dense[~mask.ravel()].any()

    def test_requires_a_clue(self):
        clues = ClueSet(4, 4, wavelengths_for(2), np.zeros((4, 4), dtype=bool),
                        np.empty((0, 2)))
        with pytest.raises(ValidationError):
            build_system(np.zeros((4, 4)), clues)

    def test_grid_mismatch_rejected(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        clues = clues_of((4, 4), mask, [[1.0, 1.0]])
        with pytest.raises(ValidationError):
            build_system(np.zeros((4, 5)), clues)


class TestSolve:
    def random_system(self, height=20, width=20, bands=2, seed=0, lo=0.3, hi=0.9):
        rng = np.random.default_rng(seed)
        guide = rng.random((height, width))
        mask = scatter_mask(height, width, 0.06, seed=seed + 1)
        spectra = rng.uniform(lo, hi, (int(mask.sum()), bands))
        return build_system(guide, clues_of((height, width), mask, spectra))

    def test_solution_bounded_by_clue_range(self):
        system = self.random_system(seed=6)
        solution, _ = solve(system, method="direct")
        assert solution.min() >= 0.3 - 1e-9
        assert solution.max() <= 0.9 + 1e-9

    def test_constant_clues_solve_constant(self):
        rng = np.random.default_rng(7)
        mask = scatter_mask(10, 10, 0.1, seed=7)
        clues = clues_of((10, 10), mask, np.full((int(mask.sum()), 2), 0.65))
        solution, _ = solve(build_system(rng.random((10, 10)), clues))
        assert np.allclose(solution, 0.65, atol=1e-9)

    def test_direct_and_iterative_agree(self):
        system = self.random_system(height=32, width=32, seed=8)
        direct, rep_d = solve(system, method="direct")
        iterative, rep_i = solve(system, method="iterative", tol=1e-10)
        assert rep_d.method == "direct" and rep_i.method == "iterative"
        rel = np.linalg.norm(iterative - direct) / np.linalg.norm(direct)
        assert rel <= 1e-6
        assert all(n > 0 for n in rep_i.iterations)
        assert all(r <= 1e-10 for r in rep_i.residuals)

    def test_auto_picks_direct_for_small_grids(self):
        _, report = solve(self.random_system(), method="auto")
        assert report.method == "direct"

    def test_auto_picks_direct_for_256_grid(self):
        system = self.random_system(height=256, width=256, bands=2, seed=30)
        solution, report = solve(system, method="auto")
        assert report.method == "direct"
        assert report.iterations == (0, 0)
        assert all(r <= 1e-7 for r in report.residuals)
        assert 0 < report.factor_bytes <= 2**30
        assert "fits" in report.reason
        assert solution.flags.f_contiguous

    def test_factor_estimate_sends_harvard_frame_to_iterative(self):
        # decided from the pixel count alone; no 1040x1392 system is built
        method, factor_bytes, reason = _choose_method("auto", 1040 * 1392)
        assert method == "iterative"
        assert factor_bytes > 2**30
        assert "exceeds" in reason

    def test_explicit_method_is_kept(self):
        assert _choose_method("iterative", 64)[::2] == ("iterative", "requested")
        assert _choose_method("direct", 10**7)[::2] == ("direct", "requested")

    def test_concurrent_direct_solves_match_serial(self):
        systems = [self.random_system(height=40, width=40, seed=s) for s in range(6)]
        serial = [solve(system, method="direct")[0] for system in systems]
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve, system, method="direct") for system in systems]
            concurrent = [future.result(timeout=60)[0] for future in futures]
        for expected, got in zip(serial, concurrent):
            assert np.array_equal(expected, got)

    def test_factors_share_the_budget_across_threads(self, monkeypatch):
        monkeypatch.setattr(colorizer, "_DIRECT_SOLVE_BUDGET", 100)
        entered = {name: threading.Event() for name in "abc"}
        leave_a = threading.Event()

        def hold(name, nbytes, until=None):
            with _factor_room(nbytes):
                entered[name].set()
                if until is not None:
                    until.wait(timeout=10)

        a = threading.Thread(target=hold, args=("a", 60, leave_a))
        a.start()
        assert entered["a"].wait(timeout=10)
        b = threading.Thread(target=hold, args=("b", 60))
        c = threading.Thread(target=hold, args=("c", 30))
        b.start()
        c.start()
        # 60 + 30 fits beside a; 60 + 60 does not, so b waits for a
        assert entered["c"].wait(timeout=10)
        assert not entered["b"].wait(timeout=0.2)
        leave_a.set()
        assert entered["b"].wait(timeout=10)
        for thread in (a, b, c):
            thread.join(timeout=10)
        # a factor over the whole budget still runs once it is alone
        with _factor_room(500):
            assert colorizer._factor_bytes_in_use == 500
        assert colorizer._factor_bytes_in_use == 0

    def test_zero_channel_short_circuits(self):
        rng = np.random.default_rng(9)
        mask = scatter_mask(8, 8, 0.1, seed=9)
        spectra = np.column_stack(
            [rng.random(int(mask.sum())), np.zeros(int(mask.sum()))]
        )
        system = build_system(rng.random((8, 8)), clues_of((8, 8), mask, spectra))
        for method in ("iterative", "direct"):
            solution, report = solve(system, method=method)
            assert report.method == method
            assert np.array_equal(solution[:, 1], np.zeros(64))
            assert report.iterations[1] == 0 and report.residuals[1] == 0.0
            assert 0.0 < report.residuals[0] <= 1e-7

    @pytest.mark.parametrize("bands", [1, 8, 9, 31])
    def test_blocked_direct_solve_matches_single_columns(self, bands):
        system = self.random_system(height=24, width=37, bands=bands, seed=13)
        solution, report = solve(system, method="direct")
        # minimum degree on the pixel-order matrix: an oracle that shares
        # neither the dissection order nor the blocking
        factor = splu(
            system.matrix.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        expected = np.column_stack(
            [factor.solve(system.rhs[:, channel]) for channel in range(bands)]
        )
        rel = np.abs(solution - expected).max() / np.abs(expected).max()
        assert rel <= 1e-12
        assert solution.flags.f_contiguous
        assert report.iterations == (0,) * bands
        assert all(0.0 < r <= 1e-7 for r in report.residuals)

    def test_blocked_direct_solve_skips_interleaved_zero_channels(self):
        system = self.random_system(height=24, width=24, bands=19, seed=14)
        zero = [0, 3, 8, 9, 17]
        system.clue_values[:, zero] = 0.0
        solution, report = solve(system, method="direct")
        active = [c for c in range(19) if c not in zero]
        dense = np.linalg.solve(system.matrix.toarray(), system.rhs[:, active])
        assert np.allclose(solution[:, active], dense, rtol=0, atol=1e-10)
        for channel in range(19):
            if channel in zero:
                assert np.array_equal(solution[:, channel], np.zeros(24 * 24))
                assert report.residuals[channel] == 0.0
            else:
                assert 0.0 < report.residuals[channel] <= 1e-7
            assert report.iterations[channel] == 0

    @pytest.mark.parametrize("method", ["direct", "iterative"])
    def test_solve_holds_no_matrix_copy_or_dense_right_hand_side(self, method):
        system = self.random_system(height=96, width=96, bands=31, seed=15)
        (solution, _), peak = traced_peak(lambda: solve(system, method=method))
        # the solution plus three (pixels, 8) blocks; a dense right-hand
        # side of 31 channels would take nearly four blocks on its own
        block = 96 * 96 * 8 * 8
        assert peak <= solution.nbytes + 3 * block

    def test_unreachable_tolerance_raises_with_residual(self):
        system = self.random_system(height=48, width=48, seed=10)
        with pytest.raises(SolverError) as excinfo:
            solve(system, method="iterative", tol=1e-14, max_iter=1)
        assert isinstance(excinfo.value.residual, float)
        assert excinfo.value.residual > 1e-14

    def test_direct_solve_raises_at_the_first_failing_channel(self, monkeypatch):
        factor_lu = colorizer.sparse_linalg.splu

        class PerturbedFactor:
            """Solves exactly, except column 1 of a two-channel block."""

            def __init__(self, *args, **kwargs):
                self.factor = factor_lu(*args, **kwargs)

            def solve(self, rhs):
                solved = self.factor.solve(rhs)
                if rhs.shape[1] == 2:
                    solved[:, 1] += 1.0
                return solved

        monkeypatch.setattr(colorizer.sparse_linalg, "splu", PerturbedFactor)
        # channels 0-7 form one block and pass, channels 8 and 9 the next
        system = self.random_system(bands=10, seed=16)
        with pytest.raises(SolverError, match="on channel 9$") as excinfo:
            solve(system, method="direct")
        assert excinfo.value.residual > 1e-7
        assert colorizer._factor_bytes_in_use == 0

    def test_iterative_solve_raises_unless_bicgstab_converged(self, monkeypatch):
        system = self.random_system(seed=17)
        factor = splu(system.ordered, permc_spec="NATURAL")

        def exact_but_unconverged(matrix, rhs, **kwargs):
            return factor.solve(rhs), 1

        monkeypatch.setattr(colorizer.sparse_linalg, "bicgstab", exact_but_unconverged)
        with pytest.raises(SolverError, match="info 1.* on channel 0$") as excinfo:
            solve(system, method="iterative")
        assert excinfo.value.residual <= 1e-7

    @pytest.mark.parametrize("shape", [(128, 128), (64, 1024), (1024, 64)])
    def test_factor_estimate_bounds_the_superlu_factor(self, monkeypatch, shape):
        # while SuperLU factors, its memory peaks at about 14 bytes per
        # stored nonzero: a value, a row index and supernode bookkeeping
        height, width = shape
        rng = np.random.default_rng(18)
        mask = scatter_mask(height, width, 0.04, seed=19)
        system = build_system(
            rng.random(shape), clues_of(shape, mask, rng.random((int(mask.sum()), 1)))
        )
        factor_lu = colorizer.sparse_linalg.splu
        stored = []

        def counting_splu(*args, **kwargs):
            factor = factor_lu(*args, **kwargs)
            stored.append(factor.L.nnz + factor.U.nnz)
            return factor

        monkeypatch.setattr(colorizer.sparse_linalg, "splu", counting_splu)
        solve(system, method="direct")
        assert stored[0] * 14 <= colorizer._estimate_factor_bytes(height * width)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            solve(self.random_system(), method="cholesky")

    @pytest.mark.parametrize("method", ["direct", "iterative"])
    @pytest.mark.parametrize(
        "limits",
        [
            {"tol": 0.0},
            {"tol": -1e-7},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"max_iter": 0},
            {"tol": "x"},
            {"max_iter": 2.5},
        ],
    )
    def test_bad_tolerance_or_cap_rejected_before_solving(
        self, monkeypatch, method, limits
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(colorizer.sparse_linalg, "splu", must_not_run)
        monkeypatch.setattr(colorizer.sparse_linalg, "bicgstab", must_not_run)
        with pytest.raises(ValidationError):
            solve(self.random_system(), method=method, **limits)

    def test_transpose_equivariance(self):
        cube = random_cube(9, 13, 3, seed=11)
        mask = scatter_mask(9, 13, 0.12, seed=12)
        guide = guide_of(cube)
        solution, _ = solve(build_system(guide.values, cube_to_clues(cube, mask)))
        cube_t = HyperCube(cube.data.transpose(1, 0, 2), cube.wavelengths)
        sol_t, _ = solve(
            build_system(guide.values.T, cube_to_clues(cube_t, mask.T))
        )
        a = solution.reshape(9, 13, 3)
        b = sol_t.reshape(13, 9, 3).transpose(1, 0, 2)
        assert np.allclose(a, b, atol=1e-10)


class TestTwoRegionPropagation:
    def setup_method(self):
        self.cube, self.left, self.right = two_region_cube(40, 40, 4, seed=1)
        mask = np.zeros((40, 40), dtype=bool)
        mask[::4, ::4] = True
        self.clues = cube_to_clues(self.cube, mask)
        self.gap = np.linalg.norm(self.left - self.right)

    def recon_for(self, guide_values):
        solution, _ = solve(build_system(guide_values, self.clues), method="direct")
        return solution.reshape(40, 40, 4)

    def test_pixels_stay_on_their_side(self):
        recon = self.recon_for(guide_of(self.cube).values)
        for col, spectrum in ((range(0, 17), self.left), (range(23, 40), self.right)):
            other = self.right if spectrum is self.left else self.left
            for r in range(0, 40, 3):
                for c in col:
                    d_own = np.linalg.norm(recon[r, c] - spectrum)
                    d_other = np.linalg.norm(recon[r, c] - other)
                    assert d_own < d_other

    def test_edge_gates_diffusion(self):
        sharp = self.recon_for(guide_of(self.cube).values)
        flat = self.recon_for(np.full((40, 40), 0.5))
        err = lambda recon: max(
            np.linalg.norm(recon[r, c] - self.left) / self.gap
            for r in range(40)
            for c in range(0, 14)
        )
        assert err(sharp) < 0.12
        assert err(sharp) < 0.6 * err(flat)


class TestCanny:
    def test_step_edge_is_thin_and_full_height(self):
        guide = np.zeros((40, 40))
        guide[:, 20:] = 1.0
        edges = canny_edges(guide)
        cols = np.unique(np.nonzero(edges)[1])
        assert set(cols) <= {18, 19, 20, 21}
        assert np.unique(np.nonzero(edges)[0]).size == 40

    def test_constant_guide_has_no_edges(self):
        assert not canny_edges(np.full((30, 30), 0.4)).any()

    def test_hysteresis_keeps_connected_weak_tail(self):
        # contrast tapers from 1.0 to 0.06 down the rows; the weak lower
        # part survives because it 8-connects to the strong upper part
        height = 48
        amplitude = np.linspace(1.0, 0.06, height)[:, None]
        guide = np.zeros((height, 40))
        guide[:, 20:] = 1.0
        guide = guide * amplitude
        edges = canny_edges(guide)
        assert np.unique(np.nonzero(edges)[0]).max() >= 40

    def test_hysteresis_drops_isolated_weak_edge(self):
        guide = np.zeros((48, 80))
        guide[:, 20:] = 1.0
        guide[:, 60:] += 0.06
        edges = canny_edges(guide)
        assert not edges[:, 50:].any()

    def test_percentile_validation(self):
        with pytest.raises(ValidationError):
            canny_edges(np.zeros((8, 8)), low_percentile=80.0, high_percentile=70.0)
        with pytest.raises(ValidationError):
            canny_edges(np.zeros((8, 8)), low_percentile=-1.0)


class TestEdgeConfidence:
    def step_guide(self):
        guide = np.zeros((40, 40))
        guide[:, 20:] = 1.0
        return guide

    def test_unit_peak_and_range(self):
        confidence = edge_confidence(self.step_guide())
        assert confidence.max() == 1.0
        assert confidence.min() >= 0.0

    def test_monotone_decay_from_edge(self):
        confidence = edge_confidence(self.step_guide())
        row = confidence[20]
        assert row[20] > row[24] > row[28] > row[32]

    def test_no_edges_means_zero_confidence(self):
        assert not edge_confidence(np.full((25, 25), 0.8)).any()


class TestEdgeFilter:
    def test_flat_guide_pools_neighbor_clues(self):
        # no edges anywhere: each clue becomes the mean of the others
        mask = np.zeros((30, 30), dtype=bool)
        mask[5, 5] = mask[10, 10] = True
        spectra = np.array([[1.0, 3.0], [5.0, 7.0]])
        filtered = edge_filter(clues_of((30, 30), mask, spectra), np.full((30, 30), 0.5))
        assert filtered.spectra[0] == pytest.approx([5.0, 7.0], abs=1e-12)
        assert filtered.spectra[1] == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_lonely_clue_passes_through(self):
        # window is 21x21: clues 38 pixels apart never see each other
        mask = np.zeros((48, 48), dtype=bool)
        mask[2, 2] = mask[40, 40] = True
        spectra = np.array([[0.9, 0.1], [0.2, 0.8]])
        filtered = edge_filter(clues_of((48, 48), mask, spectra), np.full((48, 48), 0.5))
        assert np.array_equal(filtered.spectra, spectra)

    def test_identical_clues_are_a_fixed_point(self):
        mask = scatter_mask(25, 25, 0.2, seed=13)
        spectra = np.tile([0.4, 0.6], (int(mask.sum()), 1))
        guide = np.random.default_rng(14).random((25, 25))
        filtered = edge_filter(clues_of((25, 25), mask, spectra), guide)
        assert np.allclose(filtered.spectra, spectra, atol=1e-12)

    def test_full_confidence_keeps_own_spectrum(self):
        guide = np.zeros((40, 40))
        guide[:, 20:] = 1.0
        confidence = edge_confidence(guide)
        peak_row, peak_col = np.unravel_index(np.argmax(confidence), confidence.shape)
        mask = np.zeros((40, 40), dtype=bool)
        mask[peak_row, peak_col] = True
        mask[peak_row, peak_col + 4] = True
        own = np.array([9.0, 1.0])
        order = np.argsort([peak_col, peak_col + 4])
        spectra = np.array([own, [2.0, 2.0]])[order]
        filtered = edge_filter(clues_of((40, 40), mask, spectra), guide)
        assert np.array_equal(filtered.spectra[order[0]], own)

    def test_noise_variance_collapses_off_edge(self):
        rng = np.random.default_rng(15)
        mask = np.ones((40, 40), dtype=bool)
        truth = np.array([0.5, 0.7])
        spectra = truth + rng.normal(0.0, 0.1, (1600, 2))
        filtered = edge_filter(clues_of((40, 40), mask, spectra), np.full((40, 40), 0.5))
        before = ((spectra - truth) ** 2).mean()
        after = ((filtered.spectra - truth) ** 2).mean()
        assert after < 0.02 * before

    def test_matches_dense_cube_formula(self):
        # reference: filter a dense (height, width, bands) clue cube at once
        rng = np.random.default_rng(31)
        guide = rng.random((37, 29))
        guide[:, 15:] += 2.0
        mask = scatter_mask(37, 29, 0.2, seed=32)
        clues = clues_of((37, 29), mask, rng.random((int(mask.sum()), 5)))
        dense = np.zeros((37, 29, 5))
        dense[mask] = clues.spectra
        totals = ndimage.uniform_filter(dense, size=(21, 21, 1), mode="constant") * 441.0
        counts = np.rint(
            ndimage.uniform_filter(mask.astype(float), size=21, mode="constant") * 441.0
        )
        others = totals[mask] - clues.spectra
        count = counts[mask][:, None] - 1.0
        zeta = edge_confidence(guide)[mask][:, None]
        mean = np.where(count > 0, others / np.maximum(count, 1.0), clues.spectra)
        expected = np.where(
            count > 0, zeta * clues.spectra + (1.0 - zeta) * mean, clues.spectra
        )
        assert np.array_equal(edge_filter(clues, guide).spectra, expected)

    def test_guide_shape_mismatch(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        with pytest.raises(ValidationError):
            edge_filter(clues_of((4, 4), mask, [[1.0, 1.0]]), np.zeros((5, 4)))


class TestLuminanceRescale:
    def test_consistent_cube_is_fixed_point(self):
        cube = random_cube(12, 14, 5, seed=16)
        guide = make_guide(cube)
        rescaled, degenerate = luminance_rescale(cube, guide)
        assert np.allclose(rescaled.data, cube.data, atol=1e-10)
        assert not degenerate.any()

    def test_homogeneous_in_reconstruction_scale(self):
        cube = random_cube(10, 10, 4, seed=17)
        guide = make_guide(cube)
        boosted = HyperCube(3.0 * cube.data, cube.wavelengths)
        a, _ = luminance_rescale(cube, guide)
        b, _ = luminance_rescale(boosted, guide)
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_output_brightness_follows_guide(self):
        recon = random_cube(11, 11, 4, seed=18)
        guide = make_guide(random_cube(11, 11, 4, seed=19))
        rescaled, _ = luminance_rescale(recon, guide)
        assert np.allclose(make_guide(rescaled).values, guide.values, atol=1e-10)

    def test_zero_spectrum_pixel_flagged_and_passed(self):
        data = np.full((3, 3, 2), 0.5)
        data[1, 1] = 0.0
        flat = SpectralResponse(wavelengths_for(2), np.ones(2))
        rescaled, degenerate = luminance_rescale(
            data, np.full((3, 3), 0.25), response_guide=flat, alpha=1.0
        )
        assert degenerate.sum() == 1 and degenerate[1, 1]
        assert np.array_equal(rescaled[1, 1], [0.0, 0.0])

    def test_matches_cube_formula_with_degenerate_pixels(self):
        recon = random_cube(9, 8, 4, seed=33).data.copy()
        recon[2, 3] = 0.0
        guide = make_guide(random_cube(9, 8, 4, seed=34)).values
        flat = SpectralResponse(wavelengths_for(4), np.ones(4))
        rescaled, degenerate = luminance_rescale(
            recon, guide, response_guide=flat, alpha=1.7
        )
        # flat responses: the denominator is the summed absolute spectrum
        denominator = np.abs(recon) @ np.ones(4)
        flagged = denominator < 1e-12
        safe = np.where(flagged, 1.0, denominator)
        expected = np.where(
            flagged[:, :, None], recon, 1.7 * guide[:, :, None] * recon / safe[:, :, None]
        )
        assert np.array_equal(degenerate, flagged) and flagged.sum() == 1
        assert np.array_equal(rescaled, expected)

    def test_explicit_alpha_scales_linearly(self):
        recon = random_cube(6, 6, 3, seed=20)
        guide = make_guide(recon)
        single = luminance_rescale(recon, guide, alpha=1.0)[0].data
        double = luminance_rescale(recon, guide, alpha=2.0)[0].data
        assert np.allclose(double, 2.0 * single, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, "x", True])
    def test_alpha_validation(self, alpha):
        recon = random_cube(4, 4, 2)
        with pytest.raises(ValidationError):
            luminance_rescale(recon, make_guide(recon), alpha=alpha)

    def test_guide_response_defaults_to_the_visible_window(self):
        cube = random_cube(6, 7, 5, seed=35)
        cube = HyperCube(cube.data, np.linspace(620.0, 780.0, 5))
        rescaled, _ = luminance_rescale(cube, make_guide(cube))
        np.testing.assert_allclose(rescaled.data, cube.data, rtol=1e-12, atol=0)

    def test_bare_array_needs_a_response(self):
        recon = random_cube(4, 4, 3)
        with pytest.raises(ValidationError, match="SpectralResponse"):
            luminance_rescale(recon.data, make_guide(recon))

    @pytest.mark.parametrize("weights", [
        [0.5, np.nan, 0.5], [0.5, np.inf, 0.5], [0.5, 0.5], [0.2, 0.3, 0.4, 0.1],
    ])
    def test_bad_response_rejected(self, weights):
        recon = random_cube(4, 4, 3)
        guide = make_guide(recon)
        with pytest.raises(ValidationError):
            luminance_rescale(recon, guide, response_guide=np.array(weights))
        if np.all(np.isfinite(weights)):
            response = SpectralResponse(wavelengths_for(len(weights)), weights)
            for data in (recon, recon.data):
                with pytest.raises(ValidationError, match="covers"):
                    luminance_rescale(data, guide, response_guide=response)

    def test_response_over_other_wavelengths_rejected(self):
        recon = random_cube(4, 4, 3)
        guide = make_guide(recon)
        response = SpectralResponse(np.linspace(800.0, 900.0, 3), np.ones(3))
        with pytest.raises(ValidationError, match="wavelengths differ"):
            luminance_rescale(recon, guide, response_guide=response)
        # a bare array has no wavelengths to compare, only a band count
        luminance_rescale(recon.data, guide, response_guide=response)

    @pytest.mark.parametrize("recon, message", [
        ("x", "not numeric"), (np.full((4, 4, 3), np.nan), "non-finite"),
        (np.ones((4, 4)), "3-dimensional"),
    ])
    def test_reconstruction_is_a_finite_cube(self, recon, message):
        guide = np.ones((4, 4))
        flat = SpectralResponse(wavelengths_for(3), np.ones(3))
        with pytest.raises(ValidationError, match=message):
            luminance_rescale(recon, guide, response_guide=flat)

    def test_guide_on_another_grid_rejected(self):
        recon = random_cube(4, 4, 3)
        with pytest.raises(ValidationError, match="guide shape"):
            luminance_rescale(recon, np.ones((4, 5)))

    def test_non_finite_guide_rejected(self):
        recon = random_cube(4, 4, 3)
        guide = make_guide(recon).values.copy()
        guide[2, 1] = np.nan
        flat = SpectralResponse(recon.wavelengths, np.ones(3))
        with pytest.raises(ValidationError, match="guide values contains non-finite"):
            luminance_rescale(recon.data, guide, response_guide=flat)


class TestColorize:
    def test_single_direction_scene_recovers_exactly(self):
        cube = rank1_cube(24, 24, 5, seed=24)
        guide = make_guide(cube)
        result = colorize(guide, full_clues(cube), apply_edge_filter=False)
        assert np.max(np.abs(result.cube.data - cube.data)) <= 1e-8

    def test_low_rank_subspace_matches_full_width(self):
        cube = random_cube(20, 20, 6, seed=25, rank=3)
        guide = make_guide(cube)
        basis = learn_basis(cube)
        clues = cube_to_clues(cube, scatter_mask(20, 20, 0.1, seed=26))
        slim = colorize(guide, clues, basis=basis, dim=3, apply_edge_filter=False)
        wide = colorize(guide, clues, basis=basis, dim=6, apply_edge_filter=False)
        assert np.max(np.abs(slim.cube.data - wide.cube.data)) <= 1e-6
        assert slim.dimension == 3 and wide.dimension == 6

    def test_output_is_nonnegative(self):
        cube = random_cube(16, 16, 4, seed=27)
        clues = cube_to_clues(cube, scatter_mask(16, 16, 0.08, seed=28))
        result = colorize(make_guide(cube), clues)
        assert (result.cube.data >= 0).all()

    def test_reports_solver_diagnostics(self):
        cube = random_cube(14, 14, 3, seed=29)
        clues = cube_to_clues(cube, scatter_mask(14, 14, 0.1, seed=30))
        result = colorize(make_guide(cube), clues, apply_edge_filter=False)
        assert result.solver_method == "direct"
        assert len(result.residuals) == 3 and len(result.iterations) == 3
        assert result.dimension is None
        assert result.degenerate_pixels >= 0

    def test_channel_count_follows_dim(self):
        cube = random_cube(12, 12, 5, seed=31)
        basis = learn_basis(cube)
        clues = cube_to_clues(cube, scatter_mask(12, 12, 0.1, seed=32))
        result = colorize(make_guide(cube), clues, basis=basis, dim=2)
        assert len(result.residuals) == 2
        assert result.cube.bands == 5

    @pytest.mark.parametrize("response, nan_guide", [
        (np.array([0.5, np.nan, 0.5]), False),
        (np.array([0.5, np.inf, 0.5]), False),
        (np.ones(3), False),
        (SpectralResponse(wavelengths_for(4), np.ones(4)), False),
        (SpectralResponse(np.linspace(800.0, 900.0, 3), np.ones(3)), False),
        (None, True),
    ], ids=["nan", "inf", "array", "length", "wavelengths", "nan guide"])
    def test_bad_guide_side_input_rejected_before_any_work(
        self, monkeypatch, response, nan_guide
    ):
        cube = random_cube(8, 8, 3, seed=37)
        guide = make_guide(cube).values.copy()
        if nan_guide:
            guide[3, 4] = np.nan
        calls = []
        for stage in ("edge_filter", "build_system"):
            monkeypatch.setattr(
                colorizer, stage, lambda *args, _stage=stage, **kw: calls.append(_stage)
            )
        with pytest.raises(ValidationError):
            colorize(guide, full_clues(cube), response_guide=response)
        assert calls == []

    @pytest.mark.parametrize("alpha", [-1.0, "x", True])
    def test_bad_alpha_rejected_before_any_work(self, costly_stages, alpha):
        cube = random_cube(8, 8, 3, seed=37)
        with pytest.raises(ValidationError, match="alpha"):
            colorize(make_guide(cube), full_clues(cube), rescale_alpha=alpha)
        assert costly_stages == []

    @pytest.mark.parametrize("controls", [
        {"method": "iterative", "max_iter": 2.5},
        {"tol": "x"},
    ])
    def test_bad_solver_control_rejected_before_any_work(self, costly_stages, controls):
        cube = random_cube(8, 8, 3, seed=37)
        with pytest.raises(ValidationError):
            colorize(make_guide(cube), full_clues(cube), **controls)
        assert costly_stages == []

    def test_basis_over_other_wavelengths_rejected_before_any_work(self, costly_stages):
        cube = random_cube(8, 8, 3, seed=37)
        far = learn_basis(HyperCube(cube.data, wavelengths_for(3, (800.0, 900.0))))
        with pytest.raises(ValidationError, match="basis wavelengths differ"):
            colorize(make_guide(cube), full_clues(cube), far)
        assert costly_stages == []

    def test_dim_without_basis_rejected(self):
        cube = random_cube(8, 8, 3)
        clues = cube_to_clues(cube, scatter_mask(8, 8, 0.1))
        with pytest.raises(ValidationError):
            colorize(make_guide(cube), clues, dim=2)
