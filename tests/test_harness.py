"""Experiment harness: configs, the pipeline, grids, sweeps, and exports."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import sys
import threading
import time
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from hypercolor import (
    ConfigError,
    DimensionModel,
    DimensionSearchResult,
    ExperimentConfig,
    HyperCube,
    MetricReport,
    SolverError,
    ValidationError,
    VarianceCurve,
    compare_sampling,
    export_plotdata,
    grid_search_dimension,
    load_config,
    run_pipeline,
    time_budget_sweep,
    train_dimension_model,
    write_json,
)
from hypercolor import harness
from hypercolor.harness import PipelineResult, _acquire, _best_by_emd, _run_many
from hypercolor.metrics import _evaluate_with_emd_values

from conftest import random_cube, wavelengths_for


def fast_config(**overrides) -> ExperimentConfig:
    """Small, direct-solver config so pipeline tests stay quick."""
    base = {"rate": 0.25, "solver": "direct", "pattern": "uniform-whisk"}
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_cube() -> HyperCube:
    data = np.full((2, 2, 3), 0.5)
    return HyperCube(data, wavelengths_for(3))


def make_result(image, metrics, config=None, emd_histogram=None) -> PipelineResult:
    """Hand-built result with fixed bookkeeping for serialization goldens."""
    config = config if config is not None else ExperimentConfig()
    return PipelineResult(
        config=config,
        image=image,
        mask_count=4,
        clue_time=0.25,
        guide_time=0.25,
        dimension=3,
        basis_rank=3,
        solver_method="direct",
        residuals=(0.0,),
        iterations=(0,),
        degenerate_pixels=0,
        metrics=metrics,
        recon=tiny_cube(),
        mask=np.ones((2, 2), dtype=bool),
        emd_histogram=emd_histogram,
    )


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.seed == 0
        assert config.time_budget == 1.0
        assert config.guide_budget is None
        assert config.rho == 9.6e7
        assert config.mu == 0.0
        assert config.sigma == 0.1
        assert config.pattern == "uniform-whisk"
        assert config.rate == 0.04
        assert config.sample_alpha == 0.7
        assert config.dim is None
        assert config.rank is None
        assert config.basis_source == "clues"
        assert config.edge_filter is True
        assert config.solver == "auto"
        assert config.tol == 1e-7
        assert config.max_iter == 10_000
        assert config.rescale_alpha == "auto"
        assert config.include_timing is False
        assert config.workers == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"time_budget": 0.0},
            {"time_budget": -1.0},
            {"guide_budget": 0.0},
            {"pattern": "sobol"},
            {"rate": 0.0},
            {"rate": 1.5},
            {"dim": "elbow"},
            {"dim": 0},
            {"rank": 0},
            {"basis_source": "guide"},
            {"solver": "cg"},
            {"tol": 0.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"guide_budget": float("nan")},
            {"guide_budget": float("inf")},
            {"max_iter": 0},
            {"max_iter": float("nan")},
            {"rescale_alpha": "none"},
            {"rescale_alpha": 0.0},
            {"rescale_alpha": -1.0},
            {"workers": 0},
            {"sample_alpha": 2.0},
            {"rho": 0.0},
            {"sigma": -1.0},
            {"seed": -1},
            {"workers": 2.5},
            {"workers": True},
            {"dim": 2.5},
            {"dim": True},
            {"max_iter": 2.5},
            {"rank": 2.5},
            {"edge_filter": 0},
            {"tol": "x"},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides)

    @pytest.mark.parametrize("field, value, plain", [
        ("seed", np.int64(3), 3),
        ("rate", np.float32(0.25), 0.25),
        ("time_budget", 1, 1.0),
        ("seed", "3", 3),
    ])
    def test_every_form_of_a_setting_writes_the_same_report(
        self, tmp_path, field, value, plain
    ):
        cube = random_cube(12, 12, 4, rank=3, seed=5)
        for name, form in (("value", value), ("plain", plain)):
            result = run_pipeline(cube, fast_config(**{field: form}))
            write_json(result, tmp_path / f"{name}.json")
        assert (tmp_path / "value.json").read_bytes() == (
            tmp_path / "plain.json"
        ).read_bytes()

    def test_dim_auto_accepted(self):
        assert ExperimentConfig(dim="auto").dim == "auto"

    def test_frozen(self):
        config = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.rate = 0.5


class TestLoadConfig:
    def test_no_sources_gives_defaults(self):
        assert load_config(None, env={}) == ExperimentConfig()

    def test_file_values(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "time_budget": 0.25,
                    "pattern": "random",
                    "dim": "auto",
                    "rank": None,
                    "edge_filter": False,
                    "workers": 3,
                }
            )
        )
        config = load_config(path, env={})
        assert config.time_budget == 0.25
        assert config.pattern == "random"
        assert config.dim == "auto"
        assert config.rank is None
        assert config.edge_filter is False
        assert config.workers == 3
        assert config.rate == 0.04

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"exposure": 1.0}))
        with pytest.raises(ConfigError, match="exposure"):
            load_config(path, env={})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("not json")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"time_budget": 0.25}))
        config = load_config(path, env={"HYPERCOLOR_TIME_BUDGET": "0.5"})
        assert config.time_budget == 0.5

    def test_env_string_parsing(self):
        env = {
            "HYPERCOLOR_DIM": "auto",
            "HYPERCOLOR_EDGE_FILTER": "off",
            "HYPERCOLOR_RANK": "none",
            "HYPERCOLOR_MAX_ITER": "500",
            "HYPERCOLOR_RESCALE_ALPHA": "2.5",
        }
        config = load_config(None, env=env)
        assert config.dim == "auto"
        assert config.edge_filter is False
        assert config.rank is None
        assert config.max_iter == 500
        assert config.rescale_alpha == 2.5

    def test_bad_env_value(self):
        with pytest.raises(ConfigError):
            load_config(None, env={"HYPERCOLOR_RATE": "fast"})

    def test_file_type_mismatches_rejected(self, tmp_path):
        for payload in ({"seed": 1.5}, {"edge_filter": "maybe"}, {"pattern": 3}):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(ConfigError):
                load_config(path, env={})


class TestRunPipeline:
    def test_to_dict_schema(self):
        cube = random_cube(20, 20, 5, rank=3, seed=1)
        result = run_pipeline(cube, fast_config(), label="demo")
        row = result.to_dict()
        assert set(row) == {
            "image",
            "pattern",
            "rate",
            "seed",
            "time_budget",
            "mask_count",
            "t_exposure",
            "guide_time",
            "dim",
            "basis_rank",
            "solver_method",
            "residual_max",
            "iterations_total",
            "degenerate_pixels",
            "metrics",
            "config",
            "wall_ms",
        }
        assert row["image"] == "demo"
        assert row["pattern"] == "uniform-whisk"
        assert row["solver_method"] == "direct"
        expected_config = asdict(fast_config())
        del expected_config["workers"]
        assert row["config"] == expected_config
        assert set(row["metrics"]) == {"psnr_db", "ssim", "gfc", "ssv", "emd", "wall_ms"}
        # timing is zeroed unless explicitly requested
        assert row["wall_ms"] == 0.0
        assert row["metrics"]["wall_ms"] == 0.0
        assert result.wall_ms > 0.0

    def test_time_conservation(self):
        cube = random_cube(20, 20, 5, rank=3, seed=1)
        config = fast_config(rate=1.0, time_budget=0.7, guide_budget=2.0)
        result = run_pipeline(cube, config)
        assert result.mask_count == 400
        assert result.clue_time == 0.7 / 400
        assert result.guide_time == 2.0 / 400
        assert result.clue_time * result.mask_count == pytest.approx(0.7, rel=1e-12)

    def test_guide_budget_defaults_to_time_budget(self):
        cube = random_cube(20, 20, 5, rank=3, seed=1)
        result = run_pipeline(cube, fast_config(time_budget=0.5))
        assert result.guide_time == 0.5 / 400

    def test_determinism(self):
        cube = random_cube(20, 20, 5, rank=3, seed=2)
        first = run_pipeline(cube, fast_config(), label="x")
        second = run_pipeline(cube, fast_config(), label="x")
        assert np.array_equal(first.recon.data, second.recon.data)
        assert np.array_equal(first.mask, second.mask)
        assert first.to_dict() == second.to_dict()

    def test_seed_changes_noise(self):
        cube = random_cube(20, 20, 5, rank=3, seed=2)
        first = run_pipeline(cube, fast_config(seed=0))
        second = run_pipeline(cube, fast_config(seed=1))
        assert not np.array_equal(first.recon.data, second.recon.data)

    def test_explicit_dim_respected(self):
        cube = random_cube(20, 20, 5, rank=3, seed=3)
        result = run_pipeline(cube, fast_config(dim=2))
        assert result.dimension == 2
        assert result.recon.bands == 5

    def test_dim_exceeding_rank_rejected(self):
        cube = random_cube(20, 20, 5, rank=3, seed=3)
        with pytest.raises(ConfigError):
            run_pipeline(cube, fast_config(dim=6))

    def test_auto_dim_finds_scene_rank(self):
        # low-noise rank-3 scene: the variance-curve elbow lands on 3
        cube = random_cube(24, 24, 5, rank=3, seed=4)
        config = fast_config(dim="auto", basis_source="truth")
        result = run_pipeline(cube, config)
        assert result.dimension == 3
        assert result.basis_rank == 5

    def test_auto_dim_consults_model(self):
        cube = random_cube(20, 20, 5, rank=3, seed=4)
        always_two = DimensionModel(2.0, 0.0, 0.0, 0.0, 0.0, 0.0, clamp_max=5)
        config = fast_config(dim="auto", basis_source="truth")
        result = run_pipeline(cube, config, model=always_two)
        assert result.dimension == 2

    def test_auto_dim_needs_full_rank_basis(self):
        cube = random_cube(20, 20, 5, rank=3, seed=4)
        config = fast_config(dim="auto", basis_source="truth", rank=3)
        with pytest.raises(ConfigError):
            run_pipeline(cube, config)

    def test_empty_mask_rejected(self):
        cube = random_cube(20, 20, 5, rank=3, seed=5)
        with pytest.raises(ValidationError):
            run_pipeline(cube, fast_config(pattern="random", rate=1e-9))


class TestBestByEmd:
    def test_exact_tie_prefers_smaller_dim(self):
        assert _best_by_emd((5, 3), (0.5, 0.5)) == 3

    def test_tie_window_is_one_nano(self):
        assert _best_by_emd((2, 3), (0.5 + 5e-10, 0.5)) == 2
        assert _best_by_emd((2, 3), (0.5 + 1e-8, 0.5)) == 3

    def test_single_candidate(self):
        assert _best_by_emd((4,), (0.9,)) == 4

    def test_clear_minimum_wins(self):
        assert _best_by_emd((2, 3, 5), (0.4, 0.1, 0.2)) == 3


class TestGridSearch:
    def test_grid_shape_and_ordering(self):
        cube = random_cube(20, 20, 5, rank=3, seed=6)
        config = fast_config(basis_source="truth")
        search = grid_search_dimension(cube, config, (2, 3, 5), budgets=(0.5, 2.0))
        assert search.budgets == (0.5, 2.0)
        assert search.dims == (2, 3, 5)
        rows = search.rows()
        assert [(r["time_budget"], r["dim"]) for r in rows] == [
            (0.5, 2),
            (0.5, 3),
            (0.5, 5),
            (2.0, 2),
            (2.0, 3),
            (2.0, 5),
        ]
        for budget, best in zip(search.budgets, search.best_dims):
            flags = [r["best"] for r in rows if r["time_budget"] == budget]
            assert sum(flags) == 1
            assert best in search.dims

    def test_shared_solve_matches_per_dim_pipeline(self):
        # one full-width solve, prefix channels sliced per dim, must score
        # exactly as running the pipeline separately at that dim does
        config = fast_config()
        for shape, dims in (((20, 20, 5), (2, 3, 5)), ((33, 27, 8), (2, 4, 8))):
            cube = random_cube(*shape, rank=3, seed=7)
            search = grid_search_dimension(cube, config, dims)
            for row, dim in zip(search.rows(), search.dims):
                single = run_pipeline(cube, replace(config, dim=dim))
                expected = single.to_dict()["metrics"]
                assert row["metrics"] == expected, (shape, dim)

    def test_best_dim_matches_scene_rank(self):
        cube = random_cube(24, 24, 5, rank=3, seed=8)
        config = fast_config(basis_source="truth")
        search = grid_search_dimension(cube, config, (2, 3, 4, 5))
        assert search.best_dims == (3,)

    def test_curves_follow_basis_rank(self):
        cube = random_cube(20, 20, 5, rank=3, seed=9)
        full = grid_search_dimension(cube, fast_config(basis_source="truth"), (2, 3))
        assert all(curve is not None for curve in full.curves)
        assert full.curves[0].dimensions == 5
        truncated = grid_search_dimension(
            cube, fast_config(basis_source="truth", rank=3), (2, 3)
        )
        assert truncated.curves == (None,)

    def test_validation(self):
        cube = random_cube(20, 20, 5, rank=3, seed=9)
        config = fast_config(basis_source="truth")
        with pytest.raises(ValidationError):
            grid_search_dimension(cube, config, ())
        with pytest.raises(ConfigError):
            grid_search_dimension(cube, config, (2, 2, 3))
        with pytest.raises(ValidationError):
            grid_search_dimension(cube, config, (2, 3), budgets=())
        with pytest.raises(ConfigError):
            grid_search_dimension(cube, replace(config, rank=3), (2, 4))


class TestTraining:
    def _cubes(self):
        return [
            random_cube(16, 16, 4, rank=2, seed=10),
            random_cube(16, 16, 4, rank=3, seed=11),
        ]

    def test_training_rows_and_rmse(self):
        result = train_dimension_model(
            self._cubes(), fast_config(), budgets=(0.5, 1.0, 2.0)
        )
        assert len(result.rows) == 6
        for row in result.rows:
            assert set(row) == {
                "cube",
                "time_budget",
                "elbow",
                "log_min_variance",
                "best_dim",
                "predicted_dim",
            }
            assert 2 <= row["best_dim"] <= 4
        recomputed = math.sqrt(
            np.mean(
                [(r["predicted_dim"] - r["best_dim"]) ** 2 for r in result.rows]
            )
        )
        assert result.in_sample_rmse == pytest.approx(recomputed, rel=1e-12)
        payload = result.to_dict()
        assert payload["kind"] == "training"
        assert payload["in_sample_rmse"] == result.in_sample_rmse

    def test_training_model_predicts_in_range(self):
        result = train_dimension_model(
            self._cubes(), fast_config(), budgets=(0.5, 1.0, 2.0)
        )
        curve = VarianceCurve([1.0, 0.1, 0.01, 0.001], 2, -3.0)
        assert 2 <= result.model.predict(curve) <= result.model.clamp_max

    def test_training_rejects_truncated_basis(self):
        with pytest.raises(ConfigError):
            train_dimension_model(self._cubes(), fast_config(rank=2), budgets=(1.0,))

    def test_training_needs_inputs(self):
        with pytest.raises(ValidationError):
            train_dimension_model([], fast_config(), budgets=(1.0,))
        with pytest.raises(ValidationError):
            train_dimension_model(self._cubes(), fast_config(), budgets=())


def _refuse_acquisition(*_args, **_kwargs):
    raise AssertionError("a run simulated its acquisition before checking its settings")


# each run entry point, called on a 4-band cube with a config and the
# candidate dims of a search
_RUNS = {
    "run_pipeline": lambda cube, config, dims: run_pipeline(cube, config),
    "time_budget_sweep":
        lambda cube, config, dims: time_budget_sweep(cube, config, (0.1, 0.2)),
    "compare_sampling": lambda cube, config, dims: compare_sampling(cube, config),
    "grid_search_dimension":
        lambda cube, config, dims: grid_search_dimension(cube, config, dims),
    "train_dimension_model": lambda cube, config, dims: train_dimension_model(
        [cube, cube], config, (0.5, 1.0), dims),
}
_SEARCHES = ("grid_search_dimension", "train_dimension_model")
# settings that do not fit a 4-band cube, as config overrides plus, for
# the searches, candidate dims; the default dims (2, 3) fit
_UNFIT_RUN = ({"rank": 5}, {"dim": 5}, {"dim": 3, "rank": 2},
              {"dim": "auto", "rank": 2}, {"rescale_alpha": -1.0})
_UNFIT_SEARCH = ({"rank": 5}, {"rank": 2}, {"rescale_alpha": 0.0},
                 {"dims": (2, 5)}, {"dims": (0, 2)}, {"dims": (2, 3, 2)})


class TestSettingsAreCheckedBeforeSimulation:
    @pytest.mark.parametrize("entry, settings", [
        (entry, settings) for entry in _RUNS
        for settings in (_UNFIT_SEARCH if entry in _SEARCHES else _UNFIT_RUN)
    ])
    def test_a_setting_that_does_not_fit_the_cube(self, monkeypatch, entry, settings):
        monkeypatch.setattr(harness, "_acquire", _refuse_acquisition)
        cube = random_cube(12, 12, 4, rank=3, seed=24)
        overrides = dict(settings)
        dims = overrides.pop("dims", (2, 3))
        with pytest.raises(ConfigError):
            _RUNS[entry](cube, fast_config(**overrides), dims)

    def test_training_checks_every_cube_before_its_first_search(self, monkeypatch):
        monkeypatch.setattr(harness, "_acquire", _refuse_acquisition)
        wide = random_cube(12, 12, 6, rank=3, seed=24)
        narrow = random_cube(12, 12, 4, rank=3, seed=25)
        with pytest.raises(ConfigError, match="dim 5"):
            train_dimension_model([wide, narrow], fast_config(), (1.0,), (2, 5))
        # the dims fit, but a truncated basis gives no variance curve
        with pytest.raises(ConfigError, match="full-rank"):
            train_dimension_model([wide, narrow], fast_config(rank=3), (1.0,), (2, 3))


class TestCandidateDimensionsAreTyped:
    @pytest.mark.parametrize("dims", [["a"], [2.5], [True, 3]])
    @pytest.mark.parametrize("entry", _SEARCHES)
    def test_a_bad_candidate_is_rejected_before_any_work(
        self, costly_stages, entry, dims
    ):
        cube = random_cube(12, 12, 4, rank=3, seed=24)
        with pytest.raises(ConfigError, match="dims"):
            _RUNS[entry](cube, fast_config(), dims)
        assert costly_stages == []


class TestListArguments:
    @pytest.mark.parametrize("name, call", [
        ("dims", lambda cube, config: grid_search_dimension(cube, config, 3)),
        ("budgets", lambda cube, config: grid_search_dimension(cube, config, (2,), 0.5)),
        ("ratios", lambda cube, config: time_budget_sweep(cube, config, 0.1)),
        ("budgets", lambda cube, config: train_dimension_model([cube], config, 0.5)),
        ("dims", lambda cube, config: train_dimension_model([cube], config, (0.5,), 3)),
        ("cubes", lambda cube, config: train_dimension_model(cube, config, (0.5,))),
        ("patterns", lambda cube, config: compare_sampling(cube, config, "random")),
    ], ids=["search-dims", "search-budgets", "sweep-ratios", "training-budgets",
            "training-dims", "training-cubes", "comparison-patterns"])
    def test_one_value_or_a_string_is_no_list(self, costly_stages, name, call):
        cube = random_cube(12, 12, 4, rank=3, seed=24)
        with pytest.raises(ValidationError, match=f"{name} must be a list"):
            call(cube, fast_config())
        assert costly_stages == []

    def test_any_iterable_is_a_list(self):
        cube = random_cube(12, 12, 4, rank=3, seed=24)
        listed = compare_sampling(cube, fast_config(), ["random", "uniform-push"])
        generated = compare_sampling(cube, fast_config(), iter(("random", "uniform-push")))
        assert listed.to_dict() == generated.to_dict()


class TestSweeps:
    def test_budget_sweep_attaches_histograms(self):
        cube = random_cube(20, 20, 5, rank=3, seed=12)
        sweep = time_budget_sweep(cube, fast_config(), (0.05, 0.2))
        assert len(sweep.results) == 2
        for result in sweep.results:
            assert len(result.emd_histogram) == 50
            _report, values = _evaluate_with_emd_values(cube, result.recon)
            finite = values[np.isfinite(values)]
            assert sum(result.emd_histogram) == finite.size == 400
            counts, _edges = np.histogram(finite, bins=50, range=(0.0, 1.0))
            assert result.emd_histogram == tuple(int(c) for c in counts)

    def test_budget_sweep_re_splits_fixed_budget(self):
        cube = random_cube(20, 20, 5, rank=3, seed=12)
        config = fast_config(time_budget=0.8)
        sweep = time_budget_sweep(cube, config, (0.05, 0.2, 0.8))
        counts = [r.mask_count for r in sweep.results]
        assert counts == sorted(counts) and counts[0] < counts[-1]
        for result in sweep.results:
            assert result.clue_time * result.mask_count == pytest.approx(
                0.8, rel=1e-12
            )

    def test_budget_sweep_validation(self):
        cube = random_cube(20, 20, 5, rank=3, seed=12)
        with pytest.raises(ValidationError):
            time_budget_sweep(cube, fast_config(), ())
        with pytest.raises(ConfigError):
            time_budget_sweep(cube, fast_config(), (0.0,))
        with pytest.raises(ConfigError):
            time_budget_sweep(cube, fast_config(), (1.5,))

    def test_compare_sampling_runs_each_pattern(self):
        cube = random_cube(20, 20, 5, rank=3, seed=13)
        patterns = ("random", "uniform-push", "guided-whisk")
        sweep = compare_sampling(cube, fast_config(), patterns)
        assert [r.config.pattern for r in sweep.results] == list(patterns)
        rows = sweep.to_dict()["rows"]
        assert [row["pattern"] for row in rows] == list(patterns)
        # pattern comparisons do not carry per-pixel histograms
        assert all("emd_histogram" not in row for row in rows)

    def test_compare_sampling_shares_pixel_noise(self):
        # counter-based streams key off pixel position, so a pixel probed
        # by two different masks sees the same measurement in both runs
        cube = random_cube(20, 20, 5, rank=3, seed=13)
        config = fast_config()
        _, mask_a, clues_a, _, _ = _acquire(cube, replace(config, pattern="uniform-push"))
        _, mask_b, clues_b, _, _ = _acquire(cube, replace(config, pattern="uniform-whisk"))
        shared = mask_a & mask_b
        assert shared.sum() > 0
        rows_a = {tuple(pos): row for pos, row in zip(np.argwhere(mask_a), clues_a.spectra)}
        rows_b = {tuple(pos): row for pos, row in zip(np.argwhere(mask_b), clues_b.spectra)}
        for pos in map(tuple, np.argwhere(shared)):
            assert np.array_equal(rows_a[pos], rows_b[pos])

    def test_compare_sampling_needs_patterns(self):
        cube = random_cube(20, 20, 5, rank=3, seed=13)
        with pytest.raises(ValidationError):
            compare_sampling(cube, fast_config(), ())

    def test_worker_count_stays_out_of_rows(self):
        cube = random_cube(20, 20, 5, rank=3, seed=14)
        serial = time_budget_sweep(cube, fast_config(workers=1), (0.1, 0.3))
        threaded = time_budget_sweep(cube, fast_config(workers=2), (0.1, 0.3))
        assert serial.to_dict() == threaded.to_dict()

    def test_workers_do_not_change_results(self):
        cube = random_cube(20, 20, 5, rank=3, seed=14)
        serial = grid_search_dimension(
            cube, fast_config(workers=1, basis_source="truth"), (2, 3), budgets=(0.5, 1.0, 2.0)
        )
        threaded = grid_search_dimension(
            cube, fast_config(workers=3, basis_source="truth"), (2, 3), budgets=(0.5, 1.0, 2.0)
        )
        serial_dict = serial.to_dict()
        threaded_dict = threaded.to_dict()
        # configs differ only in worker count, which never reaches the rows
        assert serial_dict == threaded_dict
        assert json.dumps(serial_dict, sort_keys=True) == json.dumps(
            threaded_dict, sort_keys=True
        )


    @pytest.mark.parametrize("sweep", ["compare", "ratios", "dims"])
    def test_written_reports_match_across_worker_counts(self, tmp_path, sweep):
        cube = random_cube(20, 20, 5, rank=3, seed=15)
        runs = {
            "compare": lambda config: compare_sampling(
                cube, config, ("random", "uniform-push", "guided-whisk")
            ),
            "ratios": lambda config: time_budget_sweep(cube, config, (0.1, 0.2, 0.3)),
            # a single budget: one first stage, its dimensions scored in parallel
            "dims": lambda config: grid_search_dimension(cube, config, (2, 3, 4, 5)),
        }
        written = []
        for workers in (1, 2, 3):
            path = tmp_path / f"{sweep}-{workers}.json"
            write_json(runs[sweep](fast_config(workers=workers)), path)
            written.append(path.read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    def test_dimension_scores_are_timed(self):
        cube = random_cube(20, 20, 5, rank=3, seed=15)
        search = grid_search_dimension(cube, fast_config(workers=2), (2, 3))
        assert all(report.wall_ms > 0 for row in search.reports for report in row)
        assert all(row["metrics"]["wall_ms"] > 0 for row in search.rows(True))
        assert all(row["metrics"]["wall_ms"] == 0.0 for row in search.rows())

    def test_pipeline_metrics_time_is_the_scoring_time(self, monkeypatch):
        real_colorize = harness.colorize

        def slow_colorize(*args, **kwargs):
            time.sleep(0.25)
            return real_colorize(*args, **kwargs)

        monkeypatch.setattr(harness, "colorize", slow_colorize)
        cube = random_cube(20, 20, 5, rank=3, seed=15)
        row = run_pipeline(cube, fast_config()).to_dict(include_timing=True)
        # the scores are part of the run, and the colorize time is not theirs
        assert 0.0 < row["metrics"]["wall_ms"] < 240.0 < row["wall_ms"]


def _staged(name, log, follow_ups):
    """A fake two-stage task: logs its stages and returns ``follow_ups``."""
    def first_stage():
        log.append(name)
        return [_logged(f"{name}{k}", log, gate) for k, gate in enumerate(follow_ups)]

    return first_stage


def _logged(name, log, gate=None):
    def follow_up():
        if gate is not None:
            assert gate()
        log.append(name)
        return name

    return follow_up


class TestStagedPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_tasks_without_gates_run_in_order(self, workers):
        log = []
        tasks = [_staged(name, log, [None] * count)
                 for name, count in (("a", 2), ("b", 0), ("c", 3))]
        assert _run_many(tasks, workers) == [["a0", "a1"], [], ["c0", "c1", "c2"]]
        if workers == 1:
            assert log == ["a", "a0", "a1", "b", "c", "c0", "c1", "c2"]

    def test_results_keep_submission_order_when_finishing_out_of_order(self):
        log = []
        a1_done, b0_done = threading.Event(), threading.Event()

        def a1():
            log.append("a1")
            a1_done.set()
            return "a1"

        def b0():
            log.append("b0")
            b0_done.set()
            return "b0"

        # a0 finishes only after its sibling a1 and the later task's b0
        a0 = _logged("a0", log, lambda: a1_done.wait(10) and b0_done.wait(10))
        tasks = [lambda: [a0, a1], lambda: [b0]]
        assert _run_many(tasks, workers=2) == [["a0", "a1"], ["b0"]]
        assert log.index("a0") > log.index("a1") and log.index("a0") > log.index("b0")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("stage", ["first", "follow-up"])
    def test_a_failing_stage_raises_its_own_exception(self, workers, stage):
        def broken():
            raise ArithmeticError(f"{stage} failed")

        log = []
        tasks = [_staged(name, log, [None] * 2) for name in "abcde"]
        if stage == "first":
            tasks[2] = broken
        else:
            tasks[2] = lambda: [_logged("c0", log), broken]
        with pytest.raises(ArithmeticError, match=f"{stage} failed"):
            _run_many(tasks, workers)

    def test_a_failing_first_stage_stops_the_tasks_behind_it(self):
        workers = 2
        failure = ArithmeticError("task 0 failed")
        first_stages = []

        def broken():
            first_stages.append(0)
            raise failure

        def task(index):
            def first_stage():
                first_stages.append(index)
                return [lambda: index]

            return first_stage

        outcome = []

        def run():
            try:
                _run_many([broken] + [task(index) for index in range(1, 8)], workers)
            except ArithmeticError as exc:
                outcome.append(exc)

        runner = threading.Thread(target=run)
        runner.start()
        runner.join(60)
        assert not runner.is_alive()
        assert len(outcome) == 1 and outcome[0] is failure
        # only the window's first stages were ever submitted
        assert len(first_stages) <= workers + 1 < 8

    def test_a_real_first_stage_failure_reaches_the_caller(self):
        cube = random_cube(20, 20, 5, rank=3, seed=9)
        config = fast_config(solver="iterative", max_iter=1, workers=2)
        with pytest.raises(SolverError, match="BiCGStab"):
            grid_search_dimension(cube, config, (2, 4), budgets=(0.5, 1.0, 2.0))

    def test_at_most_workers_threads_run_pool_work(self):
        workers = 3
        lock = threading.Lock()
        full = threading.Event()
        threads = set()
        active = peak = 0

        def stage(result):
            nonlocal active, peak
            with lock:
                threads.add(threading.get_ident())
                active += 1
                peak = max(peak, active)
                if active == workers:
                    full.set()
            # hold the first stages until every worker is busy
            full.wait(10)
            with lock:
                active -= 1
            return result

        def task():
            return stage([lambda: stage(1) for _ in range(4)])

        results = _run_many([task] * 8, workers)
        assert results == [[1, 1, 1, 1]] * 8
        assert peak == workers
        assert len(threads) == workers

    def test_threads_start_only_for_work_no_idle_thread_can_take(self):
        baseline = threading.active_count()
        together = threading.Barrier(3, timeout=10)
        counts = []

        def task():
            together.wait()
            counts.append(threading.active_count())
            return []

        assert _run_many([task] * 3, workers=16) == [[], [], []]
        # three pool threads, not sixteen
        assert max(counts) == baseline + 3

    def test_results_are_freed_without_the_cycle_collector(self):
        class Payload:
            pass

        alive = []

        def task():
            payload = Payload()
            alive.append(weakref.ref(payload))
            return [lambda: payload]

        gc.disable()
        try:
            results = _run_many([task] * 4, workers=2)
            assert len(results) == 4
            del results
            assert not any(ref() is not None for ref in alive)
        finally:
            gc.enable()

    def test_many_workers_and_fast_switching_lose_no_result(self):
        tasks = [
            (lambda i=i: [lambda i=i, k=k: (i, k) for k in range(i % 6)])
            for i in range(60)
        ]
        outcome = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: outcome.append(_run_many(tasks, 8)))
            runner.start()
            runner.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert outcome == [[[(i, k) for k in range(i % 6)] for i in range(60)]]

    def test_first_stages_wait_while_workers_plus_one_tasks_are_unfinished(self):
        workers = 2
        lock = threading.Lock()
        unfinished = {}
        held = peak = 0

        def task(index):
            def first_stage():
                nonlocal held, peak
                with lock:
                    held += 1
                    peak = max(peak, held)
                    unfinished[index] = 3
                return [follow_up] * 3

            def follow_up():
                nonlocal held
                with lock:
                    unfinished[index] -= 1
                    if not unfinished[index]:
                        held -= 1
                return index

            return first_stage

        results = _run_many([task(index) for index in range(10)], workers)
        assert results == [[index] * 3 for index in range(10)]
        assert peak <= workers + 1


class TestWriteJson:
    def test_bytes_deterministic(self, tmp_path):
        cube = random_cube(20, 20, 5, rank=3, seed=15)
        sweep = compare_sampling(cube, fast_config(), ("random", "uniform-push"))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_json(sweep, first)
        write_json(sweep, second)
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["kind"] == "sweep"
        assert len(payload["rows"]) == 2

    def test_single_result_wrapped_as_sweep(self, tmp_path):
        result = make_result("one", MetricReport(40.0, 0.5, 0.25, 1.5, 0.125))
        path = tmp_path / "run.json"
        write_json(result, path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "sweep"
        assert [row["image"] for row in payload["rows"]] == ["one"]

    def test_trailing_newline(self, tmp_path):
        path = tmp_path / "run.json"
        write_json(make_result("x", MetricReport(40.0, 0.5, 0.25, 1.5, 0.125)), path)
        assert path.read_bytes().endswith(b"\n")

    def test_unknown_payload_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_json(42, tmp_path / "bad.json")

    def test_a_variance_curve_is_no_report(self, tmp_path):
        curve = VarianceCurve([1.0, 0.1, 0.001], 2, -3.0)
        with pytest.raises(ValidationError, match="VarianceCurve"):
            write_json(curve, tmp_path / "curve.json")
        with pytest.raises(ValidationError, match="VarianceCurve"):
            export_plotdata(curve, tmp_path / "curve.csv")
        assert list(tmp_path.iterdir()) == []


class TestExportPlotdata:
    def test_summary_golden(self, tmp_path):
        inf_report = MetricReport(math.inf, 1.0, 1.0, 0.0, 0.0)
        plain_report = MetricReport(40.0, 0.5, 0.25, 1.5, 0.125)
        sweep_rows = {
            "kind": "sweep",
            "rows": [
                make_result("scene,a", inf_report).to_dict(),
                make_result("plain", plain_report).to_dict(),
            ],
        }
        path = tmp_path / "summary.csv"
        export_plotdata(sweep_rows, path)
        assert path.read_text(encoding="utf-8") == (
            "image,pattern,rate,t_exposure,dim,psnr,ssim,gfc,ssv,emd,wall_ms\n"
            '"scene,a",uniform-whisk,0.04,0.25,3,inf,1.0,1.0,0.0,0.0,0.0\n'
            "plain,uniform-whisk,0.04,0.25,3,40.0,0.5,0.25,1.5,0.125,0.0\n"
        )

    def test_dims_golden(self, tmp_path):
        reports = (
            (
                MetricReport(30.0, 0.9, 0.99, 0.2, 0.2),
                MetricReport(32.0, 0.95, 0.995, 0.1, 0.1),
            ),
            (
                MetricReport(33.0, 0.96, 0.996, 0.05, 0.04),
                MetricReport(31.0, 0.9, 0.99, 0.2, 0.05),
            ),
        )
        search = DimensionSearchResult(
            budgets=(0.5, 2.0),
            dims=(2, 3),
            reports=reports,
            best_dims=(3, 2),
            curves=(None, None),
        )
        path = tmp_path / "dims.csv"
        export_plotdata(search, path)
        assert path.read_text(encoding="utf-8") == (
            "time_budget,dim,best,psnr,ssim,gfc,ssv,emd,wall_ms\n"
            "0.5,2,0,30.0,0.9,0.99,0.2,0.2,0.0\n"
            "0.5,3,1,32.0,0.95,0.995,0.1,0.1,0.0\n"
            "2.0,2,1,33.0,0.96,0.996,0.05,0.04,0.0\n"
            "2.0,3,0,31.0,0.9,0.99,0.2,0.05,0.0\n"
        )

    def test_histogram_layout(self, tmp_path):
        report = MetricReport(40.0, 0.5, 0.25, 1.5, 0.125)
        result = make_result("hist", report, emd_histogram=tuple(range(50)))
        path = tmp_path / "hist.csv"
        export_plotdata(result, path, kind="histogram")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "image,pattern,rate,bin_lo,bin_hi,count"
        assert len(lines) == 51
        assert lines[1] == "hist,uniform-whisk,0.04,0.0,0.02,0"
        assert lines[2] == "hist,uniform-whisk,0.04,0.02,0.04,1"
        assert lines[50] == "hist,uniform-whisk,0.04,0.98,1.0,49"
        counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert sum(counts) == sum(range(50))

    def test_histogram_requires_histogram_rows(self, tmp_path):
        result = make_result("bare", MetricReport(40.0, 0.5, 0.25, 1.5, 0.125))
        with pytest.raises(ValidationError):
            export_plotdata(result, tmp_path / "hist.csv", kind="histogram")

    def test_unknown_kind_rejected(self, tmp_path):
        result = make_result("x", MetricReport(40.0, 0.5, 0.25, 1.5, 0.125))
        with pytest.raises(ValidationError):
            export_plotdata(result, tmp_path / "out.csv", kind="violin")

    def test_loaded_json_round_trips_to_same_csv(self, tmp_path):
        cube = random_cube(20, 20, 5, rank=3, seed=16)
        sweep = time_budget_sweep(cube, fast_config(), (0.1, 0.3))
        json_path = tmp_path / "sweep.json"
        write_json(sweep, json_path)
        direct_csv = tmp_path / "direct.csv"
        loaded_csv = tmp_path / "loaded.csv"
        export_plotdata(sweep, direct_csv)
        export_plotdata(json.loads(json_path.read_text()), loaded_csv)
        assert direct_csv.read_bytes() == loaded_csv.read_bytes()

    def test_histogram_export_from_real_sweep(self, tmp_path):
        cube = random_cube(20, 20, 5, rank=3, seed=16)
        sweep = time_budget_sweep(cube, fast_config(), (0.1,))
        path = tmp_path / "hist.csv"
        export_plotdata(sweep, path, kind="histogram")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 51
        counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert sum(counts) == 400
