"""Configured end-to-end runs and parameter sweeps.

A single ExperimentConfig drives the whole chain: simulate a noisy guide
and noisy clues from a ground-truth cube under a shared acquisition time
budget, learn a spectral basis, reconstruct, and score. On top of that
single run sit the sweeps: a (budget x dimension) grid search, sampling
ratio sweeps under a fixed total budget, sampling pattern comparisons,
and training data generation for the dimension predictor. All outputs
serialize deterministically; wall-clock times are zeroed unless timing is
explicitly requested.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from .colorizer import _check_alpha, _check_solver, _finish, _solve_coefficients, colorize
from .core import HyperCube, _as_tuple, _check_type, _is_finite_real, _is_int
from .errors import ConfigError, FormatError, ValidationError
from .formats import _csv_text, _read_json_object, _write_json_object
from .metrics import (
    CSV_COLUMNS,
    MetricReport,
    _evaluate_with_emd_values,
    _metric_cells,
    evaluate,
)
from .noisesim import NoiseParams, simulate_clues, simulate_guide
from .sampling import PATTERNS, SamplingPlan, build_mask
from .subspace import (
    _MIN_CLUES_FOR_CURVE,
    DimensionModel,
    SpectralBasis,
    VarianceCurve,
    _check_full_rank,
    estimate_dimension,
    fit_dimension_model,
    learn_basis,
    unproject,
    variance_curve,
)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "PipelineResult",
    "run_pipeline",
    "DimensionSearchResult",
    "grid_search_dimension",
    "DimensionTrainingResult",
    "train_dimension_model",
    "SweepResult",
    "time_budget_sweep",
    "compare_sampling",
    "write_json",
    "export_plotdata",
]

ENV_PREFIX = "HYPERCOLOR_"

_EMD_TIE = 1e-9
_EMD_HIST_BINS = 50


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one simulated acquisition and reconstruction.

    ``time_budget`` is the total clue integration time in seconds, split
    evenly over however many pixels the mask selects; the guide spends
    ``guide_budget`` (defaulting to the same total) spread over every
    pixel. ``dim`` picks the reconstruction dimension: an int, None for
    the full basis rank, or "auto" to take the variance-curve elbow (or a
    dimension model's prediction when one is supplied at run time).

    Each field is parsed here from a number, numpy scalar or text (float
    fields store floats) and checked alone; whether ``rank`` and ``dim``
    fit a cube is checked by each run on a cube before it simulates
    anything.
    """

    seed: int = 0
    time_budget: float = 1.0
    guide_budget: float | None = None
    rho: float = 9.6e7
    mu: float = 0.0
    sigma: float = 0.1
    pattern: str = "uniform-whisk"
    rate: float = 0.04
    sample_alpha: float = 0.7
    dim: int | str | None = None
    rank: int | None = None
    basis_source: str = "clues"
    edge_filter: bool = True
    solver: str = "auto"
    tol: float = 1e-7
    max_iter: int = 10_000
    rescale_alpha: float | str = "auto"
    include_timing: bool = False
    workers: int = 1

    def __post_init__(self):
        for name, parse in _FIELD_PARSERS.items():
            object.__setattr__(self, name, parse(getattr(self, name), name))
        if self.time_budget <= 0:
            raise ConfigError(f"time_budget must be positive, got {self.time_budget}")
        if self.guide_budget is not None and self.guide_budget <= 0:
            raise ConfigError(f"guide_budget must be positive, got {self.guide_budget}")
        # the sampling, noise, solver and rescale fields are checked by the
        # code that uses them
        try:
            _plan(self)
            _noise(self, self.time_budget)
            _check_solver(self.solver, self.tol, self.max_iter)
            _check_alpha(self.rescale_alpha)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
        if self.basis_source not in ("clues", "truth"):
            raise ConfigError(
                f'basis_source must be "clues" or "truth", got {self.basis_source!r}'
            )
        for name in ("dim", "rank", "workers"):
            value = getattr(self, name)
            if isinstance(value, int) and value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")


def _plan(config: ExperimentConfig) -> SamplingPlan:
    """The sampling plan a config describes."""
    return SamplingPlan(
        config.pattern, config.rate, alpha=config.sample_alpha, seed=config.seed
    )


def _noise(config: ExperimentConfig, t: float) -> NoiseParams:
    """The config's noise model at exposure ``t`` seconds per sample."""
    return NoiseParams(
        t=t, rho=config.rho, mu=config.mu, sigma=config.sigma, seed=config.seed
    )


def _parse_number(convert, is_kind, kind):
    """A parser that converts text, and otherwise takes numbers of the kind."""
    def parse(value, name):
        try:
            number = convert(value) if isinstance(value, str) else value
        except ValueError:
            number = None
        if not is_kind(number):
            raise ConfigError(f"{name} expects {kind}, got {value!r}")
        return convert(number)

    return parse


_parse_int = _parse_number(int, _is_int, "an integer")
_parse_float = _parse_number(float, _is_finite_real, "a finite number")


def _parse_bool(value, name):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
    raise ConfigError(f"{name} expects a boolean, got {value!r}")


def _parse_str(value, name):
    if not isinstance(value, str):
        raise ConfigError(f"{name} expects a string, got {value!r}")
    return value


def _parse_or(parser, meaning, *words):
    """``parser``, but ``meaning`` and its ``words``, in any case, give ``meaning``."""
    def parse(value, name):
        if value is meaning or isinstance(value, str) and value.strip().lower() in words:
            return meaning
        return parser(value, name)

    return parse


_FIELD_PARSERS = {
    "seed": _parse_int,
    "time_budget": _parse_float,
    "guide_budget": _parse_or(_parse_float, None, "", "none"),
    "rho": _parse_float,
    "mu": _parse_float,
    "sigma": _parse_float,
    "pattern": _parse_str,
    "rate": _parse_float,
    "sample_alpha": _parse_float,
    "dim": _parse_or(_parse_or(_parse_int, None, "", "none"), "auto", "auto"),
    "rank": _parse_or(_parse_int, None, "", "none"),
    "basis_source": _parse_str,
    "edge_filter": _parse_bool,
    "solver": _parse_str,
    "tol": _parse_float,
    "max_iter": _parse_int,
    "rescale_alpha": _parse_or(_parse_float, "auto", "auto"),
    "include_timing": _parse_bool,
    "workers": _parse_int,
}


def load_config(path=None, env=None) -> ExperimentConfig:
    """Build a config from an optional JSON file plus environment overrides.

    The JSON file must hold a flat object whose keys are config fields;
    unknown keys are an error. Any field can then be overridden through
    the environment as HYPERCOLOR_<FIELD> (upper-cased), e.g.
    HYPERCOLOR_TIME_BUDGET=0.25 or HYPERCOLOR_DIM=auto.
    """
    return ExperimentConfig(**_config_values(path, env))


def _config_values(path=None, env=None, env_fields=None) -> dict:
    """Raw field -> value settings of the JSON file, then the environment.

    ``ExperimentConfig`` parses and checks them, so a caller can lay
    higher-precedence settings over them first. ``env_fields``, when
    given, limits the environment to those fields.
    """
    names = [spec.name for spec in fields(ExperimentConfig)]
    data = {}
    if path is not None:
        data = _read_json_object(path, "config", ConfigError)
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {unknown}")
    env = os.environ if env is None else env
    for name in names:
        key = ENV_PREFIX + name.upper()
        if key in env and (env_fields is None or name in env_fields):
            data[name] = env[key]
    return data


# ---------------------------------------------------------------------------
# Single pipeline run


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """One full simulate-sample-reconstruct-score run.

    ``recon`` and ``mask`` are the in-memory artifacts; serialized rows
    carry everything else, including the complete config point.
    """

    config: ExperimentConfig
    image: str
    mask_count: int
    clue_time: float
    guide_time: float
    dimension: int | None
    basis_rank: int
    solver_method: str
    residuals: tuple[float, ...]
    iterations: tuple[int, ...]
    degenerate_pixels: int
    metrics: MetricReport
    recon: HyperCube
    mask: np.ndarray
    emd_histogram: tuple[int, ...] | None = None
    wall_ms: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "image": self.image,
            "pattern": self.config.pattern,
            "rate": self.config.rate,
            "seed": self.config.seed,
            "time_budget": self.config.time_budget,
            "mask_count": self.mask_count,
            "t_exposure": self.clue_time,
            "guide_time": self.guide_time,
            "dim": self.dimension,
            "basis_rank": self.basis_rank,
            **_run_summary(self),
            "metrics": self.metrics.to_dict(include_timing),
            # worker count shapes execution, never results, so rows written
            # under different pool sizes stay byte-identical
            "config": {
                k: v for k, v in asdict(self.config).items() if k != "workers"
            },
            "wall_ms": float(self.wall_ms) if include_timing else 0.0,
        }
        if self.emd_histogram is not None:
            out["emd_histogram"] = list(self.emd_histogram)
        return out


def _run_summary(result) -> dict:
    """Solver diagnostics of a run or a ``ColorizeResult``, as reported."""
    return {
        "solver_method": result.solver_method,
        "residual_max": max(result.residuals) if result.residuals else 0.0,
        "iterations_total": int(sum(result.iterations)),
        "degenerate_pixels": result.degenerate_pixels,
    }


def _acquire(cube: HyperCube, config: ExperimentConfig, mask=None):
    """Noisy guide, mask, and clues under the configured time budget.

    The guide is drawn with the flat visible response, and the mask
    follows the config's sampling plan unless one is given.
    """
    pixels = cube.height * cube.width
    guide_total = (
        config.guide_budget if config.guide_budget is not None else config.time_budget
    )
    guide_time = guide_total / pixels
    guide = simulate_guide(cube, _noise(config, guide_time))

    if mask is None:
        mask = build_mask(_plan(config), shape=(cube.height, cube.width), guide=guide)
    count = int(mask.sum())
    if count == 0:
        raise ValidationError("the sampling mask selects no pixels")
    clue_time = config.time_budget / count
    clues = simulate_clues(cube, mask, _noise(config, clue_time))
    return guide, mask, clues, guide_time, clue_time


def _learn_pipeline_basis(cube, clues, config) -> SpectralBasis:
    if config.basis_source == "truth":
        return learn_basis(cube, rank=config.rank)
    pseudo = HyperCube(
        clues.spectra.reshape(1, clues.count, clues.bands), clues.wavelengths
    )
    return learn_basis(pseudo, rank=config.rank, source=f"clues:{clues.count}")


def _basis_shape(cube, config) -> tuple[int, int]:
    """(rank, bands) of the basis ``config`` learns for ``cube``."""
    if config.rank is not None and config.rank > cube.bands:
        raise ConfigError(f"rank {config.rank} exceeds the cube's {cube.bands} bands")
    return config.rank or cube.bands, cube.bands


def _check_dims(dims, rank: int, bands: int) -> None:
    """Reject dimensions that a basis of ``rank`` of ``bands`` bands cannot give.

    ``dims`` lists candidate dimensions, or holds one dim policy: an int,
    None, or "auto", which only a full-rank basis allows.
    """
    if len(set(dims)) != len(dims):
        raise ConfigError(f"duplicate candidate dimensions in {tuple(dims)}")
    for dim in dims:
        if dim == "auto":
            _check_full_rank(rank, bands, 'dim "auto"', ConfigError)
        elif dim is not None and not 1 <= dim <= rank:
            raise ConfigError(f"dim {dim} must be between 1 and the basis rank {rank}")


def _check_run_inputs(cube, config, model=None) -> None:
    """Raise ValidationError unless ``cube`` is a HyperCube, ``config`` an
    ExperimentConfig and ``model`` a DimensionModel or None."""
    _check_type(cube, HyperCube, "cube")
    _check_type(config, ExperimentConfig, "config")
    _check_type(model, (DimensionModel, type(None)), "model")


def _colorize_clues(guide, clues, basis, config, model=None):
    """``colorize`` under the config's dim policy ("auto" asks
    ``estimate_dimension``, with ``model``), edge filter, rescale alpha and
    solver controls."""
    dim = config.dim
    if dim is not None:
        if basis is None:
            raise ConfigError(f"dim {dim!r} needs a spectral basis")
        _check_dims((dim,), basis.rank, basis.bands)
        if dim == "auto":
            dim = estimate_dimension(clues, basis, model)[0]
    return colorize(
        guide, clues, basis, dim, apply_edge_filter=config.edge_filter,
        rescale_alpha=config.rescale_alpha, method=config.solver, tol=config.tol,
        max_iter=config.max_iter,
    )


def run_pipeline(
    cube: HyperCube,
    config: ExperimentConfig,
    *,
    model: DimensionModel | None = None,
    label: str = "",
) -> PipelineResult:
    """Simulate acquisition of ``cube`` per ``config``, reconstruct, score.

    The config, which the report records, is the whole run.

    Parameters
    ----------
    cube : HyperCube
        Ground-truth scene; also the source of noisy measurements.
    config : ExperimentConfig
    model : DimensionModel, optional
        Used when ``config.dim`` is "auto" to pick the dimension.
    label : str
        Name recorded in the result's ``image`` column.

    Returns
    -------
    PipelineResult
        Acquisition bookkeeping, solver diagnostics, the reconstructed
        cube and mask, and a MetricReport against the ground truth.
    """
    _check_run_inputs(cube, config, model)
    _check_dims((config.dim,), *_basis_shape(cube, config))
    return _reconstruct(cube, config, model=model, label=label)()


def _reconstruct(cube, config, *, model=None, label="", histogram=False):
    """``run_pipeline``'s first stage: acquire, basis, dimension, colorize.

    Returns the second stage, which scores the reconstruction, as a thunk.
    With ``histogram`` the scored result carries its per-pixel EMD
    histogram.
    """
    start = time.perf_counter()
    guide, mask, clues, guide_time, clue_time = _acquire(cube, config)
    basis = _learn_pipeline_basis(cube, clues, config)
    result = _colorize_clues(guide, clues, basis, config, model)
    run = {
        "config": config,
        "image": label,
        "mask_count": clues.count,
        "clue_time": clue_time,
        "guide_time": guide_time,
        "dimension": result.dimension or basis.rank,
        "basis_rank": basis.rank,
        "solver_method": result.solver_method,
        "residuals": result.residuals,
        "iterations": result.iterations,
        "degenerate_pixels": result.degenerate_pixels,
        "recon": result.cube,
        "mask": mask,
    }
    return partial(_score, cube, run, time.perf_counter() - start, histogram)


def _score(cube, run: dict, seconds, histogram) -> PipelineResult:
    """``run_pipeline``'s second stage: score a reconstruction, ``seconds`` in."""
    start = time.perf_counter()
    report, emd_values = _evaluate_with_emd_values(cube, run["recon"])
    counts = None
    if histogram:
        finite = emd_values[np.isfinite(emd_values)]
        counts, _edges = np.histogram(finite, bins=_EMD_HIST_BINS, range=(0.0, 1.0))
        counts = tuple(int(c) for c in counts)
    wall_ms = (seconds + time.perf_counter() - start) * 1e3
    return PipelineResult(**run, metrics=report, emd_histogram=counts, wall_ms=wall_ms)


# ---------------------------------------------------------------------------
# Dimension grid search (budget x dimension factorial)


@dataclass(frozen=True)
class DimensionSearchResult:
    """Metric reports over the (time budget, dimension) grid.

    ``reports[i][j]`` scores budget ``budgets[i]`` at dimension
    ``dims[j]``; ``best_dims[i]`` minimizes EMD within its budget row
    (ties within 1e-9 go to the smaller dimension). ``curves[i]`` is the
    clue variance curve of that budget's draw when the draw supports one.
    """

    budgets: tuple[float, ...]
    dims: tuple[int, ...]
    reports: tuple[tuple[MetricReport, ...], ...]
    best_dims: tuple[int, ...]
    curves: tuple[VarianceCurve | None, ...]

    def rows(self, include_timing: bool = False) -> list[dict]:
        out = []
        for budget, row, best in zip(self.budgets, self.reports, self.best_dims):
            for dim, report in zip(self.dims, row):
                out.append(
                    {
                        "time_budget": budget,
                        "dim": dim,
                        "best": dim == best,
                        "metrics": report.to_dict(include_timing),
                    }
                )
        return out

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "kind": "dims",
            "rows": self.rows(include_timing),
            "best_dims": [
                {"time_budget": budget, "best_dim": best}
                for budget, best in zip(self.budgets, self.best_dims)
            ],
        }


def _best_by_emd(dims, emds):
    """Smallest dimension whose EMD ties the minimum within 1e-9."""
    floor = min(emds)
    return min(d for d, e in zip(dims, emds) if e <= floor + _EMD_TIE)


def _clue_curve(clues, basis) -> VarianceCurve | None:
    """The clue variance curve, or None where the draw supports none."""
    if basis.rank != basis.bands or clues.count < _MIN_CLUES_FOR_CURVE:
        return None
    return variance_curve(clues, basis)


def _solve_budget(cube, config, dims):
    """One budget row's first stage: a shared clue draw and one solve.

    Returns the row's follow-ups: its clue variance curve, then one score
    per candidate dimension. They share the solution, which is freed once
    the last of them has run.
    """
    guide, _mask, clues, _gt, _ct = _acquire(cube, config)
    basis = _learn_pipeline_basis(cube, clues, config)
    solution, _report = _solve_coefficients(
        guide.values, clues, basis, max(dims), apply_edge_filter=config.edge_filter,
        method=config.solver, tol=config.tol, max_iter=config.max_iter,
    )
    score = partial(_score_dimension, cube, config, guide.values, basis, solution)
    return [partial(_clue_curve, clues, basis)] + [partial(score, dim) for dim in dims]


def _score_dimension(cube, config, guide, basis, solution, dim):
    """Finish and score the first ``dim`` coefficient channels of a solve.

    The report's ``wall_ms`` is the time this finish and score took.
    """
    start = time.perf_counter()
    recon, _degenerate = _finish(
        unproject(solution[:, :dim], basis), guide, cube.wavelengths,
        alpha=config.rescale_alpha,
    )
    report = evaluate(cube, recon)
    return replace(report, wall_ms=(time.perf_counter() - start) * 1e3)


def grid_search_dimension(
    cube: HyperCube,
    config: ExperimentConfig,
    dims,
    budgets=None,
) -> DimensionSearchResult:
    """Score every (time budget, dimension) pair of the grid.

    Within one budget the guide, mask, and noisy clues are simulated
    once and shared by all candidate dimensions; because the propagation
    matrix does not depend on the spectral channels, one full-width solve
    covers the whole row (dimension d keeps the first d coefficient
    channels). Budgets default to the config's single budget; every other
    setting is the config's.
    """
    _check_run_inputs(cube, config)
    dims = tuple(_parse_int(d, "dims") for d in _as_tuple(dims, "dims"))
    if not dims:
        raise ValidationError("grid search needs at least one candidate dimension")
    budgets = (
        (config.time_budget,) if budgets is None
        else tuple(_parse_float(b, "budgets") for b in _as_tuple(budgets, "budgets"))
    )
    if not budgets:
        raise ValidationError("grid search needs at least one budget")
    _check_dims(dims, *_basis_shape(cube, config))
    outcomes = _sweep(
        lambda run_config: _solve_budget(cube, run_config, dims),
        config, "time_budget", budgets,
    )
    curves = tuple(outcome[0] for outcome in outcomes)
    reports = tuple(tuple(outcome[1:]) for outcome in outcomes)
    best_dims = tuple(_best_by_emd(dims, [r.emd for r in row]) for row in reports)
    return DimensionSearchResult(budgets, dims, reports, best_dims, curves)


# ---------------------------------------------------------------------------
# Dimension model training


@dataclass(frozen=True)
class DimensionTrainingResult:
    """Fitted predictor plus its training records and in-sample error."""

    model: DimensionModel
    rows: tuple[dict, ...]
    in_sample_rmse: float

    def to_dict(self) -> dict:
        return {
            "kind": "training",
            "rows": list(self.rows),
            "in_sample_rmse": self.in_sample_rmse,
        }


def train_dimension_model(
    cubes,
    config: ExperimentConfig,
    budgets,
    dims=None,
) -> DimensionTrainingResult:
    """Fit the dimension predictor from grid searches over scenes and budgets.

    Every (cube, budget) pair contributes one training point: features
    from the clue variance curve, label from the EMD-best dimension. At
    least 6 pairs are required by the quadratic fit. ``cubes`` is a list.
    """
    cubes = _as_tuple(cubes, "cubes")
    for cube in cubes:
        _check_run_inputs(cube, config)
    budgets = [_parse_float(b, "budgets") for b in _as_tuple(budgets, "budgets")]
    if not cubes or not budgets:
        raise ValidationError("training needs at least one cube and one budget")
    candidates = [
        tuple(_parse_int(d, "dims") for d in _as_tuple(dims, "dims")) if dims is not None
        else tuple(range(2, cube.bands + 1))
        for cube in cubes
    ]
    for cube, cube_dims in zip(cubes, candidates):
        rank, bands = _basis_shape(cube, config)
        _check_full_rank(rank, bands, "dimension training", ConfigError)
        _check_dims(cube_dims, rank, bands)

    curves = []
    labels = []
    rows = []
    for cube_index, (cube, cube_dims) in enumerate(zip(cubes, candidates)):
        search = grid_search_dimension(cube, config, cube_dims, budgets)
        for budget, best, curve in zip(search.budgets, search.best_dims, search.curves):
            if curve is None:
                raise ValidationError(
                    "training requires enough clues for a variance curve (>= 8)"
                )
            curves.append(curve)
            labels.append(best)
            rows.append(
                {
                    "cube": cube_index,
                    "time_budget": budget,
                    "elbow": curve.elbow_index,
                    "log_min_variance": curve.log_min_variance,
                    "best_dim": best,
                }
            )
    model = fit_dimension_model(curves, labels)
    predictions = [model.predict(curve) for curve in curves]
    for row, predicted in zip(rows, predictions):
        row["predicted_dim"] = predicted
    rmse = math.sqrt(
        float(np.mean((np.array(predictions) - np.array(labels, dtype=float)) ** 2))
    )
    return DimensionTrainingResult(model, tuple(rows), rmse)


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepResult:
    """Ordered collection of pipeline runs with a shared config family."""

    results: tuple[PipelineResult, ...]

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "kind": "sweep",
            "rows": [result.to_dict(include_timing) for result in self.results],
        }


def _run_many(tasks, workers: int) -> list[list]:
    """Run two-stage tasks; each task's result lists its follow-ups' results.

    A task is a thunk whose first stage returns its follow-up thunks. With
    one worker each task and its follow-ups run inline, in order. With
    more, a pool of ``workers`` threads runs the stages while the caller
    waits: a first stage submits its follow-ups to the same pool, and the
    next task's first stage is submitted whenever the oldest unfinished
    task completes, so at most ``workers + 1`` tasks are in progress. The
    window bounds the first-stage results held at once. Results keep
    submission order whatever the worker count; the first exception the
    caller meets, in that order, cancels the queued stages and is raised.
    """
    if workers <= 1:
        return [[follow_up() for follow_up in task()] for task in tasks]
    pool = ThreadPoolExecutor(max_workers=workers)

    def first_stage(task):
        return [pool.submit(follow_up) for follow_up in task()]

    pending = deque()
    results = []
    try:
        for task in tasks:
            pending.append(pool.submit(first_stage, task))
            if len(pending) > workers:
                results.append([f.result() for f in pending.popleft().result()])
        while pending:
            results.append([f.result() for f in pending.popleft().result()])
    finally:
        # after a failure, drop the queued stages and wait out the running ones
        pool.shutdown(cancel_futures=True)
    return results


def _sweep(stage, config: ExperimentConfig, field: str, values) -> list[list]:
    """``stage(config)`` with ``field`` set to each value, in value order.

    ``stage`` is a first stage for ``_run_many``: it returns follow-ups.
    """
    configs = [replace(config, **{field: value}) for value in values]
    return _run_many([partial(stage, run_config) for run_config in configs],
                     config.workers)


def _pipeline_sweep(cube, config, field, values, empty_error, *, label, model=None,
                    histogram=False) -> SweepResult:
    """One pipeline run with ``field`` set to each of ``values``, in order."""
    _check_run_inputs(cube, config, model)
    if not values:
        raise ValidationError(empty_error)
    _check_dims((config.dim,), *_basis_shape(cube, config))
    results = _sweep(
        lambda run_config: [_reconstruct(cube, run_config, model=model, label=label,
                                         histogram=histogram)],
        config, field, values,
    )
    return SweepResult(tuple(scored for (scored,) in results))


def time_budget_sweep(
    cube: HyperCube,
    config: ExperimentConfig,
    ratios,
    *,
    model: DimensionModel | None = None,
    label: str = "",
) -> SweepResult:
    """Sweep the sampling ratio under one fixed total acquisition budget.

    Each ratio re-splits the same total clue integration time over the
    pixels its mask selects: denser masks get proportionally shorter,
    noisier exposures. Every run's row carries a per-pixel EMD histogram
    (50 bins over [0, 1]) for distribution plots. Each run is
    ``run_pipeline`` of the config with its ratio, ``model`` and ``label``.
    """
    return _pipeline_sweep(
        cube, config, "rate", _as_tuple(ratios, "ratios"),
        "sweep needs at least one sampling ratio",
        model=model, label=label, histogram=True,
    )


def compare_sampling(
    cube: HyperCube,
    config: ExperimentConfig,
    patterns=PATTERNS,
    *,
    label: str = "",
) -> SweepResult:
    """Run the pipeline once per sampling pattern, all else equal.

    The counter-based noise streams key off absolute pixel positions, so
    pixels shared between two masks receive identical measurements and the
    comparison isolates the pattern itself. Each run is ``run_pipeline``
    of the config with its pattern and ``label``.
    """
    return _pipeline_sweep(
        cube, config, "pattern", _as_tuple(patterns, "patterns"),
        "comparison needs at least one pattern", label=label,
    )


# ---------------------------------------------------------------------------
# Result serialization


def write_json(data, path, include_timing: bool = False) -> None:
    """Write a result object as deterministic JSON with a "kind" marker.

    Accepts SweepResult, DimensionSearchResult, DimensionTrainingResult,
    or PipelineResult. Identical inputs produce identical bytes (timings
    zeroed unless requested).
    """
    _write_json_object(_payload_of(data, include_timing), path)


def _payload_of(data, include_timing: bool) -> dict:
    if isinstance(data, SweepResult):
        return data.to_dict(include_timing)
    if isinstance(data, DimensionSearchResult):
        return data.to_dict(include_timing)
    if isinstance(data, DimensionTrainingResult):
        return data.to_dict()
    if isinstance(data, PipelineResult):
        return {"kind": "sweep", "rows": [data.to_dict(include_timing)]}
    if isinstance(data, dict) and "rows" in data:
        return data
    raise ValidationError(f"cannot serialize {type(data).__name__} results")


# the kinds of plot data export_plotdata writes
_PLOT_KINDS = ("summary", "histogram", "dims")
_HISTOGRAM_COLUMNS = ("image", "pattern", "rate", "bin_lo", "bin_hi", "count")
# the other kinds -> the row columns they pick before the metric columns
_ROW_COLUMNS = {
    "summary": ("image", "pattern", "rate", "t_exposure", "dim"),
    "dims": ("time_budget", "dim", "best"),
}


def _picked_csv(rows, columns) -> list[list]:
    return [
        [row.get(column, "") if column == "image" else row[column] for column in columns]
        + _metric_cells(row["metrics"])
        for row in rows
    ]


def _histogram_csv(rows) -> list[list]:
    edges = np.linspace(0.0, 1.0, _EMD_HIST_BINS + 1)
    out = []
    for row in rows:
        counts = row.get("emd_histogram")
        if counts is None:
            raise ValidationError(
                "histogram export needs rows from time_budget_sweep "
                "(no emd_histogram present)"
            )
        for index, count in enumerate(counts):
            out.append(
                [row.get("image", ""), row["pattern"], row["rate"],
                 float(edges[index]), float(edges[index + 1]), int(count)]
            )
    return out


def export_plotdata(data, path, kind: str | None = None,
                    include_timing: bool = False) -> None:
    """Write plot-ready tidy CSV for a result object or its JSON payload.

    Kinds: "summary" (one row per run: image, pattern, rate, t_exposure,
    dim, then the metric columns), "histogram" (per-pixel EMD histogram
    rows from a ratio sweep) and "dims" (grid-search rows, then the metric
    columns). The default kind follows the data: sweeps export summaries,
    searches export dims. Identical inputs produce identical bytes.
    """
    payload = _payload_of(data, include_timing)
    resolved = kind if kind is not None else payload.get("kind", "summary")
    if resolved == "sweep":
        resolved = "summary"
    rows = payload["rows"]
    if resolved not in _PLOT_KINDS:
        raise ValidationError(f"unknown plot data kind {resolved!r}")
    try:
        if resolved == "histogram":
            header, body = _HISTOGRAM_COLUMNS, _histogram_csv(rows)
        else:
            columns = _ROW_COLUMNS[resolved]
            header, body = columns + CSV_COLUMNS, _picked_csv(rows, columns)
    except ValidationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(
            f"report rows are not {resolved} rows with its columns ({exc!r})"
        ) from None
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_csv_text(header, body))
