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

import json
import math
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from .colorizer import _SOLVER_METHODS, _finish, _solve_coefficients, colorize
from .core import HyperCube, SpectralResponse, _resolve_response
from .errors import ConfigError, FormatError, ValidationError
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
        if self.time_budget <= 0:
            raise ConfigError(f"time_budget must be positive, got {self.time_budget}")
        if self.guide_budget is not None and self.guide_budget <= 0:
            raise ConfigError(f"guide_budget must be positive, got {self.guide_budget}")
        # the sampling and noise fields are checked by the objects they build
        try:
            _plan(self)
            _noise(self, self.time_budget)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
        if isinstance(self.dim, str):
            if self.dim != "auto":
                raise ConfigError(
                    f'dim must be an int, None, or "auto", got {self.dim!r}'
                )
        elif self.dim is not None and self.dim < 1:
            raise ConfigError(f"dim must be at least 1, got {self.dim}")
        if self.rank is not None and self.rank < 1:
            raise ConfigError(f"rank must be at least 1, got {self.rank}")
        if self.basis_source not in ("clues", "truth"):
            raise ConfigError(
                f'basis_source must be "clues" or "truth", got {self.basis_source!r}'
            )
        if self.solver not in _SOLVER_METHODS:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.tol <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be at least 1, got {self.max_iter}")
        if isinstance(self.rescale_alpha, str) and self.rescale_alpha != "auto":
            raise ConfigError(
                f'rescale_alpha must be a number or "auto", got {self.rescale_alpha!r}'
            )
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")


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


def _parse_int(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{name} expects an integer, got {value!r}")
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{name} expects an integer, got {value!r}") from None


def _parse_float(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{name} expects a number, got {value!r}")
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{name} expects a number, got {value!r}") from None
    if not np.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return out


def _parse_bool(value, name):
    if isinstance(value, bool):
        return value
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


def _parse_optional(parser):
    def parse(value, name):
        if value is None:
            return None
        if isinstance(value, str) and value.strip().lower() in ("", "none"):
            return None
        return parser(value, name)

    return parse


def _parse_dim(value, name):
    if value is None:
        return None
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("", "none"):
            return None
        if lowered == "auto":
            return "auto"
    return _parse_int(value, name)


def _parse_rescale_alpha(value, name):
    if isinstance(value, str) and value.strip().lower() == "auto":
        return "auto"
    return _parse_float(value, name)


_FIELD_PARSERS = {
    "seed": _parse_int,
    "time_budget": _parse_float,
    "guide_budget": _parse_optional(_parse_float),
    "rho": _parse_float,
    "mu": _parse_float,
    "sigma": _parse_float,
    "pattern": _parse_str,
    "rate": _parse_float,
    "sample_alpha": _parse_float,
    "dim": _parse_dim,
    "rank": _parse_optional(_parse_int),
    "basis_source": _parse_str,
    "edge_filter": _parse_bool,
    "solver": _parse_str,
    "tol": _parse_float,
    "max_iter": _parse_int,
    "rescale_alpha": _parse_rescale_alpha,
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
    """Parsed field -> value settings of the JSON file, then the environment.

    Values are parsed but not yet checked together, so a caller can lay
    higher-precedence settings over them before building the config.
    ``env_fields``, when given, limits the environment to those fields.
    """
    names = [spec.name for spec in fields(ExperimentConfig)]
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = sorted(set(payload) - set(names))
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {unknown}")
        for name, value in payload.items():
            data[name] = _FIELD_PARSERS[name](value, name)
    env = os.environ if env is None else env
    for name in names:
        key = ENV_PREFIX + name.upper()
        if key in env and (env_fields is None or name in env_fields):
            data[name] = _FIELD_PARSERS[name](env[key], name)
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

    def to_dict(self, include_timing: bool | None = None) -> dict:
        if include_timing is None:
            include_timing = self.config.include_timing
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


def _acquire(cube: HyperCube, config: ExperimentConfig, response, mask=None):
    """Noisy guide, mask, and clues under the configured time budget.

    The mask follows the config's sampling plan unless one is given.
    """
    pixels = cube.height * cube.width
    guide_total = (
        config.guide_budget if config.guide_budget is not None else config.time_budget
    )
    guide_time = guide_total / pixels
    guide = simulate_guide(cube, _noise(config, guide_time), response)

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


def _resolve_dimension(dim, clues, basis, model):
    """Reconstruction dimension for a dim policy: an int, "auto", or None."""
    if dim is None:
        return None
    if basis is None:
        raise ConfigError(f"dim {dim!r} needs a spectral basis")
    if dim != "auto":
        if not 1 <= dim <= basis.rank:
            raise ConfigError(
                f"dim {dim} must be between 1 and the basis rank {basis.rank}"
            )
        return int(dim)
    if basis.rank != basis.bands:
        raise ConfigError('dim "auto" needs a full-rank basis (leave rank unset)')
    return estimate_dimension(clues, basis, model)[0]


def run_pipeline(
    cube: HyperCube,
    config: ExperimentConfig,
    *,
    basis: SpectralBasis | None = None,
    model: DimensionModel | None = None,
    response: SpectralResponse | None = None,
    label: str = "",
) -> PipelineResult:
    """Simulate acquisition of ``cube`` per ``config``, reconstruct, score.

    Parameters
    ----------
    cube : HyperCube
        Ground-truth scene; also the source of noisy measurements.
    config : ExperimentConfig
    basis : SpectralBasis, optional
        Overrides the basis the config would learn.
    model : DimensionModel, optional
        Used when ``config.dim`` is "auto" to pick the dimension.
    response : SpectralResponse, optional
        Guide spectral response; defaults to flat over the visible range.
    label : str
        Name recorded in the result's ``image`` column.

    Returns
    -------
    PipelineResult
        Acquisition bookkeeping, solver diagnostics, the reconstructed
        cube and mask, and a MetricReport against the ground truth.
    """
    return _reconstruct(cube, config, basis=basis, model=model, response=response,
                        label=label)()


def _reconstruct(cube, config, *, basis=None, model=None, response=None, label="",
                 histogram=False):
    """``run_pipeline``'s first stage: acquire, basis, dimension, colorize.

    Returns the second stage, which scores the reconstruction, as a thunk.
    With ``histogram`` the scored result carries its per-pixel EMD
    histogram.
    """
    start = time.perf_counter()
    resolved = _resolve_response(cube.wavelengths, response)
    guide, mask, clues, guide_time, clue_time = _acquire(cube, config, resolved)
    working_basis = (
        basis if basis is not None else _learn_pipeline_basis(cube, clues, config)
    )
    dim = _resolve_dimension(config.dim, clues, working_basis, model)
    result = colorize(
        guide,
        clues,
        basis=working_basis,
        dim=dim,
        apply_edge_filter=config.edge_filter,
        response_guide=resolved,
        rescale_alpha=config.rescale_alpha,
        method=config.solver,
        tol=config.tol,
        max_iter=config.max_iter,
    )
    run = {
        "config": config,
        "image": label,
        "mask_count": clues.count,
        "clue_time": clue_time,
        "guide_time": guide_time,
        "dimension": dim if dim is not None else working_basis.rank,
        "basis_rank": working_basis.rank,
        "solver_method": result.solver_method,
        "residuals": result.residuals,
        "iterations": result.iterations,
        "degenerate_pixels": result.degenerate_pixels,
        "recon": result.cube,
        "mask": mask,
    }
    return partial(_score, cube, run, time.perf_counter() - start, histogram)


def _score(cube, run: dict, seconds, histogram) -> PipelineResult:
    """``run_pipeline``'s second stage: score a reconstruction, ``seconds`` in.

    The report's ``wall_ms`` is the time the five scores took.
    """
    start = time.perf_counter()
    report, emd_values = _evaluate_with_emd_values(cube, run["recon"])
    report = replace(report, wall_ms=(time.perf_counter() - start) * 1e3)
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

    @property
    def best_dim(self) -> int:
        if len(self.budgets) != 1:
            raise ValidationError(
                "best_dim is only defined for single-budget searches; use best_dims"
            )
        return self.best_dims[0]

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


def _solve_budget(cube, config, dims, response):
    """One budget row's first stage: a shared clue draw and one solve.

    Returns the row's follow-ups: its clue variance curve, then one score
    per candidate dimension. They share the solution, which is freed once
    the last of them has run.
    """
    guide, _mask, clues, _gt, _ct = _acquire(cube, config, response)
    basis = _learn_pipeline_basis(cube, clues, config)
    if max(dims) > basis.rank:
        raise ValidationError(
            f"candidate dimension {max(dims)} exceeds basis rank {basis.rank}"
        )
    solution, _report = _solve_coefficients(
        guide.values, clues, basis, max(dims), apply_edge_filter=config.edge_filter,
        method=config.solver, tol=config.tol, max_iter=config.max_iter,
    )
    score = partial(_score_dimension, cube, config, guide.values, basis, solution,
                    response)
    return [partial(_clue_curve, clues, basis)] + [partial(score, dim) for dim in dims]


def _score_dimension(cube, config, guide, basis, solution, response, dim):
    """Finish and score the first ``dim`` coefficient channels of a solve.

    The report's ``wall_ms`` is the time this finish and score took.
    """
    start = time.perf_counter()
    recon, _degenerate = _finish(
        unproject(solution[:, :dim], basis), guide, cube.wavelengths,
        response_guide=response, alpha=config.rescale_alpha,
    )
    report = evaluate(cube, recon)
    return replace(report, wall_ms=(time.perf_counter() - start) * 1e3)


def grid_search_dimension(
    cube: HyperCube,
    config: ExperimentConfig,
    dims,
    budgets=None,
    *,
    response: SpectralResponse | None = None,
) -> DimensionSearchResult:
    """Score every (time budget, dimension) pair of the grid.

    Within one budget the guide, mask, and noisy clues are simulated
    once and shared by all candidate dimensions; because the propagation
    matrix does not depend on the spectral channels, one full-width solve
    covers the whole row (dimension d keeps the first d coefficient
    channels). Budgets default to the config's single budget.
    """
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValidationError("grid search needs at least one candidate dimension")
    if len(set(dims)) != len(dims):
        raise ValidationError(f"duplicate candidate dimensions in {dims}")
    budgets = (
        (config.time_budget,) if budgets is None else tuple(float(b) for b in budgets)
    )
    if not budgets:
        raise ValidationError("grid search needs at least one budget")
    resolved = _resolve_response(cube.wavelengths, response)
    outcomes = _sweep(
        lambda run_config: _solve_budget(cube, run_config, dims, resolved),
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
    least 6 pairs are required by the quadratic fit.
    """
    cubes = [cubes] if isinstance(cubes, HyperCube) else list(cubes)
    budgets = [float(b) for b in budgets]
    if not cubes or not budgets:
        raise ValidationError("training needs at least one cube and one budget")
    if config.rank is not None:
        raise ConfigError(
            "dimension training needs a full-rank basis (leave rank unset)"
        )

    curves = []
    labels = []
    rows = []
    for cube_index, cube in enumerate(cubes):
        candidate_dims = (
            tuple(dims) if dims is not None else tuple(range(2, cube.bands + 1))
        )
        search = grid_search_dimension(cube, config, candidate_dims, budgets)
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

    def to_rows(self, include_timing: bool | None = None) -> list[dict]:
        return [result.to_dict(include_timing) for result in self.results]

    def to_dict(self, include_timing: bool | None = None) -> dict:
        return {"kind": "sweep", "rows": self.to_rows(include_timing)}


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


def time_budget_sweep(
    cube: HyperCube,
    config: ExperimentConfig,
    ratios,
    *,
    basis: SpectralBasis | None = None,
    model: DimensionModel | None = None,
    label: str = "",
) -> SweepResult:
    """Sweep the sampling ratio under one fixed total acquisition budget.

    Each ratio re-splits the same total clue integration time over the
    pixels its mask selects: denser masks get proportionally shorter,
    noisier exposures. Every run's row carries a per-pixel EMD histogram
    (50 bins over [0, 1]) for distribution plots.
    """
    ratios = [float(r) for r in ratios]
    if not ratios:
        raise ValidationError("sweep needs at least one sampling ratio")
    results = _sweep(
        lambda run_config: [_reconstruct(cube, run_config, basis=basis, model=model,
                                         label=label, histogram=True)],
        config, "rate", ratios,
    )
    return SweepResult(tuple(scored for (scored,) in results))


def compare_sampling(
    cube: HyperCube,
    config: ExperimentConfig,
    patterns=PATTERNS,
    *,
    basis: SpectralBasis | None = None,
    model: DimensionModel | None = None,
    label: str = "",
) -> SweepResult:
    """Run the pipeline once per sampling pattern, all else equal.

    The counter-based noise streams key off absolute pixel positions, so
    pixels shared between two masks receive identical measurements and the
    comparison isolates the pattern itself.
    """
    patterns = tuple(patterns)
    if not patterns:
        raise ValidationError("comparison needs at least one pattern")
    results = _sweep(
        lambda run_config: [_reconstruct(cube, run_config, basis=basis, model=model,
                                         label=label)],
        config, "pattern", patterns,
    )
    return SweepResult(tuple(scored for (scored,) in results))


# ---------------------------------------------------------------------------
# Result serialization


def write_json(data, path, include_timing: bool = False) -> None:
    """Write a result object as deterministic JSON with a "kind" marker.

    Accepts SweepResult, DimensionSearchResult, DimensionTrainingResult,
    PipelineResult, or VarianceCurve. Identical inputs produce identical
    bytes (timings zeroed unless requested).
    """
    payload = _payload_of(data, include_timing)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _curve_rows(curve: VarianceCurve) -> list[dict]:
    explained = np.asarray(curve.explained, dtype=np.float64)
    floored = np.maximum(explained, max(float(explained.max()) * 1e-15, 1e-300))
    return [
        {
            "dimension": index + 1,
            "explained": float(value),
            "log10_explained": float(np.log10(floor_value)),
        }
        for index, (value, floor_value) in enumerate(zip(explained, floored))
    ]


def _payload_of(data, include_timing: bool) -> dict:
    if isinstance(data, SweepResult):
        return data.to_dict(include_timing)
    if isinstance(data, DimensionSearchResult):
        return data.to_dict(include_timing)
    if isinstance(data, DimensionTrainingResult):
        return data.to_dict()
    if isinstance(data, PipelineResult):
        return {"kind": "sweep", "rows": [data.to_dict(include_timing)]}
    if isinstance(data, VarianceCurve):
        return {"kind": "curve", "rows": _curve_rows(data)}
    if isinstance(data, dict) and "rows" in data:
        return data
    raise ValidationError(f"cannot serialize {type(data).__name__} results")


_HISTOGRAM_COLUMNS = ("image", "pattern", "rate", "bin_lo", "bin_hi", "count")
# kind -> the row columns it picks and whether the metric columns follow
_ROW_COLUMNS = {
    "summary": (("image", "pattern", "rate", "t_exposure", "dim"), True),
    "dims": (("time_budget", "dim", "best"), True),
    "curve": (("dimension", "explained", "log10_explained"), False),
}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows of cells, one line each."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _picked_csv(rows, columns, with_metrics) -> list[list]:
    return [
        [row.get(column, "") if column == "image" else row[column] for column in columns]
        + (_metric_cells(row["metrics"]) if with_metrics else [])
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
    rows from a ratio sweep), "dims" (grid-search rows), and "curve"
    (variance curve). The default kind follows the data: sweeps export
    summaries, searches export dims, curves export curves. Identical
    inputs produce identical bytes.
    """
    payload = _payload_of(data, include_timing)
    resolved = kind if kind is not None else payload.get("kind", "summary")
    if resolved == "sweep":
        resolved = "summary"
    rows = payload["rows"]
    try:
        if resolved == "histogram":
            header, body = _HISTOGRAM_COLUMNS, _histogram_csv(rows)
        elif resolved in _ROW_COLUMNS:
            columns, with_metrics = _ROW_COLUMNS[resolved]
            header = columns + (CSV_COLUMNS if with_metrics else ())
            body = _picked_csv(rows, columns, with_metrics)
        else:
            raise ValidationError(f"unknown plot data kind {resolved!r}")
    except ValidationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(
            f"report rows are not {resolved} rows with its columns ({exc!r})"
        ) from None
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_csv_text(header, body))
