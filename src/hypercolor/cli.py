"""Command-line interface.

One subcommand per pipeline stage (convert, simulate, sample, basis,
estimate-dim, colorize, metrics) plus the harness layer (pipeline,
sweep-dim, sweep-budget, compare-sampling, train-dim-model,
export-plotdata). Exit code 0 on success, 2 for usage and configuration
errors, 3 for runtime failures such as bad files or a solver that cannot
converge.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import formats
from .core import HyperCube, _check_same_wavelengths
from .errors import ConfigError, FormatError, HyperColorError
from .harness import (
    PATTERNS,
    ExperimentConfig,
    _PLOT_KINDS,
    _acquire,
    _basis_shape,
    _check_dims,
    _colorize_clues,
    _config_values,
    _plan,
    _run_summary,
    compare_sampling,
    export_plotdata,
    grid_search_dimension,
    run_pipeline,
    time_budget_sweep,
    train_dimension_model,
    write_json,
)
from .metrics import CSV_COLUMNS, _metric_cells, evaluate
from .sampling import build_mask
from .subspace import estimate_dimension, learn_basis, project, unproject

__all__ = ["main"]


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _parse_wavelengths(text: str, bands: int) -> np.ndarray:
    """Accept start:stop (linspace over the band count), a comma list, or
    a .npy path."""
    if text.endswith(".npy"):
        return formats._load_npy(text)
    try:
        if ":" in text:
            start, stop = text.split(":")
            return np.linspace(float(start), float(stop), bands)
        values = np.array([float(token) for token in text.split(",")])
    except ValueError:
        raise ConfigError(
            f"--wavelengths expects start:stop, a comma list or a .npy path, got {text!r}"
        ) from None
    if values.size != bands:
        raise ConfigError(
            f"--wavelengths lists {values.size} values for {bands} bands"
        )
    return values


def _parse_list(text: str, what: str) -> list[str]:
    """The comma-separated items of ``text``, unparsed; the library parses them."""
    values = [token for token in text.split(",") if token.strip()]
    if not values:
        raise ConfigError(f"{what} is empty")
    return values


def _parse_shape(text: str) -> tuple[int, int]:
    try:
        height, width = (int(token) for token in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"--shape expects HEIGHTxWIDTH, got {text!r}") from None
    if height < 1 or width < 1:
        raise ConfigError(f"--shape sides must be at least 1, got {text!r}")
    return height, width


# ---------------------------------------------------------------------------
# Run settings

# Each flag that sets a run setting, with the ExperimentConfig field it
# sets and its help text. The flags default to None, so a flag that is not
# given leaves the field to the environment, the --config file, or the
# config's own default; ExperimentConfig parses and checks every value.
_CONFIG_FLAGS = {
    "--seed": ("seed", "master seed"),
    "--budget": ("time_budget", "total clue integration time in seconds"),
    "--guide-budget": ("guide_budget",
                       "guide integration time in seconds; none means --budget"),
    "--rho": ("rho", "photon rate at full-scale radiance"),
    "--mu": ("mu", "read noise mean in counts"),
    "--sigma": ("sigma", "read noise standard deviation in counts"),
    "--pattern": ("pattern", f"sampling pattern, one of {', '.join(PATTERNS)}"),
    "--rate": ("rate", "fraction of pixels to sample"),
    "--alpha": ("sample_alpha", "guided sampling blend toward corner features"),
    "--dim": ("dim", 'reconstruction dimension: an int, "auto", or none for the '
                     "full basis rank"),
    "--rank": ("rank", "basis directions to keep; none means every band"),
    "--solver": ("solver", "linear solver: auto, direct or iterative"),
    "--tol": ("tol", "solver relative residual"),
    "--max-iter": ("max_iter", "iteration cap of the iterative solver"),
    "--workers": ("workers", "worker threads for sweeps"),
}


def _add_config_flags(parser, *flags) -> None:
    defaults = ExperimentConfig()
    for flag in flags:
        name, text = _CONFIG_FLAGS[flag]
        default = getattr(defaults, name)
        shown = "none" if default is None else default
        parser.add_argument(flag, default=None, help=f"{text} (default {shown})")


def _config_from_args(args) -> ExperimentConfig:
    """Flag over environment over --config file over built-in default.

    The raw settings are merged first, then parsed and checked once, so a
    bad value that a flag overrides is never read. A command without
    --config reads from the environment only the settings it has flags for.
    """
    flags = {
        flag: name for flag, (name, _text) in _CONFIG_FLAGS.items()
        if hasattr(args, flag[2:].replace("-", "_"))
    }
    if hasattr(args, "config"):
        values = _config_values(args.config)
    else:
        names = set(flags.values())
        if hasattr(args, "no_edge_filter"):
            names.add("edge_filter")
        values = _config_values(env_fields=names)
    for flag, name in flags.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            values[name] = value
    if getattr(args, "no_edge_filter", False):
        values["edge_filter"] = False
    if getattr(args, "include_timing", False):
        values["include_timing"] = True
    return ExperimentConfig(**values)


def _harness_inputs(args) -> tuple[HyperCube, ExperimentConfig]:
    """The ground-truth cube and the run settings of a harness command."""
    return formats.read_cube(args.cube), _config_from_args(args)


def _add_harness_args(parser) -> None:
    parser.add_argument("--config", default=None, help="JSON experiment config")
    _add_config_flags(parser, "--seed", "--pattern", "--rate", "--budget", "--dim",
                      "--workers")
    parser.add_argument("--include-timing", action="store_true",
                        help="keep wall-clock times in the output")


def _remove_partial(paths) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_convert(args) -> int:
    src = Path(args.input)
    dst = Path(args.output)
    if src.suffix == ".npy":
        data = formats._load_npy(src)
        if data.ndim != 3:
            raise ConfigError(f"{src}: expected a 3-d array, got shape {data.shape}")
        if args.wavelengths is None:
            raise ConfigError("--wavelengths is required when importing .npy data")
        wavelengths = _parse_wavelengths(args.wavelengths, data.shape[2])
        cube = HyperCube(data, wavelengths)
        formats.write_cube(cube, dst)
    else:
        cube = formats.read_cube(src)
        if dst.suffix == ".npy":
            formats._save_npy(cube.data, dst)
        else:
            formats.write_cube(cube, dst)
    _print_json({"height": cube.height, "width": cube.width, "bands": cube.bands})
    return 0


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    cube = formats.read_cube(args.cube)
    mask = formats.read_mask(args.mask) if args.mask is not None else None
    guide, mask, clues, guide_time, clue_time = _acquire(cube, config, mask=mask)

    if args.out_guide:
        formats.write_guide(guide, args.out_guide)
    if args.out_mask:
        formats.write_mask(mask, args.out_mask)
    if args.out_clues:
        formats.write_clues(clues, args.out_clues)
    _print_json({
        "mask_count": clues.count,
        "clue_time": clue_time,
        "guide_time": guide_time,
    })
    return 0


def _cmd_sample(args) -> int:
    plan = _plan(_config_from_args(args))
    if args.guide is None and plan.pattern.startswith("guided"):
        raise ConfigError(f"pattern {plan.pattern!r} needs --guide")
    if args.guide is None and args.shape is None:
        raise ConfigError("sample needs --shape or --guide")
    guide = formats.read_guide(args.guide) if args.guide else None
    shape = _parse_shape(args.shape) if args.shape else None
    mask = build_mask(plan, shape=shape, guide=guide)
    formats.write_mask(mask, args.out)
    _print_json({"mask_count": int(mask.sum()), "shape": list(mask.shape)})
    return 0


def _cmd_basis_learn(args) -> int:
    config = _config_from_args(args)
    cubes = [formats.read_cube(path) for path in args.cubes]
    rank, _bands = _basis_shape(cubes[0], config)
    basis = learn_basis(cubes, rank=rank)
    formats.write_basis(basis, args.out)
    _print_json({"bands": basis.bands, "rank": basis.rank, "source": basis.source})
    return 0


def _cmd_basis_project(args) -> int:
    basis = formats.read_basis(args.basis)
    if (args.clues is None) == (args.cube is None):
        raise ConfigError("basis project needs exactly one of --clues or --cube")
    _check_dims((args.dim,), basis.rank, basis.bands)
    if args.clues is not None:
        clues = formats.read_clues(args.clues)
        coefficients = project(clues, basis, args.dim)
        formats.write_clues(coefficients, args.out)
        _print_json({"count": coefficients.count, "dim": coefficients.bands})
    else:
        cube = formats.read_cube(args.cube)
        _check_same_wavelengths(basis.wavelengths, cube.wavelengths, "basis")
        flat = cube.pixels()
        approx = unproject(project(flat, basis, args.dim), basis)
        lowrank = HyperCube(
            approx.reshape(cube.data.shape), cube.wavelengths
        )
        formats.write_cube(lowrank, args.out)
        _print_json({
            "dim": args.dim if args.dim is not None else basis.rank,
            "bands": cube.bands,
        })
    return 0


def _cmd_estimate_dim(args) -> int:
    clues = formats.read_clues(args.clues)
    basis = formats.read_basis(args.basis)
    model = formats.read_model(args.model) if args.model is not None else None
    _check_dims(("auto",), basis.rank, basis.bands)
    dim, curve = estimate_dimension(clues, basis, model)
    _print_json({
        "dimension": dim,
        "elbow": curve.elbow_index,
        "log_min_variance": curve.log_min_variance,
    })
    return 0


def _cmd_colorize(args) -> int:
    config = _config_from_args(args)
    guide = formats.read_guide(args.guide)
    clues = formats.read_clues(args.clues)
    basis = formats.read_basis(args.basis) if args.basis else None
    model = formats.read_model(args.model) if args.model else None
    result = _colorize_clues(guide, clues, basis, config, model)
    formats.write_cube(result.cube, args.out)
    _print_json({"dimension": result.dimension, **_run_summary(result)})
    return 0


def _cmd_metrics(args) -> int:
    truth = formats.read_cube(args.truth)
    recon = formats.read_cube(args.recon)
    payload = evaluate(truth, recon).to_dict(args.include_timing)
    if args.format == "csv":
        sys.stdout.write(formats._csv_text(CSV_COLUMNS, [_metric_cells(payload)]))
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_pipeline(args) -> int:
    cube, config = _harness_inputs(args)
    model = formats.read_model(args.model) if args.model else None
    result = run_pipeline(cube, config, model=model, label=Path(args.cube).stem)

    # artifacts land together or not at all; a failure removes only the
    # files whose writes started, never one this run did not write
    started = []
    try:
        if args.out_cube:
            started.append(args.out_cube)
            formats.write_cube(result.recon, args.out_cube)
        if args.out_mask:
            started.append(args.out_mask)
            formats.write_mask(result.mask, args.out_mask)
        if args.out_report:
            started.append(args.out_report)
            write_json(result, args.out_report, config.include_timing)
    except BaseException:
        _remove_partial(started)
        raise
    _print_json(result.to_dict(config.include_timing))
    return 0


def _emit_sweep(args, config, result) -> int:
    """Write a sweep's --out report and --csv plot data, then print it."""
    if args.out:
        write_json(result, args.out, config.include_timing)
    if args.csv:
        export_plotdata(result, args.csv, include_timing=config.include_timing)
    _print_json(result.to_dict(config.include_timing))
    return 0


def _cmd_sweep_dim(args) -> int:
    cube, config = _harness_inputs(args)
    dims = _parse_list(args.dims, "--dims")
    budgets = _parse_list(args.budgets, "--budgets") if args.budgets else None
    return _emit_sweep(args, config, grid_search_dimension(cube, config, dims, budgets))


def _cmd_sweep_budget(args) -> int:
    cube, config = _harness_inputs(args)
    ratios = _parse_list(args.ratios, "--ratios")
    model = formats.read_model(args.model) if args.model else None
    result = time_budget_sweep(
        cube, config, ratios, model=model, label=Path(args.cube).stem
    )
    return _emit_sweep(args, config, result)


def _cmd_compare_sampling(args) -> int:
    cube, config = _harness_inputs(args)
    patterns = tuple(args.patterns.split(",")) if args.patterns else PATTERNS
    result = compare_sampling(cube, config, patterns, label=Path(args.cube).stem)
    return _emit_sweep(args, config, result)


def _cmd_train_dim_model(args) -> int:
    cubes = [formats.read_cube(path) for path in args.cubes]
    config = _config_from_args(args)
    budgets = _parse_list(args.budgets, "--budgets")
    dims = _parse_list(args.dims, "--dims") if args.dims else None
    result = train_dimension_model(cubes, config, budgets, dims)
    formats.write_model(result.model, args.out)
    if args.report:
        write_json(result, args.report)
    _print_json({
        "rows": list(result.rows),
        "in_sample_rmse": result.in_sample_rmse,
        "model": args.out,
    })
    return 0


def _cmd_export_plotdata(args) -> int:
    payload = formats._read_json_object(args.report, "report")
    if "rows" not in payload:
        raise FormatError(f"{args.report}: not a harness report (missing rows)")
    export_plotdata(payload, args.out, kind=args.kind)
    _print_json({"rows": len(payload["rows"]), "out": args.out})
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercolor",
        description="Hyperspectral reconstruction from a guide image and sparse spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between .npy stacks and cube files")
    p.add_argument("input", help="source .npy array or cube file")
    p.add_argument("output", help="destination cube file or .npy")
    p.add_argument("--wavelengths", default=None,
                   help="band centers: start:stop, comma list, or .npy path")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("simulate", help="simulate a noisy guide and clue acquisition")
    p.add_argument("cube", help="ground-truth cube file")
    p.add_argument("--mask", default=None, help="PBM mask to sample at")
    _add_config_flags(p, "--pattern", "--rate", "--alpha", "--budget", "--guide-budget",
                      "--rho", "--mu", "--sigma", "--seed")
    p.add_argument("--out-guide", default=None, help="write the noisy guide PGM here")
    p.add_argument("--out-clues", default=None, help="write the noisy clues here")
    p.add_argument("--out-mask", default=None, help="write the mask PBM here")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sample", help="build a sampling mask")
    _add_config_flags(p, "--pattern", "--rate", "--alpha", "--seed")
    p.add_argument("--shape", default=None, help="HEIGHTxWIDTH for blind patterns")
    p.add_argument("--guide", default=None, help="guide PGM for guided patterns")
    p.add_argument("--out", required=True, help="output PBM mask path")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("basis", help="spectral basis operations")
    basis_sub = p.add_subparsers(dest="basis_command", required=True)

    bp = basis_sub.add_parser("learn", help="learn a spectral basis from cubes")
    bp.add_argument("cubes", nargs="+", help="training cube files")
    _add_config_flags(bp, "--rank")
    bp.add_argument("--out", required=True, help="output basis path")
    bp.set_defaults(handler=_cmd_basis_learn)

    bp = basis_sub.add_parser("project",
                              help="project clues or a cube into the basis")
    bp.add_argument("--basis", required=True, help="basis file")
    bp.add_argument("--clues", default=None,
                    help="clue file to project (writes coefficient clues)")
    bp.add_argument("--cube", default=None,
                    help="cube to rank-limit (writes the low-rank approximation)")
    bp.add_argument("--dim", type=int, default=None,
                    help="directions to keep (default: basis rank)")
    bp.add_argument("--out", required=True, help="output path")
    bp.set_defaults(handler=_cmd_basis_project)

    # the same command, under basis and at the top level
    for parent in (basis_sub, sub):
        p = parent.add_parser("estimate-dim",
                              help="estimate reconstruction dimension from clues")
        p.add_argument("--clues", required=True, help="clue file")
        p.add_argument("--basis", required=True, help="full-rank basis file")
        p.add_argument("--model", default=None,
                       help="dimension model JSON (default: elbow)")
        p.set_defaults(handler=_cmd_estimate_dim)

    p = sub.add_parser("colorize", help="reconstruct a cube from guide and clues")
    p.add_argument("--guide", required=True, help="guide PGM")
    p.add_argument("--clues", required=True, help="clue file")
    p.add_argument("--basis", default=None, help="spectral basis file")
    _add_config_flags(p, "--dim")
    p.add_argument("--model", default=None, help='dimension model for --dim auto')
    p.add_argument("--no-edge-filter", action="store_true",
                   help="skip the edge-aware clue prefilter")
    _add_config_flags(p, "--solver", "--tol", "--max-iter")
    p.add_argument("--out", required=True, help="output cube path")
    p.set_defaults(handler=_cmd_colorize)

    p = sub.add_parser("metrics", help="score a reconstruction against ground truth")
    p.add_argument("--truth", required=True, help="ground-truth cube")
    p.add_argument("--recon", required=True, help="reconstructed cube")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--include-timing", action="store_true",
                   help="keep the time the scores took in the output")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("pipeline", help="simulate, reconstruct, and score one run")
    p.add_argument("cube", help="ground-truth cube file")
    _add_harness_args(p)
    p.add_argument("--model", default=None, help="dimension model JSON")
    p.add_argument("--out-cube", default=None, help="write the reconstruction here")
    p.add_argument("--out-mask", default=None, help="write the sampling mask here")
    p.add_argument("--out-report", default=None, help="write the report JSON here")
    p.set_defaults(handler=_cmd_pipeline)

    p = sub.add_parser("sweep-dim", help="grid-search the reconstruction dimension")
    p.add_argument("cube", help="ground-truth cube file")
    p.add_argument("--dims", required=True, help="comma-separated candidate dimensions")
    p.add_argument("--budgets", default=None,
                   help="comma-separated budgets (default: config budget)")
    _add_harness_args(p)
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.add_argument("--csv", default=None, help="write plot-ready CSV here")
    p.set_defaults(handler=_cmd_sweep_dim)

    p = sub.add_parser("sweep-budget",
                       help="sweep the sampling ratio under a fixed time budget")
    p.add_argument("cube", help="ground-truth cube file")
    p.add_argument("--ratios", required=True, help="comma-separated sampling ratios")
    _add_harness_args(p)
    p.add_argument("--model", default=None, help="dimension model JSON")
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.add_argument("--csv", default=None, help="write plot-ready CSV here")
    p.set_defaults(handler=_cmd_sweep_budget)

    p = sub.add_parser("compare-sampling", help="compare sampling patterns, all else equal")
    p.add_argument("cube", help="ground-truth cube file")
    p.add_argument("--patterns", default=None, help="comma-separated subset of patterns")
    _add_harness_args(p)
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.add_argument("--csv", default=None, help="write plot-ready CSV here")
    p.set_defaults(handler=_cmd_compare_sampling)

    p = sub.add_parser("train-dim-model", help="fit the dimension predictor")
    p.add_argument("cubes", nargs="+", help="training cube files")
    p.add_argument("--budgets", required=True, help="comma-separated budgets in seconds")
    p.add_argument("--dims", default=None, help="candidate dimensions (default 2..bands)")
    _add_harness_args(p)
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--report", default=None, help="write training diagnostics JSON here")
    p.set_defaults(handler=_cmd_train_dim_model)

    p = sub.add_parser("export-plotdata", help="convert a report JSON to tidy CSV")
    p.add_argument("report", help="report JSON from pipeline or a sweep")
    p.add_argument("--kind", choices=_PLOT_KINDS,
                   default=None, help="CSV shape (default: follow the report)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_export_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HyperColorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
