"""The input contract, checked by generation at the library and CLI layers.

A bad run setting, sweep list, solver control, array, mask, guide grid,
metric pair, basis or response wavelength axis, or harness cube or config
ends in a ``ConfigError`` or ``ValidationError`` before any costly stage runs, and a CLI command ends with exit 0, 2 or 3,
never a traceback.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypercolor import (  # noqa: E402
    PATTERNS,
    ClueSet,
    ConfigError,
    ExperimentConfig,
    NoiseParams,
    SamplingPlan,
    SpectralBasis,
    SpectralResponse,
    ValidationError,
    VarianceCurve,
    build_mask,
    build_system,
    colorize,
    compare_sampling,
    cube_to_clues,
    edge_filter,
    evaluate,
    fit_dimension_model,
    formats,
    grid_search_dimension,
    learn_basis,
    luminance_rescale,
    make_guide,
    project,
    run_pipeline,
    simulate_clues,
    simulate_guide,
    solve,
    time_budget_sweep,
    train_dimension_model,
    unproject,
    variance_curve,
)
from hypercolor.cli import main  # noqa: E402

from conftest import random_cube, scatter_mask, spy_costly_stages  # noqa: E402

BANDS = 4


def forms(numbers):
    """Each drawn number as itself, as a numpy scalar, or as its text."""
    return numbers.flatmap(lambda n: st.sampled_from([n, np.array(n)[()], str(n)]))


# values no setting of any kind takes; None and "" stay out, as they are
# valid for the optional settings
junk = st.sampled_from(["x", "1,5", [], {}, b"1", True, np.bool_(False), 1j])
fractions = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: not x.is_integer()
)
non_finite = forms(st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))
not_positive = forms(st.floats(max_value=0.0))
not_counts = junk | forms(st.integers(max_value=0) | fractions)
not_positive_reals = junk | not_positive | non_finite
not_bools = st.sampled_from([0, 1, np.int64(1), 2.5, None, "maybe", "", []])


def not_in(choices):
    return st.text(max_size=8).filter(lambda s: s not in choices) | st.sampled_from(
        [None, 1]
    )


BAD_SETTINGS = {
    "seed": junk | st.none() | forms(
        st.integers(max_value=-1) | st.integers(2**63, 2**80) | fractions
    ),
    "time_budget": not_positive_reals | st.none(),
    "guide_budget": not_positive_reals,
    "rho": not_positive_reals | st.none(),
    "mu": junk | st.none() | non_finite,
    "sigma": junk | st.none() | non_finite | forms(st.floats(max_value=-1e-300)),
    "pattern": not_in(PATTERNS),
    "rate": not_positive_reals | st.none() | forms(st.floats(1.0, exclude_min=True)),
    "sample_alpha": junk | st.none() | non_finite | forms(
        st.floats(max_value=-1e-300) | st.floats(1.0, exclude_min=True)
    ),
    "dim": not_counts,
    "rank": not_counts,
    "basis_source": not_in(("clues", "truth")),
    "edge_filter": not_bools,
    "solver": not_in(("auto", "direct", "iterative")),
    "tol": not_positive_reals | st.none(),
    "max_iter": not_counts | st.none(),
    "rescale_alpha": not_positive_reals | st.none(),
    "include_timing": not_bools,
    "workers": not_counts | st.none(),
}

# one valid value per setting, with its numpy and text forms
GOOD_SETTINGS = {
    "seed": st.integers(0, 2**63 - 1),
    "time_budget": st.floats(1e-300, 1e300),
    "guide_budget": st.floats(1e-300, 1e300),
    "rho": st.floats(1e-300, 1e300),
    "mu": st.floats(-1e300, 1e300),
    "sigma": st.floats(0.0, 1e300),
    "rate": st.floats(0.0, 1.0, exclude_min=True),
    "sample_alpha": st.floats(0.0, 1.0),
    "dim": st.integers(1, 10**6),
    "rank": st.integers(1, 10**6),
    "edge_filter": st.booleans(),
    "tol": st.floats(1e-300, 1e300),
    "max_iter": st.integers(1, 10**9),
    "rescale_alpha": st.floats(1e-300, 1e300),
    "include_timing": st.booleans(),
    "workers": st.integers(1, 4),
}

# a colorize dim of None keeps every basis direction; a listed one is bad
bad_colorize_dims = not_counts | forms(st.integers(BANDS + 1, 10**6))
bad_dims = bad_colorize_dims | st.none()
bad_budgets = not_positive_reals | st.none()
bad_ratios = BAD_SETTINGS["rate"]
# one value, or a string, where a list is taken
single_values = st.integers() | st.floats() | st.text(max_size=8) | st.sampled_from(
    [b"23", np.float64(0.5), np.array(3), *PATTERNS]
)
# a reconstruction that is no array of numbers
not_numeric = st.text(max_size=8) | st.sampled_from(
    [[[1.0, 2.0], [3.0]], [1.0, "x"], {}, object(), [None], 1j]
)
# an empty pair of arrays of any rank
empty_arrays = st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(
    lambda shape: 0 in shape).map(np.zeros)
# a number, or its text, where an array with a coefficient axis is taken
scalars = forms(st.floats(allow_nan=False) | st.integers(-10**6, 10**6))
# no (height, width) pair of integers of at least 1
bad_shapes = junk | st.integers() | st.tuples(
    st.integers(max_value=0) | fractions | st.sampled_from(["5", True, None]),
    st.integers(1, 8),
).flatmap(lambda pair: st.sampled_from([pair, pair[::-1]])) | st.lists(
    st.integers(1, 8), max_size=4).filter(lambda sides: len(sides) != 2)
UNGUIDED = ("random", "uniform-push", "uniform-whisk")
bool_seeds = st.sampled_from([True, False, np.bool_(True), np.bool_(False)])


def spoiled(array):
    """``array`` as nested lists with one entry None, NaN or +-inf; or text;
    or ragged rows."""
    def put(index, bad):
        values = np.array(array, dtype=object)
        values.flat[index] = bad
        return values.tolist()

    return st.builds(
        put, st.integers(0, array.size - 1),
        st.sampled_from([None, math.nan, math.inf, -math.inf]),
    ) | st.text(max_size=8) | st.just([array.tolist(), [1.0]])


def off_grid(shape):
    """Arrays of ones of any shape of at most 3 axes but ``shape``, or
    ragged rows."""
    return st.lists(st.integers(0, 14), max_size=3).filter(
        lambda sides: tuple(sides) != shape).map(np.ones) | st.just(
        [np.ones(shape[1]).tolist(), [1.0]])


# a basis whose wavelengths are shifted off the data's
wavelength_shifts = st.floats(1.0, 300.0) | st.floats(-300.0, -1.0)

# each harness entry point, run on a cube and a config
HARNESS_RUNS = {
    "run_pipeline": run_pipeline,
    "time_budget_sweep": lambda cube, config: time_budget_sweep(cube, config, (0.1,)),
    "compare_sampling": compare_sampling,
    "grid_search_dimension": lambda cube, config: grid_search_dimension(
        cube, config, (2,)),
    "train_dimension_model": lambda cube, config: train_dimension_model(
        [cube], config, (0.5,)),
}
not_cubes = junk | st.none() | st.sampled_from([np.ones((4, 4, BANDS)), ExperimentConfig()])
not_configs = junk | st.none() | st.sampled_from([{"seed": 1}, "uniform-whisk"])


@contextlib.contextmanager
def costly_stages_refused():
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_costly_stages(patch)
        yield
    assert calls == []


@pytest.fixture(scope="module")
def scene():
    cube = random_cube(12, 12, BANDS, rank=3, seed=41)
    clues = cube_to_clues(cube, scatter_mask(12, 12, 0.3, seed=42))
    guide = make_guide(cube)
    return cube, guide, clues, learn_basis(cube), build_system(guide, clues)


def with_bad(items, bad_value, data):
    """``items`` with ``bad_value`` at a drawn position."""
    items = list(items)
    items.insert(data.draw(st.integers(0, len(items)), label="position"), bad_value)
    return items


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_bad_setting_is_a_typed_error_before_any_work(scene, data):
    cube, guide, clues, basis, system = scene
    entries = {
        **{f"config {name}": (values, lambda v, name=name: ExperimentConfig(**{name: v}))
           for name, values in BAD_SETTINGS.items()},
        "search dims": (bad_dims, lambda v: grid_search_dimension(
            cube, ExperimentConfig(), with_bad((2, 3), v, data))),
        "search budgets": (bad_budgets, lambda v: grid_search_dimension(
            cube, ExperimentConfig(), (2,), with_bad((0.5,), v, data))),
        "training dims": (bad_dims, lambda v: train_dimension_model(
            [cube], ExperimentConfig(), (0.5, 1.0), with_bad((2, 3), v, data))),
        "training budgets": (bad_budgets, lambda v: train_dimension_model(
            [cube], ExperimentConfig(), with_bad((0.5,), v, data))),
        "sweep ratios": (bad_ratios, lambda v: time_budget_sweep(
            cube, ExperimentConfig(), with_bad((0.1,), v, data))),
        "search dims alone": (single_values, lambda v: grid_search_dimension(
            cube, ExperimentConfig(), v)),
        "search budgets alone": (single_values, lambda v: grid_search_dimension(
            cube, ExperimentConfig(), (2,), v)),
        "training budgets alone": (single_values, lambda v: train_dimension_model(
            [cube], ExperimentConfig(), v)),
        "training dims alone": (single_values, lambda v: train_dimension_model(
            [cube], ExperimentConfig(), (0.5, 1.0), v)),
        "sweep ratios alone": (single_values, lambda v: time_budget_sweep(
            cube, ExperimentConfig(), v)),
        "comparison patterns alone": (single_values, lambda v: compare_sampling(
            cube, ExperimentConfig(), v)),
        "training cubes alone": (st.just(cube), lambda v: train_dimension_model(
            v, ExperimentConfig(), (0.5, 1.0))),
        "evaluate reconstruction": (not_numeric, lambda v: evaluate(cube, v)),
        "evaluate empty pair": (empty_arrays, lambda v: evaluate(v, v)),
        "build_mask shape": (bad_shapes, lambda v: build_mask(
            SamplingPlan(data.draw(st.sampled_from(UNGUIDED), label="pattern"), 0.5),
            shape=v)),
        "sampling plan seed": (bool_seeds, lambda v: SamplingPlan("random", 0.5, seed=v)),
        "noise seed": (bool_seeds, lambda v: NoiseParams(t=1.0, seed=v)),
        "colorize dim": (bad_colorize_dims, lambda v: colorize(guide, clues, basis, v)),
        "colorize rescale_alpha": (bad_budgets, lambda v: colorize(
            guide, clues, rescale_alpha=v)),
        "edge_filter low_percentile": (junk | st.none() | non_finite | forms(
            st.floats(max_value=-1e-300) | st.floats(90.0, exclude_min=True)),
            lambda v: edge_filter(clues, guide, low_percentile=v)),
        "colorize method": (not_in(("auto", "direct", "iterative")),
                            lambda v: colorize(guide, clues, method=v)),
        "colorize tol": (bad_budgets, lambda v: colorize(guide, clues, tol=v)),
        "colorize max_iter": (not_counts | st.none(), lambda v: colorize(
            guide, clues, method="iterative", max_iter=v)),
        "solve method": (not_in(("auto", "direct", "iterative")),
                         lambda v: solve(system, method=v)),
        "solve tol": (bad_budgets, lambda v: solve(system, tol=v)),
        "solve max_iter": (not_counts | st.none(),
                           lambda v: solve(system, method="iterative", max_iter=v)),
    }
    entry = data.draw(st.sampled_from(sorted(entries)), label="entry")
    values, call = entries[entry]
    value = data.draw(values, label="value")
    with costly_stages_refused(), pytest.raises((ConfigError, ValidationError)):
        call(value)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_bad_array_mask_guide_or_basis_is_a_typed_error_before_any_work(scene, data):
    cube, guide, clues, basis, _ = scene
    flat = SpectralResponse.visible_flat(cube.wavelengths)
    parts = {"wavelengths": basis.wavelengths, "vectors": basis.vectors,
             "singular_values": basis.singular_values}
    curves = [VarianceCurve(np.ones(BANDS), 1, -float(n)) for n in range(6)]
    entries = {
        "project spectra": (scalars | spoiled(np.ones((3, BANDS))),
                            lambda v: project(v, basis)),
        "unproject coefficients": (scalars | spoiled(np.ones((3, BANDS))),
                                   lambda v: unproject(v, basis)),
        "luminance_rescale reconstruction": (spoiled(cube.data), lambda v: luminance_rescale(
            v, guide, response_guide=flat)),
        **{f"basis {name}": (spoiled(part), lambda v, name=name: SpectralBasis(
            **{**parts, name: v})) for name, part in parts.items()},
        "variance curve": (spoiled(np.ones(BANDS)), lambda v: VarianceCurve(v, 1, 0.0)),
        "dimension labels": (spoiled(np.full(6, 3.0)),
                             lambda v: fit_dimension_model(curves, v)),
        "clue set mask": (off_grid(cube.shape[:2]), lambda v: ClueSet(
            cube.height, cube.width, cube.wavelengths, v, clues.spectra)),
        "cube_to_clues mask": (off_grid(cube.shape[:2]), lambda v: cube_to_clues(cube, v)),
        "simulate_clues mask": (off_grid(cube.shape[:2]), lambda v: simulate_clues(
            cube, v, NoiseParams(t=1.0))),
        "edge_filter guide": (off_grid(cube.shape[:2]), lambda v: edge_filter(clues, v)),
        "build_system guide": (off_grid(cube.shape[:2]), lambda v: build_system(v, clues)),
        "luminance_rescale guide": (off_grid(cube.shape[:2]),
                                    lambda v: luminance_rescale(cube, v)),
        **{f"{name} basis wavelengths": (wavelength_shifts, lambda v, call=call: call(
            SpectralBasis(basis.wavelengths + v, basis.vectors, basis.singular_values)))
           for name, call in (("project", lambda b: project(clues, b)),
                              ("variance_curve", lambda b: variance_curve(clues, b)),
                              ("colorize", lambda b: colorize(guide, clues, b)))},
        **{f"{name} response wavelengths": (wavelength_shifts, lambda v, call=call: call(
            SpectralResponse(cube.wavelengths + v, np.ones(BANDS))))
           for name, call in (("make_guide", lambda r: make_guide(cube, r)),
                              ("simulate_guide", lambda r: simulate_guide(
                                  cube, NoiseParams(t=1.0), r)))},
        "evaluate mismatched pair": (off_grid(cube.shape), lambda v: evaluate(cube, v)),
        **{f"{name} cube": (not_cubes, lambda v, run=run: run(v, ExperimentConfig()))
           for name, run in HARNESS_RUNS.items()},
        **{f"{name} config": (not_configs, lambda v, run=run: run(cube, v))
           for name, run in HARNESS_RUNS.items()},
        "train_dimension_model later cube": (not_cubes, lambda v: train_dimension_model(
            with_bad([cube], v, data), ExperimentConfig(), (0.5,))),
    }
    entry = data.draw(st.sampled_from(sorted(entries)), label="entry")
    values, call = entries[entry]
    value = data.draw(values, label="value")
    with costly_stages_refused(), pytest.raises(ValidationError):
        call(value)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_form_of_a_good_setting_gives_the_same_config(data):
    name = data.draw(st.sampled_from(sorted(GOOD_SETTINGS)), label="setting")
    value = data.draw(GOOD_SETTINGS[name], label="value")
    typed = ExperimentConfig(**{name: value})
    assert getattr(typed, name) == value
    assert type(getattr(typed, name)) is type(value)
    for form in (np.array(value)[()], str(value)):
        assert ExperimentConfig(**{name: form}) == typed


# ---------------------------------------------------------------------------
# CLI

# flag values at the edges, and a few that run; never a big size
EDGES = ["0", "-1", "1", "2", "3", "0.5", "2.5", "nan", "inf", "-inf", "1e308",
         "5e-324", "", "x", "none", "auto", "1" + "0" * 400]
FLAG_VALUES = {
    "--workers": ["0", "-1", "1", "2", "4", "2.5", "x", "", "nan"],
    "--pattern": list(PATTERNS) + ["sobol", ""],
    "--solver": ["auto", "direct", "iterative", "cg", ""],
    "--dims": ["2", "2,3", "2,2", "0", "x", "2.5", "9", ",", "1,,3", "4"],
    "--budgets": ["0.5", "0.5,1", "0", "nan", "x", "1e308", "-1", ","],
    "--ratios": ["0.1", "0.1,0.5", "0", "1.5", "nan", "x", "5e-324", "1", ","],
    "--patterns": ["random", "random,uniform-push", "sobol", ",", "guided-whisk"],
    "--shape": ["8x8", "1x1", "0x5", "x", "3x", "-3x5", "16x16"],
}
HARNESS = ("--seed", "--pattern", "--rate", "--budget", "--dim", "--workers")
COMMANDS = {
    "simulate": (["simulate", "{cube}", "--out-clues", "{out}"],
                 ("--pattern", "--rate", "--alpha", "--budget", "--guide-budget",
                  "--rho", "--mu", "--sigma", "--seed")),
    "sample": (["sample", "--out", "{out}"],
               ("--pattern", "--rate", "--alpha", "--seed", "--shape")),
    "basis learn": (["basis", "learn", "{cube}", "--out", "{out}"], ("--rank",)),
    "colorize": (["colorize", "--guide", "{guide}", "--clues", "{clues}",
                  "--basis", "{basis}", "--out", "{out}"],
                 ("--dim", "--solver", "--tol", "--max-iter")),
    "pipeline": (["pipeline", "{cube}"], HARNESS),
    "sweep-dim": (["sweep-dim", "{cube}"], HARNESS + ("--dims", "--budgets")),
    "sweep-budget": (["sweep-budget", "{cube}"], HARNESS + ("--ratios",)),
    "compare-sampling": (["compare-sampling", "{cube}"], HARNESS + ("--patterns",)),
    "train-dim-model": (["train-dim-model", "{cube}", "--out", "{out}"],
                        HARNESS + ("--budgets", "--dims")),
}
REQUIRED = {"sweep-dim": ("--dims",), "sweep-budget": ("--ratios",),
            "train-dim-model": ("--budgets",)}
ENV_FIELDS = ("seed", "time_budget", "rate", "dim", "rank", "tol", "max_iter",
              "rescale_alpha", "edge_filter", "workers")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cube = random_cube(16, 16, BANDS, rank=3, seed=21)
    paths = {name: root / name for name in ("cube.hsc", "guide.pgm", "clues.hsclue",
                                            "basis.hsb", "out")}
    formats.write_cube(cube, paths["cube.hsc"])
    formats.write_guide(make_guide(cube), paths["guide.pgm"])
    formats.write_clues(cube_to_clues(cube, scatter_mask(16, 16, 0.3, seed=3)),
                        paths["clues.hsclue"])
    formats.write_basis(learn_basis(cube), paths["basis.hsb"])
    return {"cube": paths["cube.hsc"], "guide": paths["guide.pgm"],
            "clues": paths["clues.hsclue"], "basis": paths["basis.hsb"],
            "out": paths["out"]}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_command_exits_0_2_or_3_with_one_error_line(cli_files, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    template, flags = COMMANDS[command]
    argv = [arg.format(**cli_files) for arg in template]
    for flag in flags:
        # a third of the flags, so that some command lines are all good
        given_flag = data.draw(st.integers(0, 2), label=flag) == 0
        if given_flag or flag in REQUIRED.get(command, ()):
            value = data.draw(st.sampled_from(FLAG_VALUES.get(flag, EDGES)), label=flag)
            argv.append(f"{flag}={value}")
    env = data.draw(st.dictionaries(
        st.sampled_from(ENV_FIELDS).map(lambda name: f"HYPERCOLOR_{name.upper()}"),
        st.sampled_from(EDGES), max_size=1), label="environment")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{command} exits {code}")
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
