"""Property tests: invariants the docstrings promise, checked on random inputs."""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from hypercolor import (  # noqa: E402
    ClueSet,
    GuideImage,
    HyperCube,
    NoiseParams,
    TruncatedFileError,
    affinity_weights,
    build_system,
    colorize,
    cube_to_clues,
    formats,
    learn_basis,
    luminance_rescale,
    make_guide,
    simulate_clues,
    solve,
)
from hypercolor.colorizer import _dissection_rank  # noqa: E402

from conftest import densify  # noqa: E402

# 8-bit-style guides: distinct levels stay at least one step apart, so an
# affine map cannot round a difference between two pixels away
guides = st.tuples(st.integers(2, 12), st.integers(2, 12)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.integers(0, 255).map(float))
)


@settings(max_examples=60, deadline=None)
@given(
    guide=guides,
    scale=st.floats(0.25, 4.0),
    offset=st.floats(-100.0, 100.0),
)
def test_affinity_rows_sum_to_one_and_ignore_affine_rescale(guide, scale, offset):
    weights = affinity_weights(guide)
    assert np.all(weights >= 0.0)
    np.testing.assert_allclose(weights.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    rescaled = affinity_weights(scale * guide + offset)
    np.testing.assert_allclose(rescaled, weights, rtol=0, atol=1e-7)


@st.composite
def cubes(draw, max_side=4, max_bands=3):
    """Small cubes whose values survive the float32 payload of cube files."""
    height, width = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    bands = draw(st.integers(1, max_bands))
    data = draw(
        arrays(np.float32, (height, width, bands), elements=st.floats(0.0, 1.0, width=32))
    )
    return HyperCube(data.astype(np.float64), np.linspace(420.0, 680.0, bands))


@settings(max_examples=40, deadline=None)
@given(
    cube=cubes(max_side=6, max_bands=4),
    data=st.data(),
    t=st.floats(1e-7, 1.0),
    seed=st.integers(0, 2**32),
)
def test_clue_noise_ignores_the_rest_of_the_mask(cube, data, t, seed):
    shape = (cube.height, cube.width)
    mask = data.draw(arrays(np.bool_, shape))
    mask.flat[data.draw(st.integers(0, mask.size - 1))] = True
    params = NoiseParams(t=t, seed=seed)
    alone = densify(simulate_clues(cube, mask, params))
    among_all = densify(simulate_clues(cube, np.ones(shape, bool), params))
    assert np.array_equal(alone[mask], among_all[mask])


def _truncations_raise(path, read):
    blob = path.read_bytes()
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(TruncatedFileError):
            read(path)


@settings(max_examples=25, deadline=None)
@given(cube=cubes(), data=st.data())
def test_binary_files_round_trip_and_truncations_raise(cube, data):
    clues = cube_to_clues(cube, data.draw(arrays(np.bool_, (cube.height, cube.width))))
    basis = learn_basis(cube)
    with tempfile.TemporaryDirectory() as folder:
        paths = {name: Path(folder) / name for name in ("cube", "clues", "basis")}
        formats.write_cube(cube, paths["cube"])
        formats.write_clues(clues, paths["clues"])
        formats.write_basis(basis, paths["basis"])

        cube_back = formats.read_cube(paths["cube"])
        assert np.array_equal(cube_back.data, cube.data)
        assert np.array_equal(cube_back.wavelengths, cube.wavelengths)
        clues_back = formats.read_clues(paths["clues"])
        assert np.array_equal(clues_back.mask, clues.mask)
        assert np.array_equal(clues_back.spectra, clues.spectra)
        assert np.array_equal(clues_back.wavelengths, clues.wavelengths)
        basis_back = formats.read_basis(paths["basis"])
        assert np.array_equal(basis_back.vectors, basis.vectors)
        assert np.array_equal(basis_back.singular_values, basis.singular_values)
        assert np.array_equal(basis_back.wavelengths, basis.wavelengths)

        _truncations_raise(paths["cube"], formats.read_cube)
        _truncations_raise(paths["clues"], formats.read_clues)
        _truncations_raise(paths["basis"], formats.read_basis)


@settings(max_examples=60, deadline=None)
@given(cube=cubes(max_side=6, max_bands=5))
def test_luminance_rescale_fixes_a_cube_its_guide_agrees_with(cube):
    # the flat-response band mean is the guide this cube would produce
    guide = GuideImage(cube.data.mean(axis=2))
    rescaled, _degenerate = luminance_rescale(cube, guide, alpha="auto")
    np.testing.assert_allclose(rescaled.data, cube.data, rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 10), st.integers(2, 10)),
    field_seed=st.integers(0, 2**32 - 1),
    spectrum=arrays(np.float64, st.integers(2, 8), elements=st.floats(0.05, 1.0)),
    first_nm=st.floats(400.0, 690.0),
    last_nm=st.floats(705.0, 1000.0),
)
# the README's 31 bands over 420-720 nm
@example(
    shape=(16, 16), field_seed=0, spectrum=np.linspace(0.2, 1.0, 31),
    first_nm=420.0, last_nm=720.0,
)
def test_colorize_recovers_a_fully_sampled_rank_one_cube(
    shape, field_seed, spectrum, first_nm, last_nm
):
    # the span straddles 700 nm, so the guide's visible window covers only
    # some of the bands, and the rescale must weigh them as the guide does
    field = np.random.default_rng(field_seed).uniform(0.1, 1.0, shape)
    cube = HyperCube(
        field[:, :, None] * spectrum, np.linspace(first_nm, last_nm, spectrum.size)
    )
    clues = cube_to_clues(cube, np.ones(shape, dtype=bool))
    result = colorize(make_guide(cube), clues, apply_edge_filter=False)
    np.testing.assert_allclose(result.cube.data, cube.data, rtol=1e-12, atol=0)


shapes = st.tuples(st.integers(1, 12), st.integers(1, 20))


@settings(max_examples=60, deadline=None)
@given(mask=shapes.flatmap(lambda shape: arrays(np.bool_, shape)))
def test_mask_files_round_trip(mask):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "mask.pbm"
        formats.write_mask(mask, path)
        back = formats.read_mask(path)
    assert back.dtype == np.bool_
    assert np.array_equal(back, mask)


@settings(max_examples=60, deadline=None)
@given(
    values=shapes.flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(-10.0, 1000.0))
    )
)
# a subnormal peak whose step peak / 65535 rounds below what 16 bits hold
@example(values=np.array([[5e-324 * 65537]]))
def test_guide_files_quantize_within_half_a_step_and_rewrite_exactly(values):
    clamped = np.maximum(values, 0.0)
    peak = float(clamped.max())
    with tempfile.TemporaryDirectory() as folder:
        first, second = Path(folder) / "a.pgm", Path(folder) / "b.pgm"
        formats.write_guide(GuideImage(values), first)
        back = formats.read_guide(first)
        # the step is the scale the sidecar records: peak / 65535 (1.0 for
        # an all-zero guide), except where that step is subnormal and
        # rounds to a multiple of the smallest subnormal
        step = json.loads(Path(folder, "a.pgm.json").read_text())["scale"]
        if peak == 0 or peak / 65535.0 >= np.finfo(np.float64).tiny:
            assert step == (peak / 65535.0 if peak > 0 else 1.0)
        assert np.all(np.abs(back.values - clamped) <= 0.5 * step * (1 + 1e-9))
        formats.write_guide(back, second)
        assert second.read_bytes() == first.read_bytes()
        assert (
            Path(folder, "b.pgm.json").read_bytes()
            == Path(folder, "a.pgm.json").read_bytes()
        )


@settings(max_examples=200, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 70), st.integers(1, 70)),
        st.integers(1, 4000).flatmap(
            lambda n: st.sampled_from([(1, n), (n, 1), (3, n)])
        ),
    )
)
def test_dissection_rank_is_a_permutation_of_the_pixels(shape):
    rank = _dissection_rank(*shape)
    assert rank.shape == shape
    assert np.array_equal(np.sort(rank, axis=None), np.arange(shape[0] * shape[1]))


_EPS = np.finfo(np.float64).eps
_SOLVE_TOL = 1e-7


@st.composite
def propagation_cases(draw, max_side=12):
    """A guide of 1 to ``max_side``² pixels, a clue mask with at least one
    clue and the clue values of 1 to 3 channels, of either sign.

    Guides are noisy, two-level or steep ramps.
    """
    height = draw(st.integers(1, max_side))
    width = draw(st.integers(1, max_side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noisy", "two-level", "steep"]))
    if kind == "noisy":
        guide = rng.random((height, width))
    elif kind == "two-level":
        guide = np.where(rng.random((height, width)) < 0.5, 0.1, 0.9)
    else:
        ramp = np.add.outer(np.arange(height), np.arange(width)) * 1e3
        guide = ramp + rng.random((height, width))
    mask = rng.random((height, width)) < draw(st.floats(0.01, 0.5))
    mask.flat[rng.integers(mask.size)] = True
    channels = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-3, 3))
    values = rng.normal(0.0, scale, (int(mask.sum()), channels))
    return guide, mask, values


def _system(guide, mask, values):
    clues = ClueSet(*mask.shape, np.linspace(420.0, 680.0, values.shape[1]), mask, values)
    return build_system(guide, clues)


def _error_bound(system, method):
    """A function of clue values giving, per channel, how far a solution
    of ``system`` with those values may stray from the exact one.

    Round-off: a backward-stable LU solve errs by at most about
    n * eps * cond(A) relative to the clue scale. The iterative solve adds
    its verified residual: |x - x*| <= ||A^-1|| * tol * ||b||.
    """
    dense = system.matrix.toarray()
    inverse_norm = np.linalg.norm(np.linalg.inv(dense), 2)
    roundoff = dense.shape[0] * _EPS * inverse_norm * np.linalg.norm(dense, 2)

    def bound(values):
        out = roundoff * np.abs(values).max(axis=0)
        if method == "iterative":
            out = out + inverse_norm * _SOLVE_TOL * np.linalg.norm(values, axis=0)
        return out

    return bound


_LONE_PIXEL = (np.ones((1, 1)), np.ones((1, 1), bool), np.array([[3.0, 5.0]]))


@settings(max_examples=60, deadline=None)
@given(case=propagation_cases(), method=st.sampled_from(["direct", "iterative"]))
# a pixel with no neighbour: its clue row alone fixes it
@example(case=_LONE_PIXEL, method="direct")
@example(case=_LONE_PIXEL, method="iterative")
def test_solution_stays_within_each_channels_clue_range(case, method):
    # a non-clue row averages its neighbours and a clue row averages its
    # clue with them, with positive row-stochastic weights
    guide, mask, values = case
    system = _system(guide, mask, values)
    solution, _ = solve(system, method=method, tol=_SOLVE_TOL)
    slack = _error_bound(system, method)(values)
    assert np.all(solution >= values.min(axis=0) - slack)
    assert np.all(solution <= values.max(axis=0) + slack)


@settings(max_examples=60, deadline=None)
@given(
    case=propagation_cases(),
    method=st.sampled_from(["direct", "iterative"]),
    gain=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_is_linear_in_the_clue_values(case, method, gain, seed):
    guide, mask, first = case
    second = np.random.default_rng(seed).normal(0.0, np.abs(first).max(), first.shape)
    system = _system(guide, mask, first)
    combined = gain * first + second
    x1, x2, x12 = (
        solve(dataclasses.replace(system, clue_values=values), method=method,
              tol=_SOLVE_TOL)[0]
        for values in (first, second, combined)
    )
    bound = _error_bound(system, method)
    slack = (
        bound(combined)
        + abs(gain) * bound(first)
        + bound(second)
        # rounding of gain * x1 + x2 itself
        + 2 * _EPS * (abs(gain) * np.abs(x1).max(axis=0) + np.abs(x2).max(axis=0))
    )
    assert np.all(np.abs(x12 - (gain * x1 + x2)) <= slack)


@settings(max_examples=40, deadline=None)
@given(
    case=propagation_cases(),
    method=st.sampled_from(["direct", "iterative"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_channel_is_solved_the_same_in_any_block(case, method, seed):
    # direct solves take 8 channels per triangular solve: 1, 8 and 9
    # channels fill a block partly, exactly and one past it, and 31 fill
    # several, so every column must not depend on its neighbours
    guide, mask, _values = case
    values = np.random.default_rng(seed).normal(0.0, 1.0, (int(mask.sum()), 31))
    system = _system(guide, mask, values)
    every, _ = solve(system, method=method, tol=_SOLVE_TOL)
    for count in (1, 8, 9):
        leading, _ = solve(dataclasses.replace(system, clue_values=values[:, :count]),
                           method=method, tol=_SOLVE_TOL)
        assert np.array_equal(leading, every[:, :count])


@settings(max_examples=60, deadline=None)
@given(case=propagation_cases())
def test_direct_and_iterative_solves_agree(case):
    guide, mask, values = case
    system = _system(guide, mask, values)
    direct, _ = solve(system, method="direct", tol=_SOLVE_TOL)
    iterative, _ = solve(system, method="iterative", tol=_SOLVE_TOL)
    # each lies within its own bound of the exact solution
    slack = (_error_bound(system, "direct")(values)
             + _error_bound(system, "iterative")(values))
    assert np.all(np.abs(direct - iterative) <= slack)
