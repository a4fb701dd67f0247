"""Command-line surface: subcommands, exit codes, and artifact handling."""

from __future__ import annotations

import argparse
import dataclasses
import json

import numpy as np
import pytest

from hypercolor import (
    DimensionModel,
    HyperCube,
    colorize,
    estimate_dimension,
    evaluate,
    formats,
    learn_basis,
    make_guide,
)
from hypercolor import harness
from hypercolor.cli import _CONFIG_FLAGS, build_parser, main
from hypercolor.harness import _FIELD_PARSERS, ExperimentConfig
from hypercolor.sampling import SamplingPlan, build_mask

from conftest import random_cube, scatter_mask, wavelengths_for


def run_cli(capsys, *argv):
    """Invoke the CLI in-process and return (exit code, stdout text)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def assert_error(capsys, code, *argv):
    """The CLI ends ``argv`` with exit ``code`` and one error line."""
    assert main(list(argv)) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture
def cube_file(tmp_path):
    cube = random_cube(16, 16, 4, rank=3, seed=21)
    path = tmp_path / "scene.hsc"
    formats.write_cube(cube, path)
    return path


@pytest.fixture
def guide_file(tmp_path):
    cube = random_cube(16, 16, 4, rank=3, seed=21)
    path = tmp_path / "guide.pgm"
    formats.write_guide(make_guide(cube), path)
    return path


@pytest.fixture
def clue_file(tmp_path):
    cube = random_cube(16, 16, 4, rank=3, seed=21)
    mask = scatter_mask(16, 16, 0.3, seed=3)
    from hypercolor import cube_to_clues

    path = tmp_path / "clues.hsclue"
    formats.write_clues(cube_to_clues(cube, mask), path)
    return path


# the elbow heuristic needs floor dimensions after the knee, so scenes for
# dimension-estimation tests keep the rank well below the band count
@pytest.fixture
def deep_cube_file(tmp_path):
    cube = random_cube(16, 16, 6, rank=3, seed=23)
    path = tmp_path / "deep.hsc"
    formats.write_cube(cube, path)
    return path


@pytest.fixture
def deep_clue_file(tmp_path):
    cube = random_cube(16, 16, 6, rank=3, seed=23)
    mask = scatter_mask(16, 16, 0.3, seed=3)
    from hypercolor import cube_to_clues

    path = tmp_path / "deep.hsclue"
    formats.write_clues(cube_to_clues(cube, mask), path)
    return path


@pytest.fixture
def wide_model_file(tmp_path):
    """A model trained on 31-band cubes that predicts 20 whatever the curve."""
    fields = ("elbow", "log_min_variance", "elbow_sq", "log_min_variance_sq",
              "elbow_x_log_min_variance")
    payload = {name: 0.0 for name in fields}
    payload.update(intercept=20.0, clamp_min=2, clamp_max=31)
    path = tmp_path / "wide-model.json"
    path.write_text(json.dumps(payload))
    return path


class TestConvert:
    def test_npy_to_cube(self, tmp_path, capsys):
        data = np.random.default_rng(0).random((5, 6, 3))
        src = tmp_path / "stack.npy"
        np.save(src, data)
        dst = tmp_path / "stack.hsc"
        payload = run_json(
            capsys, "convert", str(src), str(dst), "--wavelengths", "420:680"
        )
        assert payload == {"height": 5, "width": 6, "bands": 3}
        cube = formats.read_cube(dst)
        # cube files carry a float32 payload, wavelengths stay float64
        assert np.array_equal(cube.data, data.astype(np.float32))
        assert np.array_equal(cube.wavelengths, np.linspace(420.0, 680.0, 3))

    def test_cube_to_npy(self, tmp_path, capsys, cube_file):
        dst = tmp_path / "out.npy"
        run_json(capsys, "convert", str(cube_file), str(dst))
        assert np.array_equal(np.load(dst), formats.read_cube(cube_file).data)

    def test_wavelength_list(self, tmp_path, capsys):
        data = np.full((2, 2, 3), 0.5)
        src = tmp_path / "stack.npy"
        np.save(src, data)
        dst = tmp_path / "out.hsc"
        run_json(capsys, "convert", str(src), str(dst), "--wavelengths", "450,550,650")
        assert np.array_equal(
            formats.read_cube(dst).wavelengths, [450.0, 550.0, 650.0]
        )

    def test_npy_requires_wavelengths(self, tmp_path, capsys):
        src = tmp_path / "stack.npy"
        np.save(src, np.full((2, 2, 3), 0.5))
        code, _ = run_cli(capsys, "convert", str(src), str(tmp_path / "out.hsc"))
        assert code == 2

    def test_wrong_wavelength_count(self, tmp_path, capsys):
        src = tmp_path / "stack.npy"
        np.save(src, np.full((2, 2, 3), 0.5))
        code, _ = run_cli(
            capsys,
            "convert", str(src), str(tmp_path / "out.hsc"),
            "--wavelengths", "450,550",
        )
        assert code == 2

    def test_non_cube_npy_rejected(self, tmp_path, capsys):
        src = tmp_path / "flat.npy"
        np.save(src, np.zeros((4, 4)))
        code, _ = run_cli(
            capsys,
            "convert", str(src), str(tmp_path / "out.hsc"),
            "--wavelengths", "420:680",
        )
        assert code == 2

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys, "convert", str(tmp_path / "nope.hsc"), str(tmp_path / "out.npy")
        )
        assert code == 3


class TestSimulate:
    def test_writes_all_artifacts(self, tmp_path, capsys, cube_file):
        guide = tmp_path / "g.pgm"
        mask = tmp_path / "m.pbm"
        clues = tmp_path / "c.hsclue"
        payload = run_json(
            capsys,
            "simulate", str(cube_file),
            "--rate", "0.25",
            "--out-guide", str(guide),
            "--out-mask", str(mask),
            "--out-clues", str(clues),
        )
        mask_array = formats.read_mask(mask)
        clue_set = formats.read_clues(clues)
        assert payload["mask_count"] == int(mask_array.sum()) == clue_set.count
        assert payload["clue_time"] == pytest.approx(1.0 / clue_set.count)
        assert payload["guide_time"] == pytest.approx(1.0 / 256)
        assert formats.read_guide(guide).values.shape == (16, 16)

    @pytest.mark.parametrize("flags", [
        ("--rho", "5e-324"), ("--mu", "1e308", "--sigma", "1e308"),
    ])
    def test_noise_past_the_float_range_is_one_error_line(
        self, tmp_path, capsys, cube_file, flags
    ):
        assert_error(capsys, 3, "simulate", str(cube_file), *flags,
                     "--out-clues", str(tmp_path / "c.hsclue"))

    def test_explicit_mask_used_verbatim(self, tmp_path, capsys, cube_file):
        mask = scatter_mask(16, 16, 0.2, seed=9)
        mask_path = tmp_path / "fixed.pbm"
        formats.write_mask(mask, mask_path)
        clues = tmp_path / "c.hsclue"
        payload = run_json(
            capsys,
            "simulate", str(cube_file),
            "--mask", str(mask_path),
            "--out-clues", str(clues),
        )
        assert payload["mask_count"] == int(mask.sum())
        assert np.array_equal(formats.read_clues(clues).mask, mask)

    def test_byte_deterministic(self, tmp_path, capsys, cube_file):
        paths = [tmp_path / "a.hsclue", tmp_path / "b.hsclue"]
        for path in paths:
            run_json(
                capsys,
                "simulate", str(cube_file),
                "--rate", "0.25", "--seed", "7",
                "--out-clues", str(path),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_mask_is_runtime_error(self, tmp_path, capsys, cube_file):
        mask_path = tmp_path / "empty.pbm"
        formats.write_mask(np.zeros((16, 16), dtype=bool), mask_path)
        code = main(["simulate", str(cube_file), "--mask", str(mask_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "Traceback" not in err

    def test_zero_rate_is_usage_error(self, capsys, cube_file):
        code, _ = run_cli(capsys, "simulate", str(cube_file), "--rate", "0")
        assert code == 2

    @pytest.mark.parametrize("field, bad, good", [
        ("rate", "0", "0.5"),
        ("seed", "x", "1"),
    ])
    def test_flag_overrides_bad_env_setting(
        self, capsys, cube_file, monkeypatch, field, bad, good
    ):
        monkeypatch.setenv(f"HYPERCOLOR_{field.upper()}", bad)
        assert run_json(
            capsys, "simulate", str(cube_file), f"--{field}", good
        )["mask_count"] > 0
        code = main(["simulate", str(cube_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and field in err
        assert_error(capsys, 2, "simulate", str(cube_file), f"--{field}", bad)

    def test_env_overrides_reach_simulate(self, capsys, cube_file, monkeypatch):
        default = run_json(capsys, "simulate", str(cube_file))["mask_count"]
        flagged = run_json(
            capsys, "simulate", str(cube_file), "--rate", "0.25"
        )["mask_count"]
        monkeypatch.setenv("HYPERCOLOR_RATE", "0.5")
        from_env = run_json(capsys, "simulate", str(cube_file))["mask_count"]
        assert from_env not in (default, flagged)
        # the flag still beats the variable
        assert run_json(
            capsys, "simulate", str(cube_file), "--rate", "0.25"
        )["mask_count"] == flagged


class TestConfigFlags:
    def test_flags_and_parsers_cover_config_fields(self):
        names = {spec.name for spec in dataclasses.fields(ExperimentConfig)}
        assert set(_FIELD_PARSERS) == names
        assert {name for name, _text in _CONFIG_FLAGS.values()} <= names

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "{cube}", "--alpha", "2"],
            ["simulate", "{cube}", "--sigma", "-1"],
            ["simulate", "{cube}", "--rho", "0"],
            ["simulate", "{cube}", "--seed", "-1"],
            ["sample", "--alpha", "2", "--shape", "8x8", "--out", "{out}"],
            ["colorize", "--guide", "{guide}", "--clues", "{clues}",
             "--tol", "0", "--out", "{out}"],
            ["colorize", "--guide", "{guide}", "--clues", "{clues}",
             "--solver", "iterative", "--max-iter", "0", "--out", "{out}"],
        ],
    )
    def test_out_of_range_setting_is_usage_error(
        self, tmp_path, capsys, cube_file, guide_file, clue_file, argv
    ):
        paths = {"cube": cube_file, "guide": guide_file, "clues": clue_file,
                 "out": tmp_path / "out"}
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "project", "--basis", "{basis}", "--clues", "{clues}",
             "--dim", "0", "--out", "{out}"],
            ["basis", "learn", "{cube}", "--rank", "0", "--out", "{out}"],
            ["sample", "--rate", "0.25", "--shape", "0x5", "--out", "{out}"],
            ["sample", "--rate", "0.25", "--shape", "5x0", "--out", "{out}"],
            ["sample", "--rate", "0.25", "--shape=-3x5", "--out", "{out}"],
            ["sweep-budget", "{cube}", "--ratios", "0", "--out", "{out}"],
            ["sweep-budget", "{cube}", "--ratios", "1.5", "--out", "{out}"],
            ["sweep-budget", "{cube}", "--ratios", "nan", "--out", "{out}"],
            ["sample", "--pattern", "uniform-push", "--out", "{out}"],
            ["sample", "--pattern", "guided-push", "--shape", "8x8", "--out", "{out}"],
        ],
    )
    def test_out_of_range_argument_is_usage_error(
        self, tmp_path, capsys, cube_file, guide_file, clue_file, argv
    ):
        basis = tmp_path / "basis.hsb"
        run_json(capsys, "basis", "learn", str(cube_file), "--out", str(basis))
        paths = {"cube": cube_file, "guide": guide_file, "clues": clue_file,
                 "basis": basis, "out": tmp_path / "out"}
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestSample:
    def test_blind_pattern_matches_library(self, tmp_path, capsys):
        out = tmp_path / "m.pbm"
        payload = run_json(
            capsys,
            "sample", "--pattern", "uniform-whisk", "--rate", "0.25",
            "--shape", "12x12", "--out", str(out),
        )
        plan = SamplingPlan("uniform-whisk", 0.25, alpha=0.7, seed=0)
        expected = build_mask(plan, shape=(12, 12))
        assert np.array_equal(formats.read_mask(out), expected)
        assert payload == {"mask_count": int(expected.sum()), "shape": [12, 12]}

    def test_guided_pattern_reads_guide(self, tmp_path, capsys, guide_file):
        out = tmp_path / "m.pbm"
        payload = run_json(
            capsys,
            "sample", "--pattern", "guided-push", "--rate", "0.25",
            "--guide", str(guide_file), "--out", str(out),
        )
        assert payload["shape"] == [16, 16]
        assert payload["mask_count"] > 0

    def test_bad_shape_is_usage_error(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys,
            "sample", "--rate", "0.25", "--shape", "8by8",
            "--out", str(tmp_path / "m.pbm"),
        )
        assert code == 2


class TestBasis:
    def test_learn_and_project_clues(self, tmp_path, capsys, cube_file, clue_file):
        basis_path = tmp_path / "basis.hsb"
        payload = run_json(
            capsys, "basis", "learn", str(cube_file), "--out", str(basis_path)
        )
        assert payload["bands"] == 4
        assert payload["rank"] == 4
        coeff_path = tmp_path / "coeff.hsclue"
        payload = run_json(
            capsys,
            "basis", "project", "--basis", str(basis_path),
            "--clues", str(clue_file), "--dim", "2", "--out", str(coeff_path),
        )
        assert payload["dim"] == 2
        assert formats.read_clues(coeff_path).bands == 2

    def test_learn_with_rank(self, tmp_path, capsys, cube_file):
        basis_path = tmp_path / "basis.hsb"
        payload = run_json(
            capsys,
            "basis", "learn", str(cube_file), "--rank", "3", "--out", str(basis_path),
        )
        assert payload["rank"] == 3
        assert formats.read_basis(basis_path).rank == 3

    def test_project_cube_writes_low_rank(self, tmp_path, capsys, cube_file):
        basis_path = tmp_path / "basis.hsb"
        run_json(capsys, "basis", "learn", str(cube_file), "--out", str(basis_path))
        out = tmp_path / "lowrank.hsc"
        payload = run_json(
            capsys,
            "basis", "project", "--basis", str(basis_path),
            "--cube", str(cube_file), "--dim", "2", "--out", str(out),
        )
        assert payload == {"dim": 2, "bands": 4}
        lowrank = formats.read_cube(out)
        flat = lowrank.data.reshape(-1, 4)
        # rank 2 up to the float32 storage noise of the cube file
        assert np.linalg.matrix_rank(flat, tol=1e-3) == 2

    def test_project_needs_exactly_one_input(self, tmp_path, capsys, cube_file, clue_file):
        basis_path = tmp_path / "basis.hsb"
        run_json(capsys, "basis", "learn", str(cube_file), "--out", str(basis_path))
        code, _ = run_cli(
            capsys,
            "basis", "project", "--basis", str(basis_path),
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        code, _ = run_cli(
            capsys,
            "basis", "project", "--basis", str(basis_path),
            "--clues", str(clue_file), "--cube", str(cube_file),
            "--out", str(tmp_path / "x"),
        )
        assert code == 2

    def test_rank_above_bands_is_usage_error(self, tmp_path, capsys, cube_file):
        out = tmp_path / "basis.hsb"
        assert_error(capsys, 2, "basis", "learn", str(cube_file), "--rank", "99",
                     "--out", str(out))
        assert not out.exists()

    def test_mismatched_wavelengths_stay_runtime_error(self, tmp_path, capsys, cube_file):
        other = tmp_path / "other.hsc"
        shifted = wavelengths_for(4, (500.0, 900.0))
        formats.write_cube(HyperCube(random_cube(16, 16, 4, seed=5).data, shifted), other)
        assert_error(capsys, 3, "basis", "learn", str(cube_file), str(other),
                     "--rank", "2", "--out", str(tmp_path / "basis.hsb"))

    @pytest.mark.parametrize("command", [
        ["colorize", "--guide", "{guide}", "--clues", "{clues}", "--out", "{out}"],
        ["estimate-dim", "--clues", "{clues}"],
        ["basis", "project", "--clues", "{clues}", "--out", "{out}"],
        ["basis", "project", "--cube", "{cube}", "--out", "{out}"],
    ], ids=["colorize", "estimate-dim", "project-clues", "project-cube"])
    def test_basis_over_other_wavelengths_is_runtime_error(
        self, tmp_path, capsys, cube_file, guide_file, clue_file, command
    ):
        # the inputs lie over 420-680 nm, the basis over 800-900 nm
        far = HyperCube(random_cube(16, 16, 4, seed=5).data,
                        wavelengths_for(4, (800.0, 900.0)))
        basis_path = tmp_path / "far.hsb"
        formats.write_basis(learn_basis(far), basis_path)
        out = tmp_path / "out"
        argv = [arg.format(guide=guide_file, clues=clue_file, cube=cube_file, out=out)
                for arg in command]
        assert main([*argv, "--basis", str(basis_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: basis wavelengths differ") and err.count("\n") == 1
        assert not out.exists()

    def test_estimate_dim_nested_and_top_level_agree(
        self, tmp_path, capsys, deep_cube_file, deep_clue_file
    ):
        basis_path = tmp_path / "basis.hsb"
        run_json(
            capsys, "basis", "learn", str(deep_cube_file), "--out", str(basis_path)
        )
        nested = run_json(
            capsys,
            "basis", "estimate-dim", "--clues", str(deep_clue_file),
            "--basis", str(basis_path),
        )
        top = run_json(
            capsys,
            "estimate-dim", "--clues", str(deep_clue_file), "--basis", str(basis_path),
        )
        assert nested == top
        assert set(top) == {"dimension", "elbow", "log_min_variance"}
        # the scene is rank 3, so the elbow should land there
        assert top["dimension"] == 3

    def test_model_prediction_is_capped_at_the_basis(
        self, tmp_path, capsys, deep_cube_file, deep_clue_file, wide_model_file
    ):
        basis_path = tmp_path / "basis.hsb"
        run_json(
            capsys, "basis", "learn", str(deep_cube_file), "--out", str(basis_path)
        )
        payload = run_json(
            capsys,
            "estimate-dim", "--clues", str(deep_clue_file), "--basis", str(basis_path),
            "--model", str(wide_model_file),
        )
        assert payload["dimension"] == 6

    @pytest.mark.parametrize("command", [["estimate-dim"], ["basis", "estimate-dim"]])
    def test_truncated_basis_is_usage_error(
        self, tmp_path, capsys, cube_file, clue_file, command
    ):
        # the same rule as colorize --dim auto, with the same exit code
        basis_path = tmp_path / "basis.hsb"
        run_json(capsys, "basis", "learn", str(cube_file), "--rank", "2",
                 "--out", str(basis_path))
        assert main([*command, "--clues", str(clue_file), "--basis", str(basis_path)]) == 2
        err = capsys.readouterr().err
        assert err == 'error: dim "auto" needs a full-rank basis, got rank 2 for 4 bands\n'


class TestColorize:
    def _artifacts(self, tmp_path, capsys, cube_file, rate="0.25"):
        guide = tmp_path / "g.pgm"
        clues = tmp_path / "c.hsclue"
        run_json(
            capsys,
            "simulate", str(cube_file), "--rate", rate,
            "--out-guide", str(guide), "--out-clues", str(clues),
        )
        return guide, clues

    def test_happy_path(self, tmp_path, capsys, cube_file):
        guide, clues = self._artifacts(tmp_path, capsys, cube_file)
        out = tmp_path / "recon.hsc"
        payload = run_json(
            capsys,
            "colorize", "--guide", str(guide), "--clues", str(clues),
            "--solver", "direct", "--out", str(out),
        )
        assert set(payload) == {
            "dimension",
            "solver_method",
            "residual_max",
            "iterations_total",
            "degenerate_pixels",
        }
        assert payload["solver_method"] == "direct"
        recon = formats.read_cube(out)
        assert recon.data.shape == (16, 16, 4)
        assert recon.data.min() >= 0.0

    def test_auto_dim_with_basis(self, tmp_path, capsys, deep_cube_file):
        guide, clues = self._artifacts(tmp_path, capsys, deep_cube_file)
        basis_path = tmp_path / "basis.hsb"
        run_json(
            capsys, "basis", "learn", str(deep_cube_file), "--out", str(basis_path)
        )
        out = tmp_path / "recon.hsc"
        payload = run_json(
            capsys,
            "colorize", "--guide", str(guide), "--clues", str(clues),
            "--basis", str(basis_path), "--dim", "auto",
            "--solver", "direct", "--out", str(out),
        )
        assert payload["dimension"] == 3

    @pytest.mark.parametrize("flags, settings", [
        (["--basis", "{basis}", "--dim", "auto", "--model", "{model}"], {"dim": "auto"}),
        (["--no-edge-filter", "--solver", "iterative"],
         {"edge_filter": False, "solver": "iterative"}),
    ], ids=["auto-dim-model", "no-filter-iterative"])
    def test_writes_the_library_reconstruction(
        self, tmp_path, capsys, deep_cube_file, flags, settings
    ):
        guide, clues = self._artifacts(tmp_path, capsys, deep_cube_file)
        paths = {"basis": tmp_path / "basis.hsb", "model": tmp_path / "model.json"}
        run_json(capsys, "basis", "learn", str(deep_cube_file),
                 "--out", str(paths["basis"]))
        formats.write_model(DimensionModel(2.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                            paths["model"])
        out = tmp_path / "recon.hsc"
        run_json(capsys, "colorize", "--guide", str(guide), "--clues", str(clues),
                 *[flag.format(**paths) for flag in flags], "--out", str(out))

        config = ExperimentConfig(**settings)
        clue_set = formats.read_clues(clues)
        basis = dim = None
        if config.dim == "auto":
            basis = formats.read_basis(paths["basis"])
            model = formats.read_model(paths["model"])
            dim = estimate_dimension(clue_set, basis, model)[0]
        result = colorize(
            formats.read_guide(guide), clue_set, basis, dim,
            apply_edge_filter=config.edge_filter, rescale_alpha=config.rescale_alpha,
            method=config.solver, tol=config.tol, max_iter=config.max_iter,
        )
        expected = tmp_path / "expected.hsc"
        formats.write_cube(result.cube, expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_auto_dim_without_basis_is_usage_error(self, tmp_path, capsys, cube_file):
        guide, clues = self._artifacts(tmp_path, capsys, cube_file)
        code, _ = run_cli(
            capsys,
            "colorize", "--guide", str(guide), "--clues", str(clues),
            "--dim", "auto", "--out", str(tmp_path / "r.hsc"),
        )
        assert code == 2

    def test_dim_without_basis_is_usage_error(self, tmp_path, capsys, cube_file):
        guide, clues = self._artifacts(tmp_path, capsys, cube_file)
        code, _ = run_cli(
            capsys,
            "colorize", "--guide", str(guide), "--clues", str(clues),
            "--dim", "3", "--out", str(tmp_path / "r.hsc"),
        )
        assert code == 2

    def test_dim_above_basis_rank_is_usage_error(self, tmp_path, capsys, cube_file):
        guide, clues = self._artifacts(tmp_path, capsys, cube_file)
        basis_path = tmp_path / "basis.hsb"
        run_json(capsys, "basis", "learn", str(cube_file), "--out", str(basis_path))
        code, _ = run_cli(
            capsys,
            "colorize", "--guide", str(guide), "--clues", str(clues),
            "--basis", str(basis_path), "--dim", "99",
            "--out", str(tmp_path / "r.hsc"),
        )
        assert code == 2

    def test_unconverged_solve_is_runtime_error(self, tmp_path, capsys, cube_file):
        guide, clues = self._artifacts(tmp_path, capsys, cube_file)
        out = tmp_path / "r.hsc"
        code = main([
            "colorize", "--guide", str(guide), "--clues", str(clues),
            "--solver", "iterative", "--max-iter", "1", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "BiCGStab" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_clues_outside_the_visible_window_are_runtime_error(
        self, tmp_path, capsys, guide_file
    ):
        cube = random_cube(16, 16, 4, rank=3, seed=21)
        cube = HyperCube(cube.data, np.linspace(720.0, 900.0, 4))
        from hypercolor import cube_to_clues

        clues = tmp_path / "infrared.hsclue"
        formats.write_clues(cube_to_clues(cube, scatter_mask(16, 16, 0.3)), clues)
        out = tmp_path / "r.hsc"
        code = main([
            "colorize", "--guide", str(guide_file), "--clues", str(clues),
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "visible window" in err
        assert not out.exists()

    def test_missing_clue_file(self, tmp_path, capsys, guide_file):
        code, _ = run_cli(
            capsys,
            "colorize", "--guide", str(guide_file),
            "--clues", str(tmp_path / "nope.hsclue"),
            "--out", str(tmp_path / "r.hsc"),
        )
        assert code == 3


class TestMetrics:
    def test_json_matches_library(self, tmp_path, capsys, cube_file):
        recon_path = tmp_path / "recon.hsc"
        truth = formats.read_cube(cube_file)
        recon = HyperCube(
            np.clip(truth.data + 0.01, 0.0, None), truth.wavelengths
        )
        formats.write_cube(recon, recon_path)
        code, out = run_cli(
            capsys, "metrics", "--truth", str(cube_file), "--recon", str(recon_path)
        )
        assert code == 0
        # compare against the library on the same disk-roundtripped data:
        # one sorted JSON line of the report's dict
        round_tripped = formats.read_cube(recon_path)
        expected = evaluate(truth, round_tripped).to_dict()
        assert out == json.dumps(expected, sort_keys=True) + "\n"

    def test_csv_format(self, tmp_path, capsys, cube_file):
        code, out = run_cli(
            capsys,
            "metrics", "--truth", str(cube_file), "--recon", str(cube_file),
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "psnr,ssim,gfc,ssv,emd,wall_ms"
        assert lines[1].startswith("inf,1.0,")
        assert lines[1].endswith(",0.0") and len(lines) == 2

    def test_identical_cubes_report_inf(self, capsys, cube_file):
        payload = run_json(
            capsys, "metrics", "--truth", str(cube_file), "--recon", str(cube_file)
        )
        assert payload["psnr_db"] == "inf"
        assert payload["ssim"] == 1.0

    def test_include_timing_times_the_scores(self, capsys, cube_file):
        args = ("metrics", "--truth", str(cube_file), "--recon", str(cube_file))
        assert run_json(capsys, *args, "--include-timing")["wall_ms"] > 0.0
        assert run_json(capsys, *args)["wall_ms"] == 0.0


class TestPipeline:
    def test_happy_path_with_artifacts(self, tmp_path, capsys, cube_file):
        out_cube = tmp_path / "recon.hsc"
        out_mask = tmp_path / "mask.pbm"
        out_report = tmp_path / "report.json"
        row = run_json(
            capsys,
            "pipeline", str(cube_file), "--rate", "0.25",
            "--out-cube", str(out_cube),
            "--out-mask", str(out_mask),
            "--out-report", str(out_report),
        )
        assert row["image"] == "scene"
        assert row["rate"] == 0.25
        report = json.loads(out_report.read_text())
        assert report["kind"] == "sweep"
        assert report["rows"][0]["metrics"] == row["metrics"]
        recon = formats.read_cube(out_cube)
        mask = formats.read_mask(out_mask)
        assert recon.data.shape == (16, 16, 4)
        assert int(mask.sum()) == row["mask_count"]

    def test_failed_run_removes_partial_artifacts(self, tmp_path, capsys, cube_file):
        out_cube = tmp_path / "recon.hsc"
        missing_dir_report = tmp_path / "missing" / "report.json"
        code, _ = run_cli(
            capsys,
            "pipeline", str(cube_file), "--rate", "0.25",
            "--out-cube", str(out_cube),
            "--out-report", str(missing_dir_report),
        )
        assert code == 3
        assert not out_cube.exists()

    def test_failed_run_keeps_files_it_did_not_write(self, tmp_path, capsys, cube_file):
        old_report = tmp_path / "old.json"
        old_report.write_text("an earlier report\n")
        code, _ = run_cli(
            capsys,
            "pipeline", str(cube_file), "--rate", "0.25",
            "--out-mask", str(tmp_path / "missing" / "mask.pbm"),
            "--out-report", str(old_report),
        )
        assert code == 3
        assert old_report.read_text() == "an earlier report\n"

    def test_include_timing_prints_the_times(self, capsys, cube_file):
        args = ("pipeline", str(cube_file), "--rate", "0.25")
        row = run_json(capsys, *args, "--include-timing")
        assert row["wall_ms"] > 0.0 and row["metrics"]["wall_ms"] > 0.0
        row = run_json(capsys, *args)
        assert row["wall_ms"] == 0.0 and row["metrics"]["wall_ms"] == 0.0

    def test_cli_flags_override_config_file(self, tmp_path, capsys, cube_file):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"rate": 0.1, "seed": 5}))
        row = run_json(
            capsys,
            "pipeline", str(cube_file), "--config", str(config_path),
            "--rate", "0.25",
        )
        assert row["rate"] == 0.25
        assert row["seed"] == 5

    def test_env_overrides_reach_pipeline(self, capsys, cube_file, monkeypatch):
        monkeypatch.setenv("HYPERCOLOR_RATE", "0.5")
        monkeypatch.setenv("HYPERCOLOR_SEED", "9")
        row = run_json(capsys, "pipeline", str(cube_file))
        assert row["rate"] == 0.5
        assert row["seed"] == 9

    def test_dim_flag(self, capsys, cube_file):
        row = run_json(capsys, "pipeline", str(cube_file), "--rate", "0.25",
                       "--dim", "2")
        assert row["dim"] == 2

    def test_auto_dim_model_prediction_is_capped_at_the_bands(
        self, capsys, deep_cube_file, wide_model_file
    ):
        row = run_json(capsys, "pipeline", str(deep_cube_file), "--rate", "0.25",
                       "--dim", "auto", "--model", str(wide_model_file))
        assert row["dim"] == 6

    def test_reports_byte_identical_across_worker_counts(
        self, tmp_path, capsys, cube_file
    ):
        reports = []
        for name, workers in (("a.json", "1"), ("b.json", "4")):
            path = tmp_path / name
            run_json(
                capsys,
                "pipeline", str(cube_file), "--rate", "0.25",
                "--workers", workers, "--out-report", str(path),
            )
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_env_rank_above_bands_is_usage_error(self, capsys, cube_file, monkeypatch):
        monkeypatch.setenv("HYPERCOLOR_RANK", "99")
        assert_error(capsys, 2, "pipeline", str(cube_file))

    def test_scores_that_would_overflow_are_runtime_errors(
        self, capsys, cube_file, monkeypatch
    ):
        # the squared difference of these finite cubes overflows
        monkeypatch.setenv("HYPERCOLOR_RESCALE_ALPHA", "1e308")
        assert main(["pipeline", str(cube_file)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, cube_file):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"bogus_knob": 1}))
        code, _ = run_cli(
            capsys, "pipeline", str(cube_file), "--config", str(config_path)
        )
        assert code == 2


class TestSweepCommands:
    def test_sweep_dim(self, tmp_path, capsys, cube_file):
        out = tmp_path / "dims.json"
        csv_path = tmp_path / "dims.csv"
        payload = run_json(
            capsys,
            "sweep-dim", str(cube_file), "--dims", "2,3",
            "--budgets", "0.5,1.0", "--rate", "0.25",
            "--out", str(out), "--csv", str(csv_path),
        )
        assert payload["kind"] == "dims"
        assert len(payload["rows"]) == 4
        assert json.loads(out.read_text()) == payload
        assert all(row["metrics"]["wall_ms"] == 0.0 for row in payload["rows"])
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("time_budget,dim,best,")
        assert len(lines) == 5

    def test_sweep_dim_include_timing_times_each_dimension(self, capsys, cube_file):
        payload = run_json(
            capsys,
            "sweep-dim", str(cube_file), "--dims", "2,3", "--rate", "0.25",
            "--workers", "2", "--include-timing",
        )
        assert all(row["metrics"]["wall_ms"] > 0.0 for row in payload["rows"])

    def test_sweep_budget_and_histogram_export(self, tmp_path, capsys, cube_file):
        report = tmp_path / "sweep.json"
        direct_csv = tmp_path / "direct.csv"
        run_json(
            capsys,
            "sweep-budget", str(cube_file), "--ratios", "0.1,0.3",
            "--out", str(report), "--csv", str(direct_csv),
        )
        summary_csv = tmp_path / "from_json.csv"
        payload = run_json(
            capsys,
            "export-plotdata", str(report), "--out", str(summary_csv),
        )
        assert payload["rows"] == 2
        # the exported CSV must match what the sweep wrote directly
        assert summary_csv.read_bytes() == direct_csv.read_bytes()
        hist_csv = tmp_path / "hist.csv"
        run_json(
            capsys,
            "export-plotdata", str(report), "--kind", "histogram",
            "--out", str(hist_csv),
        )
        lines = hist_csv.read_text().splitlines()
        assert len(lines) == 1 + 2 * 50

    def test_compare_sampling(self, tmp_path, capsys, cube_file):
        payload = run_json(
            capsys,
            "compare-sampling", str(cube_file),
            "--patterns", "random,uniform-whisk", "--rate", "0.25",
        )
        assert [row["pattern"] for row in payload["rows"]] == [
            "random",
            "uniform-whisk",
        ]

    def test_train_dim_model(self, tmp_path, capsys, cube_file):
        second = tmp_path / "scene2.hsc"
        formats.write_cube(random_cube(16, 16, 4, rank=2, seed=22), second)
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "training.json"
        payload = run_json(
            capsys,
            "train-dim-model", str(cube_file), str(second),
            "--budgets", "0.5,1.0,2.0", "--rate", "0.25",
            "--out", str(model_path), "--report", str(report_path),
        )
        assert len(payload["rows"]) == 6
        assert payload["model"] == str(model_path)
        from hypercolor import read_model

        model = read_model(model_path)
        assert model.clamp_min == 2
        assert json.loads(report_path.read_text())["kind"] == "training"

    def test_export_plotdata_rejects_non_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"hello": 1}))
        code, _ = run_cli(
            capsys, "export-plotdata", str(bad), "--out", str(tmp_path / "x.csv")
        )
        assert code == 3
        bad.write_text("not json")
        code, _ = run_cli(
            capsys, "export-plotdata", str(bad), "--out", str(tmp_path / "x.csv")
        )
        assert code == 3

    @pytest.mark.parametrize("dims", ["2,99", "0,2", "2,5"])
    def test_sweep_dim_outside_the_bands_is_usage_error(self, capsys, cube_file, dims):
        # the scene has 4 bands
        assert_error(capsys, 2, "sweep-dim", str(cube_file), "--dims", dims)

    def test_sweep_dim_above_the_config_rank_is_usage_error(
        self, tmp_path, capsys, cube_file
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rank": 2}))
        assert_error(capsys, 2, "sweep-dim", str(cube_file), "--dims", "2,3",
                     "--config", str(config))

    def test_duplicate_dims_are_usage_errors(self, tmp_path, capsys, cube_file):
        assert_error(capsys, 2, "sweep-dim", str(cube_file), "--dims", "2,2")
        assert_error(capsys, 2, "train-dim-model", str(cube_file),
                     "--budgets", "0.5,1.0", "--dims", "3,2,3",
                     "--out", str(tmp_path / "model.json"))
        assert not (tmp_path / "model.json").exists()

    def test_train_dims_outside_the_bands_is_usage_error(
        self, tmp_path, capsys, cube_file
    ):
        assert_error(capsys, 2, "train-dim-model", str(cube_file),
                     "--budgets", "0.5,1.0", "--dims", "2,99",
                     "--out", str(tmp_path / "model.json"))
        assert not (tmp_path / "model.json").exists()


class TestSettingsAreCheckedBeforeSimulation:
    @pytest.mark.parametrize(
        "env, argv",
        [
            ({"HYPERCOLOR_RESCALE_ALPHA": "-1"}, ["pipeline", "{cube}"]),
            ({}, ["pipeline", "{cube}", "--dim", "9"]),
            ({"HYPERCOLOR_RANK": "9"}, ["compare-sampling", "{cube}"]),
            ({"HYPERCOLOR_RANK": "2"},
             ["sweep-budget", "{cube}", "--ratios", "0.1", "--dim", "auto"]),
            ({}, ["sweep-dim", "{cube}", "--dims", "2,9"]),
            ({"HYPERCOLOR_RESCALE_ALPHA": "0"}, ["sweep-dim", "{cube}", "--dims", "2"]),
            ({}, ["train-dim-model", "{cube}", "--budgets", "0.5", "--dims", "2,2",
                  "--out", "{out}"]),
        ],
    )
    def test_a_setting_that_does_not_fit_exits_2(
        self, tmp_path, capsys, cube_file, monkeypatch, env, argv
    ):
        def refuse(*_args, **_kwargs):
            raise AssertionError("simulated before the settings were checked")

        monkeypatch.setattr(harness, "_acquire", refuse)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        paths = {"cube": cube_file, "out": tmp_path / "out"}
        assert_error(capsys, 2, *[arg.format(**paths) for arg in argv])


class TestEnvScoping:
    def test_stage_commands_ignore_settings_they_do_not_take(
        self, tmp_path, capsys, cube_file, monkeypatch
    ):
        monkeypatch.setenv("HYPERCOLOR_TOL", "0")
        payload = run_json(capsys, "sample", "--shape", "8x8",
                           "--out", str(tmp_path / "m.pbm"))
        assert payload["shape"] == [8, 8]
        run_json(capsys, "basis", "learn", str(cube_file),
                 "--out", str(tmp_path / "basis.hsb"))

    def test_colorize_reads_its_solver_settings(
        self, tmp_path, capsys, guide_file, clue_file, monkeypatch
    ):
        monkeypatch.setenv("HYPERCOLOR_TOL", "0")
        assert_error(capsys, 2, "colorize", "--guide", str(guide_file),
                     "--clues", str(clue_file), "--out", str(tmp_path / "r.hsc"))

    def test_colorize_reads_edge_filter(
        self, tmp_path, capsys, guide_file, clue_file, monkeypatch
    ):
        monkeypatch.setenv("HYPERCOLOR_EDGE_FILTER", "maybe")
        assert_error(capsys, 2, "colorize", "--guide", str(guide_file),
                     "--clues", str(clue_file), "--out", str(tmp_path / "r.hsc"))


class TestMalformedInput:
    @pytest.mark.parametrize("sidecar", ["not json", '{"gain": 2.0}'])
    def test_bad_guide_sidecar(self, tmp_path, capsys, guide_file, sidecar):
        (tmp_path / "guide.pgm.json").write_text(sidecar)
        assert_error(capsys, 3, "sample", "--guide", str(guide_file),
                     "--pattern", "guided-push", "--out", str(tmp_path / "m.pbm"))

    @pytest.mark.parametrize("model", ["not json", "non-numeric"])
    def test_bad_model_file(self, tmp_path, capsys, cube_file, clue_file, model):
        basis = tmp_path / "basis.hsb"
        run_json(capsys, "basis", "learn", str(cube_file), "--out", str(basis))
        path = tmp_path / "model.json"
        if model == "not json":
            path.write_text("not json")
        else:
            fields = ("intercept", "elbow", "log_min_variance", "elbow_sq",
                      "log_min_variance_sq", "elbow_x_log_min_variance")
            payload = {name: 0.5 for name in fields}
            payload.update(elbow="abc", clamp_min=2, clamp_max=4)
            path.write_text(json.dumps(payload))
        assert_error(capsys, 3, "estimate-dim", "--clues", str(clue_file),
                     "--basis", str(basis), "--model", str(path))

    def test_pickled_npy(self, tmp_path, capsys):
        src = tmp_path / "stack.npy"
        np.save(src, np.array([{"bands": 3}], dtype=object), allow_pickle=True)
        assert_error(capsys, 3, "convert", str(src), str(tmp_path / "out.hsc"),
                     "--wavelengths", "400:600")

    def test_string_npy(self, tmp_path, capsys):
        src = tmp_path / "stack.npy"
        np.save(src, np.array([[["a", "b", "c"]]]))
        assert_error(capsys, 3, "convert", str(src), str(tmp_path / "out.hsc"),
                     "--wavelengths", "400:600")
        assert not (tmp_path / "out.hsc").exists()

    def test_non_numeric_wavelength(self, tmp_path, capsys):
        src = tmp_path / "stack.npy"
        np.save(src, np.full((2, 2, 3), 0.5))
        assert_error(capsys, 2, "convert", str(src), str(tmp_path / "out.hsc"),
                     "--wavelengths", "400,abc,600")

    # json.load raises a ValueError that is not a JSONDecodeError on bytes
    # that are not UTF-8 and on an integer of more than 4300 digits
    @pytest.mark.parametrize(
        "content",
        [np.random.default_rng(0).bytes(200), b'{"rows": 1' + b"0" * 5000 + b"}"],
    )
    def test_report_that_json_cannot_decode(self, tmp_path, capsys, content):
        report = tmp_path / "bin.json"
        report.write_bytes(content)
        assert_error(capsys, 3, "export-plotdata", str(report),
                     "--out", str(tmp_path / "o.csv"))
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "content",
        [
            # a UTF-16 file opens with the byte-order mark FF FE
            b"\xff\xfe" + json.dumps({"rate": 0.1}).encode("utf-16-le"),
            b'{"seed": 1' + b"0" * 5000 + b"}",
        ],
    )
    def test_config_that_json_cannot_decode(self, tmp_path, capsys, cube_file, content):
        config = tmp_path / "cfg.json"
        config.write_bytes(content)
        assert_error(capsys, 2, "pipeline", str(cube_file), "--config", str(config))

    # a bad config exits 2; a bad report or model file exits 3
    @pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{}", b"[1, 2]"])
    @pytest.mark.parametrize("kind, code", [("config", 2), ("report", 3), ("model", 3)])
    def test_json_file_that_is_no_object_names_the_file(
        self, tmp_path, capsys, cube_file, kind, code, content
    ):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(content)
        argv = {
            "config": ["pipeline", str(cube_file), "--config", str(path)],
            "report": ["export-plotdata", str(path), "--out", str(tmp_path / "o.csv")],
            "model": ["pipeline", str(cube_file), "--model", str(path)],
        }[kind]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize(
        "rows", [[{"image": "scene"}], "not a list", [[1, 2]], [{"pattern": "x"}, 3]]
    )
    def test_report_rows_without_columns(self, tmp_path, capsys, rows):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"kind": "sweep", "rows": rows}))
        assert_error(capsys, 3, "export-plotdata", str(report),
                     "--out", str(tmp_path / "x.csv"))


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample"])
        assert excinfo.value.code == 2

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_export_offers_the_kinds_export_plotdata_writes(self, tmp_path, capsys):
        (commands,) = [action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        export = commands.choices["export-plotdata"]
        (kind,) = [action for action in export._actions if action.dest == "kind"]
        assert kind.choices == harness._PLOT_KINDS == ("summary", "histogram", "dims")
        with pytest.raises(SystemExit) as excinfo:
            main(["export-plotdata", str(tmp_path / "r.json"), "--kind", "curve",
                  "--out", str(tmp_path / "out.csv")])
        assert excinfo.value.code == 2
