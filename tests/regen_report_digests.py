"""The end-to-end runs whose default reports ``report_digests.json`` pins.

Each run writes its reports with ``write_json`` or through ``cli.main`` on
a fixed 64x64x31 scene. The data file records, per report, the sha256 of
its bytes and every number in it, with the numpy, scipy and OpenBLAS
versions they were made under; ``test_report_digests.py`` recomputes the
runs and compares. A report is keyed by its run's name plus the suffix
the run gives it: none for a run's one report, the file's own for a CLI
command that writes several. A ``.csv`` report's numbers are its cells.

Regenerate the file only when a change is meant to move report bytes:

    PYTHONPATH=src python tests/regen_report_digests.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from hypercolor import (
    ExperimentConfig,
    HyperCube,
    compare_sampling,
    grid_search_dimension,
    run_pipeline,
    time_budget_sweep,
    write_json,
)
from hypercolor import cli, formats

DATA_FILE = Path(__file__).with_name("report_digests.json")

SIZE = 64
WAVELENGTHS = np.linspace(420.0, 720.0, 31)


def scene(size: int = SIZE) -> HyperCube:
    """A piecewise-smooth scene built from closed forms, with no random draw.

    Four regions split by a wavy and a straight boundary, a disk that mixes
    two of their materials along a ramp, all under smooth shading.
    """
    wl = WAVELENGTHS
    spectra = np.stack([
        0.15 + np.exp(-0.5 * ((wl - center) / width) ** 2)
        for center, width in ((460.0, 40.0), (540.0, 55.0), (610.0, 35.0),
                              (680.0, 60.0))
    ])
    y, x = np.mgrid[0:size, 0:size] / size
    label = (x > 0.45 + 0.1 * np.sin(6.0 * y)).astype(int) + 2 * (y > 0.55)
    data = spectra[label]
    disk = (x - 0.3) ** 2 + (y - 0.3) ** 2 < 0.03
    ramp = np.clip((x - 0.1) / 0.4, 0.0, 1.0)[:, :, None]
    mixed = (1.0 - ramp) * spectra[0] + ramp * spectra[3]
    data[disk] = mixed[disk]
    shading = 0.7 + 0.3 * np.cos(2.0 * np.pi * (1.3 * x + 0.7 * y))
    data = data * shading[:, :, None]
    return HyperCube(data / data.max(), WAVELENGTHS.copy())


def _written(result) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        write_json(result, path)
        return {"": path.read_bytes()}


def _cli(cube, argv, outputs) -> dict[str, bytes]:
    """Suffix -> bytes of the files ``outputs`` (suffix -> file name) that
    ``cli.main(argv)`` writes; ``{cube}`` and ``{out}`` in ``argv`` stand
    for the scene's file and the output folder."""
    with tempfile.TemporaryDirectory() as tmp:
        cube_path = Path(tmp) / "scene.hsc"
        formats.write_cube(cube, cube_path)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([arg.format(cube=cube_path, out=tmp) for arg in argv])
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")
        return {suffix: (Path(tmp) / name).read_bytes()
                for suffix, name in outputs.items()}


SWEEP_OUTPUTS = {".json": "report.json", ".csv": "plot.csv"}
SWEEP_FLAGS = ["--out", "{out}/report.json", "--csv", "{out}/plot.csv"]


def _half(cube) -> HyperCube:
    """Every other row and column of ``cube``: a smaller scene of its bands."""
    return HyperCube(cube.data[::2, ::2], cube.wavelengths)


# name -> suffix -> the default report bytes of one run on the scene
RUNS = {
    "run_pipeline_seed0": lambda cube: _written(
        run_pipeline(cube, ExperimentConfig(seed=0))),
    "run_pipeline_seed3": lambda cube: _written(
        run_pipeline(cube, ExperimentConfig(seed=3))),
    "run_pipeline_auto_iterative": lambda cube: _written(
        run_pipeline(cube, ExperimentConfig(seed=1, dim="auto", solver="iterative"))),
    "compare_sampling_workers1": lambda cube: _written(
        compare_sampling(cube, ExperimentConfig(workers=1))),
    "compare_sampling_workers2": lambda cube: _written(
        compare_sampling(cube, ExperimentConfig(workers=2))),
    "grid_search_dims_2_31": lambda cube: _written(
        grid_search_dimension(cube, ExperimentConfig(), range(2, 32))),
    "time_budget_sweep": lambda cube: _written(
        time_budget_sweep(cube, ExperimentConfig(), (0.01, 0.04, 0.1))),
    "cli_pipeline": lambda cube: _cli(
        cube, ["pipeline", "{cube}", "--seed", "2", "--out-report", "{out}/report.json"],
        {"": "report.json"}),
    "cli_sweep_dim": lambda cube: _cli(
        cube, ["sweep-dim", "{cube}", "--dims", "4,8", "--budget", "0.5", "--seed", "1",
               "--workers", "2", *SWEEP_FLAGS], SWEEP_OUTPUTS),
    "cli_sweep_budget": lambda cube: _cli(
        cube, ["sweep-budget", "{cube}", "--ratios", "0.02,0.06", "--dim", "6",
               "--seed", "1", *SWEEP_FLAGS], SWEEP_OUTPUTS),
    "cli_compare_sampling": lambda cube: _cli(
        cube, ["compare-sampling", "{cube}", "--patterns", "random,guided-whisk",
               "--rate", "0.03", "--budget", "2", *SWEEP_FLAGS], SWEEP_OUTPUTS),
    "cli_train_dim_model": lambda cube: _cli(
        _half(cube), ["train-dim-model", "{cube}", "--budgets", "0.25,0.5,1,2,4,8",
                      "--dims", "2,4,8", "--seed", "1", "--out", "{out}/model.json",
                      "--report", "{out}/training.json"],
        {".model.json": "model.json", ".report.json": "training.json"}),
}


def reports(cube):
    """(key, bytes) of every report of every run on ``cube``, in run order."""
    for name, run in RUNS.items():
        for suffix, report in run(cube).items():
            yield name + suffix, report


def _cell(text: str):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def parse(key: str, report: bytes):
    """A report's payload: a ``.csv`` report's rows as column -> cell dicts,
    any other parsed as JSON."""
    text = report.decode("utf-8")
    if key.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        return [{column: _cell(cell) for column, cell in zip(rows[0], row)}
                for row in rows[1:]]
    return json.loads(text)


def numbers(payload, path="") -> dict:
    """Every number in a parsed report, keyed by its path."""
    if isinstance(payload, dict):
        items = sorted(payload.items())
    elif isinstance(payload, list):
        items = enumerate(payload)
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return {path: payload}
    else:
        return {}
    out = {}
    for key, value in items:
        out.update(numbers(value, f"{path}/{key}"))
    return out


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


def _openblas(config) -> str:
    blas = getattr(config, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def versions() -> dict:
    """The library versions that can move the last bits of a report."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _openblas(np.__config__),
        "scipy_blas": _openblas(scipy.__config__),
    }


def main() -> int:
    cube = scene()
    runs = {
        key: {"sha256": digest(report), "numbers": numbers(parse(key, report))}
        for key, report in reports(cube)
    }
    payload = {"versions": versions(), "runs": runs}
    DATA_FILE.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                         encoding="utf-8")
    print(f"wrote {DATA_FILE} ({len(runs)} reports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
