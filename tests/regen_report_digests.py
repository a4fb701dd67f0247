"""The end-to-end runs whose default reports ``report_digests.json`` pins.

Each run writes one report with ``write_json`` (or through ``cli.main``)
on a fixed 64x64x31 scene. The data file records, per run, the sha256 of
the report's bytes and every number in it, with the numpy, scipy and
OpenBLAS versions they were made under; ``test_report_digests.py``
recomputes the runs and compares.

Regenerate the file only when a change is meant to move report bytes:

    PYTHONPATH=src python tests/regen_report_digests.py
"""

from __future__ import annotations

import contextlib
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


def _written(result) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        write_json(result, path)
        return path.read_bytes()


def _cli_pipeline(cube) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        cube_path = Path(tmp) / "scene.hsc"
        report = Path(tmp) / "report.json"
        formats.write_cube(cube, cube_path)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["pipeline", str(cube_path), "--seed", "2",
                             "--out-report", str(report)])
        if code != 0:
            raise RuntimeError(f"pipeline exited {code}")
        return report.read_bytes()


# name -> the default report bytes of one run on the scene
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
    "cli_pipeline": _cli_pipeline,
}


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
    runs = {}
    for name, run in RUNS.items():
        report = run(cube)
        runs[name] = {
            "sha256": digest(report),
            "numbers": numbers(json.loads(report)),
        }
    payload = {"versions": versions(), "runs": runs}
    DATA_FILE.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                         encoding="utf-8")
    print(f"wrote {DATA_FILE} ({len(runs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
