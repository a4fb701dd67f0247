"""Smoke test of the benchmark: every workload once on a 32x32 scene.

    python3 -m pytest perfbench/test_smoke.py -q

Runs the untraced and the traced mode of each workload, one injected
output failure that must be counted, and the refusal to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run

run.load_program()

from hypercolor import HyperCube  # noqa: E402
from scenes import make_scene  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = 32
SEED = 3
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return sorted(metric["name"] for metric in BENCHMARK[kind])


def test_scene_is_seeded_nonnegative_and_normalized():
    first, again, other = make_scene(SEED, TINY), make_scene(SEED, TINY), make_scene(SEED + 1, TINY)
    assert first.data.shape == (TINY, TINY, 31)
    assert np.array_equal(first.data, again.data)
    assert not np.array_equal(first.data, other.data)
    assert first.data.min() >= 0.0 and first.data.max() == 1.0
    assert first.wavelengths[0] == 420.0 and first.wavelengths[-1] == 720.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result, lines = run.measure(name, SEED, 0, trace=False, size=TINY, probes=1,
                                out_dir=tmp_path)
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, run.MIN_OPS)
    assert sorted(result["metrics"]) == _names("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert any(line.startswith("failed_ratio 0.0 ") for line in lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reproduces_untraced_results(name, tmp_path):
    result, _lines = run.measure(name, SEED, 0, trace=True, size=TINY, out_dir=tmp_path)
    assert result["correct"], result
    assert sorted(result["metrics"]) == _names("per_layer")
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert metrics["sampling.clue_count"] > 0
    assert metrics["metrics.evaluate_calls"] == WORKLOADS[name].tasks
    record = json.loads((tmp_path / f"trace-{name}-seed{SEED}.json").read_text())
    assert set(record["spans"][0]) == {"id", "name", "start", "end", "parent", "op"}


def test_failing_check_is_counted(tmp_path):
    workload = WORKLOADS["recon-256"]
    calls = []

    def operate(cube, config):
        result = workload.operate(cube, config)
        calls.append(result)
        if len(calls) == 2:
            shifted = HyperCube(result.recon.data - 1.0, result.recon.wavelengths)
            result = replace(result, recon=shifted)
        return result

    result, lines = run.measure("recon-256", SEED, 0, trace=False, size=TINY, probes=1,
                                out_dir=tmp_path, operate=operate)
    assert (result["correct"], result["failed"], result["attempted"]) == (False, 1, run.MIN_OPS)
    assert any(line.startswith(f"failed_ratio {1 / run.MIN_OPS!r} ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recon-256", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
