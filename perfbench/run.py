"""hypercolor benchmark: one seeded workload in a closed loop, outputs checked.

    python3 perfbench/run.py --workload recon-256 --seed 0 --seconds 20 --trace 0

Run from a source checkout; the program is imported from ``src/``. One
client runs operations back to back (each starts when the previous one
returns) in a single process, BLAS pinned to one thread. The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends half the time on untraced operations and half on the
same operation rebuilt from public stage functions with a span around each
module call, checks that both give bit-identical results, and reports the
per-layer metrics; spans and counts go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
REFERENCE_FILE = Path(__file__).with_name("reference.json")

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# set-up is repeated in this many fresh processes and the median reported
SETUP_PROBES = 5
# the warm-up operation runs on a scene this small, enough to finish lazy
# imports and first allocations for a few tenths of a second
WARMUP_SIZE = 32
# fewest timed operations in an untraced run, whatever --seconds says
MIN_OPS = 3

END_TO_END = (
    ("op_s_p50", "s"),
    ("throughput_mpix_s", "Mpx/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("psnr_db", "dB"),
    ("emd", "1"),
)

# per-layer time metrics: metric name -> span name (self time, summed per op)
LAYER_TIMES = {
    f"{span}_s": span
    for span in (
        "colorizer.solve", "colorizer.edge_filter", "colorizer.build_system",
        "colorizer.luminance_rescale",
        "metrics.psnr", "metrics.ssim", "metrics.gfc", "metrics.ssv", "metrics.emd",
        "subspace.learn_basis", "subspace.variance_curve", "subspace.project",
        "subspace.unproject",
        "noisesim.simulate_guide", "noisesim.simulate_clues", "sampling.build_mask",
    )
}
LAYER_COUNTS = {
    "colorizer.solve_iterations": "count",
    "colorizer.matrix_nnz": "count",
    "colorizer.solve_flops_computed": "flop",
    "colorizer.solve_bytes_computed": "B",
    "colorizer.degenerate_pixels": "count",
    "metrics.evaluate_calls": "count",
    "noisesim.draws": "count",
    "sampling.clue_count": "count",
}
LAYER_RATIOS = (
    "colorizer.solve_share", "metrics.share",
    "harness.pool_speedup", "harness.pool_efficiency", "harness.task_imbalance",
    "trace.overhead_ratio",
)


def load_program():
    """Import ``hypercolor`` from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "hypercolor"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hypercolor sources under {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import hypercolor

    if Path(hypercolor.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported hypercolor from {hypercolor.__file__}")
    return hypercolor


def environment(workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    # glibc sysconf numbers of the L1d, L2 and L3 cache sizes
    for level, number in (("l1d", 188), ("l2", 191), ("l3", 194)):
        try:
            caches[level] = os.sysconf(number)
        except (ValueError, OSError):
            caches[level] = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workers": workload.workers,
    }


def prepare(workload, seed, size):
    """Set-up before the first timed operation: scene, config, warm-up."""
    from scenes import make_scene

    cube = make_scene(seed, size)
    config = workload.config(seed)
    workload.operate(make_scene(seed, WARMUP_SIZE), config)
    return cube, config


def probe_setup(workload, seed, size, probes) -> list[float]:
    """Wall time of the whole set-up, interpreter start included, per fresh process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload.name, "--seed", str(seed), "--size", str(size)]
    walls = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return walls


class Ledger:
    """Counts operations, runs every output check, keeps the first output."""

    def __init__(self, workload, config, size, out_dir):
        from hypercolor import write_json
        from workloads import check_outputs

        self.workload = workload
        self.config = config
        self.check_outputs = check_outputs
        self.write_json = write_json
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.first_bytes = None
        self.last = None
        self.scratch = out_dir / f"op-{workload.name}-{os.getpid()}.json"
        self.reference = None
        reference = json.loads(REFERENCE_FILE.read_text())
        if config.seed == reference["seed"] and size == workload.size:
            self.reference = reference

    def operation(self, call, extra_checks=()):
        """Run one timed operation; returns its time, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self._fail([f"raised {type(exc).__name__}: {exc}"])
            return None
        elapsed = time.perf_counter() - start

        problems = self.check_outputs(self.workload, result, self.config)
        problems += self._reference_problems(result)
        self.write_json(result, self.scratch)
        serialized = self.scratch.read_bytes()
        if self.first is None:
            self.first, self.first_bytes = result, serialized
        elif serialized != self.first_bytes:
            problems.append("write_json output differs from the first operation's")
        for check in extra_checks:
            problems += check(result)
        if problems:
            self._fail(problems)
            return None
        self.last = result
        return elapsed

    def _reference_problems(self, result) -> list[str]:
        if self.reference is None:
            return []
        expected = self.reference["workloads"][self.workload.name]
        psnr_db, emd = self.workload.quality(result)
        problems = []
        if abs(psnr_db - expected["psnr_db"]) > self.reference["psnr_tolerance_db"]:
            problems.append(f"psnr_db {psnr_db} differs from reference {expected['psnr_db']}")
        if abs(emd - expected["emd"]) > self.reference["emd_rtol"] * expected["emd"]:
            problems.append(f"emd {emd} differs from reference {expected['emd']}")
        return problems

    def _fail(self, problems):
        self.failed += 1
        for problem in problems:
            print(f"# check failed (operation {self.attempted}): {problem}", file=sys.stderr)

    def close(self):
        self.scratch.unlink(missing_ok=True)


def closed_loop(ledger, call, seconds, min_ops, extra_checks=()) -> list[float]:
    """Operations back to back until the next one would end after ``seconds``."""
    times = []
    start = time.perf_counter()
    done = 0
    while True:
        elapsed_op = ledger.operation(call, extra_checks)
        done += 1
        if elapsed_op is not None:
            times.append(elapsed_op)
        elapsed = time.perf_counter() - start
        if done >= min_ops and elapsed * (done + 1) / done > seconds:
            return times


def identical_recons(workload, baseline):
    """Check that a traced result's reconstructions equal the untraced ones."""
    def check(result):
        pairs = zip(workload.pipelines(result), workload.pipelines(baseline))
        if all(a.recon.data.tobytes() == b.recon.data.tobytes() for a, b in pairs):
            return []
        return ["traced reconstruction differs from the untraced one"]

    return check


def layer_metrics(tracer, untraced_p50, serial, workers) -> dict:
    """Per-operation medians of the per-layer metrics from the traced run."""
    from tracer import covered, self_times

    selfs = self_times(tracer.spans)
    per_op = defaultdict(lambda: defaultdict(float))
    ops = defaultdict(list)
    for span in tracer.spans:
        per_op[span["op"]][span["name"]] += selfs[span["id"]]
        ops[span["op"]].append(span)

    rows = []
    for op, spans in sorted(ops.items()):
        root = next(s for s in spans if s["name"] == "harness.operation")
        wall = root["end"] - root["start"]
        work = sum(per_op[op].values())
        layer_union = covered(
            (s["start"], s["end"]) for s in spans if not s["name"].startswith("harness.")
        )
        row = {metric: per_op[op][span] for metric, span in LAYER_TIMES.items()}
        row["harness.self_s"] = wall - layer_union
        row["colorizer.solve_share"] = per_op[op]["colorizer.solve"] / work
        row["metrics.share"] = sum(
            t for name, t in per_op[op].items() if name.startswith("metrics.")
        ) / work
        row["trace.overhead_ratio"] = wall / untraced_p50
        rows.append(row)
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    # counts repeat exactly from one traced operation to the next
    values.update({name: tracer.counts[1][name] for name in LAYER_COUNTS})

    # a single task runs inline: no pool, so no speed-up and no imbalance
    speedup, imbalance = 1.0, 1.0
    if serial is not None:
        tasks = [result.wall_ms / 1e3 for result in serial.results]
        speedup = math.fsum(tasks) / untraced_p50
        imbalance = max(tasks) / statistics.fmean(tasks)
    values["harness.pool_speedup"] = speedup
    values["harness.pool_efficiency"] = speedup / workers
    values["harness.task_imbalance"] = imbalance

    units = {metric: "s" for metric in LAYER_TIMES}
    units["harness.self_s"] = "s"
    units.update(LAYER_COUNTS)
    units.update({name: "1" for name in LAYER_RATIOS})
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def measure(name, seed, seconds, trace, size=None, probes=SETUP_PROBES,
            out_dir=OUT_DIR, operate=None):
    """Run one workload; returns (result line dict, human-readable lines).

    ``operate`` replaces the workload's untraced call (the smoke test uses
    it to inject a failing output).
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    size = size or workload.size
    out_dir.mkdir(exist_ok=True)
    cube, config = prepare(workload, seed, size)
    setup_in_process = time.perf_counter() - _START
    operate = operate or workload.operate
    ledger = Ledger(workload, config, size, out_dir)
    lines = [
        f"# env {json.dumps(environment(workload), sort_keys=True)}",
        f"# scene {workload.name} seed={seed} shape={list(cube.data.shape)} "
        f"min={cube.data.min():.6g} max={cube.data.max():.6g} mean={cube.data.mean():.6g}",
    ]
    try:
        if trace:
            metrics, counts = _traced_run(workload, cube, config, seconds, ledger, operate,
                                          out_dir)
            lines.append(f"# {counts[0]} untraced and {counts[1]} traced operations")
        else:
            times = closed_loop(ledger, lambda: operate(cube, config), seconds, MIN_OPS)
            metrics = _end_to_end(workload, size, seed, probes, times, ledger)
            lines.append(f"# {len(times)} timed operations (s): "
                         + " ".join(f"{t:.3f}" for t in times))
            lines.append(f"# in-process set-up {setup_in_process:.3f} s")
    finally:
        ledger.close()
    for metric, entry in metrics.items():
        lines.append(f"{metric} {entry['value']!r} {entry['unit']}")
    lines.append(f"failed_ratio {ledger.failed / ledger.attempted!r} 1 "
                 f"({ledger.failed} of {ledger.attempted} operations)")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return result, lines


def _end_to_end(workload, size, seed, probes, times, ledger) -> dict:
    if not times:
        raise SystemExit("perfbench: no operation completed its checks")
    psnr_db, emd = workload.quality(ledger.last)
    values = {
        "op_s_p50": statistics.median(times),
        "throughput_mpix_s": workload.pixels_per_op(size) * len(times) / math.fsum(times) / 1e6,
        "setup_s": statistics.median(probe_setup(workload, seed, size, probes)),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "psnr_db": psnr_db,
        "emd": emd,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _traced_run(workload, cube, config, seconds, ledger, operate, out_dir) -> dict:
    from tracer import Tracer

    untraced = closed_loop(ledger, lambda: operate(cube, config), seconds / 2, 1)
    if not untraced:
        raise SystemExit("perfbench: no untraced operation completed its checks")
    baseline = ledger.first
    tracer = Tracer()
    ops = itertools.count(1)
    current = {}

    def traced_op():
        current["op"] = next(ops)
        with tracer.span("harness.operation", op=current["op"]):
            return workload.traced(cube, config, tracer)

    def same_counts(_result):
        if tracer.counts[current["op"]] == tracer.counts[1]:
            return []
        return ["layer counts differ from the first traced operation's"]

    traced = closed_loop(ledger, traced_op, seconds / 2, 1,
                         extra_checks=[identical_recons(workload, baseline), same_counts])

    serial = None
    if workload.workers > 1:
        # same sweep on one worker: its write_json bytes must match the pooled run's
        serial_config = replace(config, workers=1)
        if ledger.operation(lambda: operate(cube, serial_config)) is not None:
            serial = ledger.last
    metrics = layer_metrics(tracer, statistics.median(untraced), serial, workload.workers)
    record = {"workload": workload.name, "seed": config.seed,
              "metrics": metrics, **tracer.record()}
    path = out_dir / f"trace-{workload.name}-seed{config.seed}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return metrics, (len(untraced), len(traced))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="scene side in pixels (default: the workload's)")
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up of a run, then exit (set-up timing)")
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_only:
        prepare(WORKLOADS[args.workload], args.seed, args.size or WORKLOADS[args.workload].size)
        return 0
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                            size=args.size)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
