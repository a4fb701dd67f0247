"""Default reports of end-to-end runs against their recorded digests.

Under the numpy, scipy and OpenBLAS versions the data file was made with,
every report must match its recorded bytes. Another BLAS kernel may move
the last bits, so under other versions every number must match within
1e-9 relative instead. A change meant to move report bytes regenerates
the file with ``regen_report_digests.py``.
"""

from __future__ import annotations

import json
import math

from regen_report_digests import DATA_FILE, RUNS, digest, numbers, scene, versions

REL_TOL = 1e-9
# rounding-level values (a direct solve's residual) carry no relative digits
ABS_TOL = 1e-12


def _moved(recorded: dict, computed: dict) -> list[str]:
    out = [f"{path} missing" for path in sorted(set(recorded) - set(computed))]
    out += [f"{path} added" for path in sorted(set(computed) - set(recorded))]
    for path in sorted(set(recorded) & set(computed)):
        old, new = recorded[path], computed[path]
        if not math.isclose(old, new, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(f"{path}: {old!r} -> {new!r}")
    return out


def test_default_reports_match_recorded_digests():
    recorded = json.loads(DATA_FILE.read_text(encoding="utf-8"))
    exact = versions() == recorded["versions"]
    if not exact:
        print(f"report digests: versions {versions()} differ from the recorded "
              f"{recorded['versions']}; comparing numbers at {REL_TOL:g} relative")
    cube = scene()
    failures = []
    for name, run in RUNS.items():
        report = run(cube)
        entry = recorded["runs"][name]
        moved = _moved(entry["numbers"], numbers(json.loads(report)))
        if moved:
            failures.append(f"{name}: " + "; ".join(moved[:5]))
        elif exact and digest(report) != entry["sha256"]:
            failures.append(f"{name}: bytes differ though every number matches")
    assert sorted(recorded["runs"]) == sorted(RUNS)
    assert not failures, "\n".join(failures)
