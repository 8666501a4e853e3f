"""Static-analysis throughput benchmark: full-repo ``repro lint`` wall time.

The invariant linter (:mod:`repro.analysis`) runs in the CI lint job on
every push, so its cost is paid on every change — it must stay an
eyeblink, not a coffee break.  This benchmark times a full cold pass over
``src/repro`` (every rule, **including RPA002's interprocedural
return-alias fixpoint**, no baseline) and asserts the **5 second
floor**; it also reports per-file throughput so a rule that goes
accidentally quadratic shows up as a number, not as CI drag.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_analysis.py            # report
    PYTHONPATH=src python benchmarks/bench_analysis.py --smoke    # CI gate

or as part of the benchmark suite (``pytest benchmarks/bench_analysis.py``).
Both entry points write ``BENCH_analysis.json`` at the repo root in the
common machine-readable schema (see :mod:`bench_json`).

``REPRO_BENCH_LINT_MAX_SECONDS``
    The wall-clock floor for the full pass (default 5.0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401  (already importable: installed or pythonpath)
except ImportError:  # standalone `python benchmarks/bench_analysis.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_json import write_bench_json
from repro.analysis import RULES, lint_paths
from repro.analysis.engine import _iter_py_files

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "results"
TREE = REPO_ROOT / "src" / "repro"


def run_benchmark(max_seconds: float = 5.0) -> dict:
    """Time one full cold lint pass over ``src/repro``."""
    files = list(_iter_py_files([TREE]))
    n_lines = sum(len(p.read_text().splitlines()) for p in files)

    start = time.perf_counter()
    findings = lint_paths([TREE])
    wall = time.perf_counter() - start

    write_bench_json(
        "analysis",
        n_nodes=len(files),
        wall_s=wall,
        # vs the floor: how much headroom the pass has before it drags CI.
        speedup=max_seconds / wall if wall else float("inf"),
        rules=len(RULES),
        source_lines=n_lines,
        findings=len(findings),
    )
    return {
        "benchmark": "bench_analysis",
        "rules": len(RULES),
        "files": len(files),
        "source_lines": n_lines,
        "findings": len(findings),
        "wall_seconds": round(wall, 4),
        "files_per_second": round(len(files) / wall, 1) if wall else None,
        "lines_per_second": round(n_lines / wall, 1) if wall else None,
        "floor_seconds": max_seconds,
        "under_floor": wall < max_seconds,
    }


def _floor() -> float:
    return float(os.environ.get("REPRO_BENCH_LINT_MAX_SECONDS", "5.0"))


def test_full_repo_lint_under_floor(report):
    """Acceptance: a full cold lint of src/repro finishes under 5 seconds."""
    payload = run_benchmark(max_seconds=_floor())
    report("bench_analysis", json.dumps(payload, indent=2))
    assert payload["findings"] == 0, "merged tree must lint clean"
    assert payload["under_floor"], (
        f"full-repo lint took {payload['wall_seconds']}s "
        f"(floor {payload['floor_seconds']}s)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="assert the 5s floor and a clean tree, write results/*.txt",
    )
    args = parser.parse_args()
    payload = run_benchmark(max_seconds=_floor())
    text = json.dumps(payload, indent=2)
    print(text)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "bench_analysis.txt").write_text(text + "\n")
    if args.smoke:
        if payload["findings"]:
            print(
                f"FAIL: {payload['findings']} lint finding(s) on the tree",
                file=sys.stderr,
            )
            return 1
        if not payload["under_floor"]:
            print(
                f"FAIL: lint took {payload['wall_seconds']}s, floor is "
                f"{payload['floor_seconds']}s",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
