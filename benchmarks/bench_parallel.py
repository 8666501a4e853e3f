"""Paper-scale acceptance benchmark: CSR splits and the engine-result cache.

Measured on one exact all-targets evaluation of a >= 10k-node ImageNet-like
DAG (above ``_MATRIX_NODE_LIMIT``, so the sorted CSR reachability closure
is the active kernel):

* **CSR splitter** — the closure kernel versus the baseline kept here, a
  per-target membership scan of the cached descendant frozensets; the
  closure's bytes are reported beside the ``n^2 / 8`` a packed bitset of
  the same relation would take;
* **engine-result cache** — a warm :class:`repro.engine.EngineResultCache`
  must answer in O(load) time with zero plan descents, with arrays equal
  to the cold run's.

The cold run's in-process, level-by-level descent of the plan is the
headline wall time.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_parallel.py           # report
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke   # CI gate

or as part of the benchmark suite (``pytest benchmarks/bench_parallel.py``).
Environment knob:

``REPRO_BENCH_PARALLEL_N``
    Approximate node count of the DAG (default 12000).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import tempfile
import time
from pathlib import Path

try:
    import repro  # noqa: F401  (already importable: installed or pythonpath)
except ImportError:  # standalone `python benchmarks/bench_parallel.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from bench_json import write_bench_json
from bench_neutral import neutral_defaults
from repro.core.distribution import TargetDistribution
from repro.engine import EngineResultCache, make_splitter, simulate_all_targets
from repro.plan import compile_policy
from repro.policies import make_policy
from repro.taxonomy import imagenet_like

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Queries timed per splitter kernel (the frozenset scan is ~ms per call).
_SPLIT_QUERIES = 20


def _split_scan(hierarchy, qix: int, targets: np.ndarray):
    """The splitter baseline: one frozenset membership test per target."""
    desc = hierarchy.descendants_ix(qix)
    mask = np.fromiter(
        (int(z) in desc for z in targets), dtype=bool, count=len(targets)
    )
    return targets[mask], targets[~mask]


def run_benchmark(
    n_target: int = 12_000, policy_name: str = "topdown", seed: int = 1
) -> dict:
    """Time the CSR kernel and the result cache; return a JSON-able dict."""
    # An installed default result cache (REPRO_RESULT_CACHE) would serve
    # the timed evaluations from disk and fabricate the speedups; clear it
    # for the timed region only.
    with neutral_defaults():
        return _timed_benchmark(n_target, policy_name, seed)


def _timed_benchmark(n_target: int, policy_name: str, seed: int) -> dict:
    hierarchy = imagenet_like(n_target, seed=seed)
    distribution = TargetDistribution.equal(hierarchy)

    start = time.perf_counter()
    plan = compile_policy(make_policy(policy_name), hierarchy, distribution)
    compile_seconds = time.perf_counter() - start

    # The compile built the closure (it splits with it too), and the
    # descent reuses it; time a build on a copy without caches.
    uncached = pickle.loads(pickle.dumps(hierarchy))
    start = time.perf_counter()
    indptr, members = uncached.reachability_closure()
    closure_build_seconds = time.perf_counter() - start
    closure_bytes = indptr.nbytes + members.nbytes

    # CSR kernel vs the frozenset scan, full target vector per split.
    targets = np.arange(hierarchy.n, dtype=np.int64)
    queries = np.random.default_rng(seed).integers(
        0, hierarchy.n, size=_SPLIT_QUERIES
    )
    split_csr = make_splitter(hierarchy, hierarchy.n, kind="csr")
    split_parity = True
    for q in queries:  # warm every timed descendant set
        split_parity &= np.array_equal(
            _split_scan(hierarchy, int(q), targets)[0],
            split_csr(int(q), targets)[0],
        )
    start = time.perf_counter()
    for q in queries:
        split_csr(int(q), targets)
    csr_split_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for q in queries:
        _split_scan(hierarchy, int(q), targets)
    scan_split_seconds = time.perf_counter() - start

    # Cold run (descent + store) vs warm result cache (one np.load).
    with tempfile.TemporaryDirectory() as tmp:
        cache = EngineResultCache(tmp)
        start = time.perf_counter()
        cold = simulate_all_targets(plan, result_cache=cache)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = simulate_all_targets(plan, result_cache=cache)
        warm_seconds = time.perf_counter() - start
        cache_ok = (
            cache.hits == 1
            and cache.misses == 1
            and np.array_equal(cold.queries, warm.queries)
            and np.array_equal(cold.prices, warm.prices, equal_nan=True)
            and cold.decision_nodes == warm.decision_nodes
        )

    start = time.perf_counter()
    simulate_all_targets(plan, result_cache=False)
    descent_seconds = time.perf_counter() - start

    return {
        "benchmark": "bench_parallel",
        "policy": plan.policy_name,
        "n": hierarchy.n,
        "m": hierarchy.m,
        "height": hierarchy.height,
        "cpu_count": os.cpu_count(),
        "compile_seconds": round(compile_seconds, 6),
        "closure_build_seconds": round(closure_build_seconds, 6),
        "closure_bytes": closure_bytes,
        "bitset_equivalent_bytes": hierarchy.n * hierarchy.n // 8,
        "descent_seconds": round(descent_seconds, 6),
        "split_us_csr": round(1e6 * csr_split_seconds / _SPLIT_QUERIES, 2),
        "split_us_sets": round(1e6 * scan_split_seconds / _SPLIT_QUERIES, 2),
        "speedup_csr_vs_sets": round(scan_split_seconds / csr_split_seconds, 2),
        "split_parity_ok": bool(split_parity),
        "result_cache_cold_seconds": round(cold_seconds, 6),
        "result_cache_warm_seconds": round(warm_seconds, 6),
        "speedup_warm_cache": round(cold_seconds / warm_seconds, 2),
        "result_cache_ok": cache_ok,
    }


def _check(payload: dict) -> list[str]:
    """The CI gate: returns a list of failure messages (empty = pass)."""
    failures = []
    if not payload["result_cache_ok"]:
        failures.append("warm result cache diverged or missed")
    if not payload["split_parity_ok"]:
        failures.append("CSR splitter diverged from the frozenset scan")
    if payload["speedup_csr_vs_sets"] < 5.0:
        failures.append(
            f"CSR splitter speedup {payload['speedup_csr_vs_sets']}x "
            "is below the 5x floor over the frozenset scan"
        )
    if payload["speedup_warm_cache"] < 5.0:
        failures.append(
            f"warm result-cache speedup {payload['speedup_warm_cache']}x "
            "is below the 5x floor over the cold evaluation"
        )
    return failures


def _env_n() -> int:
    return int(os.environ.get("REPRO_BENCH_PARALLEL_N", "12000"))


def _write_json(payload: dict) -> None:
    write_bench_json(
        "parallel",
        n_nodes=payload["n"],
        wall_s=payload["descent_seconds"],
        speedup=payload["speedup_warm_cache"],
        **{k: v for k, v in payload.items() if k not in ("benchmark", "n")},
    )


def test_csr_and_result_cache_floors(report):
    """Acceptance: CSR-split and result-cache floors on a >= 10k-node DAG."""
    payload = run_benchmark(n_target=_env_n())
    report("bench_parallel", json.dumps(payload, indent=2))
    _write_json(payload)
    failures = _check(payload)
    assert not failures, "; ".join(failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="assert the floors, write results/bench_parallel.txt",
    )
    args = parser.parse_args()
    payload = run_benchmark(n_target=_env_n())
    text = json.dumps(payload, indent=2)
    print(text)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "bench_parallel.txt").write_text(text + "\n")
    _write_json(payload)
    if args.smoke:
        failures = _check(payload)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
