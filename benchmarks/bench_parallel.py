"""Paper-scale acceptance benchmark: sharded walks, CSR splits, caches, pool.

The scaling levers of the parallel-evaluation PRs, measured on one exact
all-targets evaluation of a >= 10k-node ImageNet-like DAG (above
``_MATRIX_NODE_LIMIT``, so the sorted CSR reachability closure is the
active splitter) plus a small-n companion DAG for the persistent pool:

* **sharded walk** — ``simulate_all_targets(plan, jobs=N)`` versus the
  sequential ``jobs=1`` walk, with bit-identical per-target arrays.  Note
  the ceiling: ``jobs=N`` can never beat ``N``x, so the headline assertion
  uses the full worker count while ``jobs=2`` is reported alongside;
* **CSR splitter** — the closure kernel versus the baseline kept here, a
  per-target membership scan of the cached descendant frozensets; the
  closure's bytes are reported beside the ``n^2 / 8`` a packed bitset of
  the same relation would take;
* **engine-result cache** — a warm :class:`repro.engine.EngineResultCache`
  must answer in O(load) time with zero plan walks;
* **persistent pool** — repeated *small-n* evaluations on a warm
  :class:`repro.engine.EvaluationPool` versus per-call pool spin-ups (the
  ~20 ms fork-and-pickle tax the pool removes), and an overlapped
  ``compare_policies(..., pool=...)`` versus policy-serial sharded walks —
  both with results exactly equal to the serial path.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_parallel.py           # report
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke   # CI gate

or as part of the benchmark suite (``pytest benchmarks/bench_parallel.py``).
Environment knobs:

``REPRO_BENCH_PARALLEL_N``
    Approximate node count of the DAG (default 12000).
``REPRO_BENCH_PARALLEL_JOBS``
    Worker count for the headline speedup (default: all cores, capped at 4).
``REPRO_BENCH_PARALLEL_MIN_SPEEDUP``
    Speedup floor asserted by the CI gate (default 2.0; the gate is skipped
    on single-core machines, where no wall-clock speedup is possible).
``REPRO_BENCH_POOL_N`` / ``REPRO_BENCH_POOL_REPEATS``
    Node count (default 400) and repetition count (default 8) of the
    small-n warm-pool measurement — small on purpose: this is the regime
    where per-call pool spin-up dominates and the persistent pool pays.
``REPRO_BENCH_POOL_MIN_SPEEDUP``
    Warm-pool floor (default 5.0; capped at 2.5 on single-core machines,
    where queue round-trips contend with the walk for the one core).
``REPRO_BENCH_POOL_MIN_OVERLAP``
    Overlapped-compare floor (default 1.2; skipped on single-core
    machines — overlap is a parallelism claim).
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
from repro.engine import (
    EngineResultCache,
    EvaluationPool,
    make_splitter,
    simulate_all_targets,
)
from repro.evaluation.comparison import compare_policies
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


def _default_jobs() -> int:
    return max(2, min(4, os.cpu_count() or 1))


def run_benchmark(
    n_target: int = 12_000,
    jobs: int | None = None,
    policy_name: str = "topdown",
    seed: int = 1,
) -> dict:
    """Time the three levers on one >= 10k-node DAG; return a JSON-able dict."""
    # Installed defaults (REPRO_PLAN_CACHE / REPRO_RESULT_CACHE / --jobs)
    # would serve the second and third timed walks from disk and fabricate
    # the speedups; clear them for the timed region only.
    with neutral_defaults():
        return _timed_benchmark(n_target, jobs, policy_name, seed)


def _timed_benchmark(
    n_target: int, jobs: int | None, policy_name: str, seed: int
) -> dict:
    jobs = jobs or _default_jobs()
    hierarchy = imagenet_like(n_target, seed=seed)
    distribution = TargetDistribution.equal(hierarchy)

    start = time.perf_counter()
    plan = compile_policy(make_policy(policy_name), hierarchy, distribution)
    compile_seconds = time.perf_counter() - start

    # The compile built the closure (it splits with it too), and both the
    # sequential and the sharded walk reuse it; time a build on a copy
    # without caches.
    uncached = pickle.loads(pickle.dumps(hierarchy))
    start = time.perf_counter()
    indptr, members = uncached.reachability_closure()
    closure_build_seconds = time.perf_counter() - start
    closure_bytes = indptr.nbytes + members.nbytes

    start = time.perf_counter()
    sequential = simulate_all_targets(plan, jobs=1)
    seq_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sharded = simulate_all_targets(plan, jobs=jobs)
    par_seconds = time.perf_counter() - start

    if jobs == 2:
        two_way, two_seconds = sharded, par_seconds
    else:
        start = time.perf_counter()
        two_way = simulate_all_targets(plan, jobs=2)
        two_seconds = time.perf_counter() - start

    parity_ok = (
        np.array_equal(sequential.queries, sharded.queries)
        and np.array_equal(sequential.prices, sharded.prices, equal_nan=True)
        and np.array_equal(sequential.queries, two_way.queries)
        and sequential.decision_nodes
        == sharded.decision_nodes
        == two_way.decision_nodes
    )

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

    # Warm result cache: the second run must be one np.load, zero walks.
    with tempfile.TemporaryDirectory() as tmp:
        cache = EngineResultCache(tmp)
        start = time.perf_counter()
        cold = simulate_all_targets(plan, jobs=1, result_cache=cache)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = simulate_all_targets(plan, jobs=1, result_cache=cache)
        warm_seconds = time.perf_counter() - start
        cache_ok = (
            cache.hits == 1
            and cache.misses == 1
            and np.array_equal(cold.queries, warm.queries)
            and cold.decision_nodes == warm.decision_nodes
        )

    # Persistent pool: repeated small-n evaluations + overlapped compare.
    # Small on purpose — this is the regime where the ~20 ms per-call pool
    # spin-up dominates and a warm pool's queue round-trips do not.
    pool_n = int(os.environ.get("REPRO_BENCH_POOL_N", "400"))
    pool_repeats = int(os.environ.get("REPRO_BENCH_POOL_REPEATS", "8"))
    small = imagenet_like(pool_n, seed=seed + 1)
    small_dist = TargetDistribution.equal(small)
    small_plans = [
        compile_policy(make_policy(name), small, small_dist)
        for name in ("topdown", "greedy-dag")
    ]
    lead = small_plans[0]
    reference = simulate_all_targets(
        lead, jobs=1, result_cache=False, pool=False
    )
    start = time.perf_counter()
    for _ in range(pool_repeats):
        per_call = simulate_all_targets(
            lead, jobs=jobs, result_cache=False, pool=False
        )
    pool_cold_seconds = time.perf_counter() - start
    with EvaluationPool(workers=jobs) as pool:
        # One priming walk publishes the plan and attaches every worker;
        # the timed region is the steady warm state a long-lived service
        # actually runs in.
        simulate_all_targets(lead, result_cache=False, pool=pool)
        start = time.perf_counter()
        for _ in range(pool_repeats):
            warm_pooled = simulate_all_targets(
                lead, result_cache=False, pool=pool
            )
        pool_warm_seconds = time.perf_counter() - start
        pool_parity = (
            np.array_equal(reference.queries, warm_pooled.queries)
            and np.array_equal(reference.queries, per_call.queries)
            and reference.decision_nodes
            == warm_pooled.decision_nodes
            == per_call.decision_nodes
        )

        start = time.perf_counter()
        serial_cmp = compare_policies(
            small_plans, small, small_dist,
            jobs=jobs, pool=False, result_cache=False,
        )
        compare_serial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        overlap_cmp = compare_policies(
            small_plans, small, small_dist, pool=pool, result_cache=False
        )
        compare_overlap_seconds = time.perf_counter() - start
        compare_parity = all(
            a.policy == b.policy
            and a.expected_queries == b.expected_queries
            and a.expected_price == b.expected_price
            for a, b in zip(serial_cmp.results, overlap_cmp.results)
        )

    return {
        "benchmark": "bench_parallel",
        "policy": plan.policy_name,
        "n": hierarchy.n,
        "m": hierarchy.m,
        "height": hierarchy.height,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "compile_seconds": round(compile_seconds, 6),
        "closure_build_seconds": round(closure_build_seconds, 6),
        "closure_bytes": closure_bytes,
        "bitset_equivalent_bytes": hierarchy.n * hierarchy.n // 8,
        "walk_seconds_jobs1": round(seq_seconds, 6),
        "walk_seconds_jobs2": round(two_seconds, 6),
        "walk_seconds_sharded": round(par_seconds, 6),
        "speedup_jobs2": round(seq_seconds / two_seconds, 2),
        "speedup_sharded": round(seq_seconds / par_seconds, 2),
        "parity_ok": parity_ok,
        "split_us_csr": round(1e6 * csr_split_seconds / _SPLIT_QUERIES, 2),
        "split_us_sets": round(1e6 * scan_split_seconds / _SPLIT_QUERIES, 2),
        "speedup_csr_vs_sets": round(scan_split_seconds / csr_split_seconds, 2),
        "split_parity_ok": bool(split_parity),
        "result_cache_cold_seconds": round(cold_seconds, 6),
        "result_cache_warm_seconds": round(warm_seconds, 6),
        "speedup_warm_cache": round(cold_seconds / warm_seconds, 2),
        "result_cache_ok": cache_ok,
        "pool_n": small.n,
        "pool_repeats": pool_repeats,
        "pool_cold_seconds": round(pool_cold_seconds, 6),
        "pool_warm_seconds": round(pool_warm_seconds, 6),
        "speedup_warm_pool": round(pool_cold_seconds / pool_warm_seconds, 2),
        "pool_parity_ok": pool_parity,
        "compare_serial_seconds": round(compare_serial_seconds, 6),
        "compare_overlap_seconds": round(compare_overlap_seconds, 6),
        "speedup_overlap": round(
            compare_serial_seconds / compare_overlap_seconds, 2
        ),
        "compare_parity_ok": compare_parity,
    }


def _check(payload: dict, min_speedup: float) -> list[str]:
    """The CI gate: returns a list of failure messages (empty = pass)."""
    failures = []
    if not payload["parity_ok"]:
        failures.append("sharded walk diverged from the sequential arrays")
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
            "is below the 5x floor over the cold walk"
        )
    floor = _effective_floor(min_speedup, payload["jobs"])
    if floor is not None and payload["speedup_sharded"] < floor:
        failures.append(
            f"sharded walk speedup {payload['speedup_sharded']}x "
            f"(jobs={payload['jobs']}) is below the {floor}x floor"
        )
    two_floor = _effective_floor(min_speedup, 2)
    if two_floor is not None and payload["speedup_jobs2"] < two_floor:
        failures.append(
            f"jobs=2 walk speedup {payload['speedup_jobs2']}x is below "
            f"the {two_floor}x floor"
        )
    if not payload["pool_parity_ok"]:
        failures.append("warm-pool walk diverged from the sequential arrays")
    if not payload["compare_parity_ok"]:
        failures.append(
            "overlapped compare_policies diverged from the serial comparison"
        )
    pool_floor = float(os.environ.get("REPRO_BENCH_POOL_MIN_SPEEDUP", "5.0"))
    if (os.cpu_count() or 1) < 2:
        # Overhead elimination works on one core too, but the warm walk's
        # queue round-trips then contend with the walk for that core.
        pool_floor = min(pool_floor, 2.5)
    if payload["speedup_warm_pool"] < pool_floor:
        failures.append(
            f"warm-pool speedup {payload['speedup_warm_pool']}x on repeated "
            f"small-n (n={payload['pool_n']}) evaluations is below the "
            f"{pool_floor}x floor over per-call pools"
        )
    overlap_floor = float(
        os.environ.get("REPRO_BENCH_POOL_MIN_OVERLAP", "1.2")
    )
    if (os.cpu_count() or 1) >= 2 and payload["speedup_overlap"] < overlap_floor:
        failures.append(
            f"overlapped compare_policies speedup {payload['speedup_overlap']}x "
            f"is below the {overlap_floor}x floor over policy-serial sharding"
        )
    return failures


def _effective_floor(min_speedup: float, jobs: int) -> float | None:
    """Cap the configured floor by what the hardware can deliver.

    ``min(jobs, cpus)`` workers bound the speedup at exactly that factor
    (Amdahl), so the configured floor only applies unclamped when there is
    headroom above it; a dual-core machine gets ``0.7 * 2 = 1.4x`` and a
    single core (no parallelism possible) skips the gate entirely.
    """
    effective = min(jobs, os.cpu_count() or 1)
    if effective < 2:
        return None
    return min(min_speedup, round(0.7 * effective, 2))


def _min_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_PARALLEL_MIN_SPEEDUP", "2.0"))


def _env_config() -> tuple[int, int]:
    n = int(os.environ.get("REPRO_BENCH_PARALLEL_N", "12000"))
    jobs = int(os.environ.get("REPRO_BENCH_PARALLEL_JOBS", "0"))
    return n, (jobs or _default_jobs())


def test_parallel_evaluation_floors(report):
    """Acceptance: shard/CSR/cache floors on a >= 10k-node DAG."""
    n, jobs = _env_config()
    payload = run_benchmark(n_target=n, jobs=jobs)
    report("bench_parallel", json.dumps(payload, indent=2))
    write_bench_json(
        "parallel",
        n_nodes=payload["n"],
        wall_s=payload["walk_seconds_sharded"],
        speedup=payload["speedup_sharded"],
        **{k: v for k, v in payload.items() if k not in ("benchmark", "n")},
    )
    failures = _check(payload, _min_speedup())
    assert not failures, "; ".join(failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="assert the speedup floors, write results/bench_parallel.txt",
    )
    args = parser.parse_args()
    n, jobs = _env_config()
    payload = run_benchmark(n_target=n, jobs=jobs)
    text = json.dumps(payload, indent=2)
    print(text)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "bench_parallel.txt").write_text(text + "\n")
    write_bench_json(
        "parallel",
        n_nodes=payload["n"],
        wall_s=payload["walk_seconds_sharded"],
        speedup=payload["speedup_sharded"],
        **{k: v for k, v in payload.items() if k not in ("benchmark", "n")},
    )
    if args.smoke:
        failures = _check(payload, _min_speedup())
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
