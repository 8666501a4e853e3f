"""Sharded parallel execution of compiled-plan walks.

At paper scale (the ~28k-node ImageNet DAG) the exact all-targets walk is
the dominant cost of every experiment table, and it is embarrassingly
parallel: the :class:`~repro.plan.CompiledPlan` arrays are immutable and
picklable, every target's cost is independent, and the per-target output
arrays are disjoint.  :func:`run_parallel_walk` fans the walk out over a
process pool.

Sharding is by *disjoint plan regions*, not by slicing the target array:
the parent expands the plan top-down (largest surviving target subset
first) until it holds several frames per worker, then deals the frames
into per-worker buckets balanced by subset size.  A naive ``array_split``
of the targets would make every worker re-walk nearly all decision nodes
near the root — the per-node Python dispatch is the bottleneck, so total
work would *grow* with the shard count and the speedup would evaporate.
With disjoint regions each plan node is visited by exactly one process, so
the union of work equals the sequential walk and ``decision_nodes`` (like
the per-target arrays) is bit-identical for every ``jobs`` value.

Workers receive the plan and the caller's hierarchy once per pool (via the
initializer).  Under the ``fork`` start method — the default wherever
available — nothing is pickled: the parent pre-builds the hierarchy's
reachability index before forking, and workers share it copy-on-write.
Under ``spawn`` the initargs are pickled instead; hierarchies deliberately
exclude their lazy caches from pickles (the matrix alone is ``n^2`` bytes),
so each spawn worker rebuilds the index once per pool.  The splitter
kernel is chosen once for the *full* target set and forced on every
shard, keeping the walk shard-count-invariant.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.plan import ROOT, CompiledPlan

#: Frontier frames expanded per worker before fanning out: enough slack for
#: the size-balanced deal to even out skewed plan shapes, few enough that
#: the parent's own expansion work stays negligible.
_FRONTIER_FACTOR = 8

_default_jobs: int | None = None


def set_default_jobs(jobs: int | None) -> None:
    """Install the process-wide default shard count (CLI ``--jobs``).

    ``None`` restores the sequential default; non-positive values mean
    "all cores" (resolved at call time).
    """
    global _default_jobs
    _default_jobs = None if jobs is None else int(jobs)


def get_default_jobs() -> int | None:
    """The installed default shard count, or ``None`` for sequential."""
    return _default_jobs


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``jobs`` argument to a concrete worker count (>= 1)."""
    if jobs is None:
        jobs = get_default_jobs()
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def expand_frontier(
    plan: CompiledPlan,
    hierarchy,
    model,
    target_ix: np.ndarray,
    queries: np.ndarray,
    prices: np.ndarray,
    budget: int,
    check: bool,
    want: int,
):
    """Expand the plan top-down until at least ``want`` frontier frames exist.

    Pops the largest-subset frame, settles leaves in the parent (writing
    straight into ``queries``/``prices``), pushes children.  Returns
    ``(visited, frames, split)``: decision nodes the parent settled, the
    remaining ``(node, subset, depth, price)`` frames (empty when the whole
    walk fit in the parent), and the splitter kernel chosen for the *full*
    target set — callers must force its ``kind`` on every shard so the walk
    stays shard-count-invariant.  Shared by the per-call process pool below
    and the persistent :class:`~repro.engine.pool.EvaluationPool`; because
    the frames partition the remaining work into disjoint plan regions, any
    way of dealing them to workers reproduces the sequential walk bit for
    bit.
    """
    from repro.engine.driver import _make_stepper
    from repro.engine.vector import make_splitter

    split = make_splitter(hierarchy, len(target_ix))
    step = _make_stepper(
        plan, hierarchy, model, queries, prices, budget, check, split
    )
    visited = 0

    counter = itertools.count()
    heap: list[tuple[int, int, int, np.ndarray, int, float]] = [
        (-len(target_ix), next(counter), ROOT, target_ix, 0, 0.0)
    ]

    def emit(child: int, sub: np.ndarray, depth: int, price: float) -> None:
        heapq.heappush(heap, (-len(sub), next(counter), child, sub, depth, price))

    while heap and len(heap) < want:
        _, _, node, subset, depth, price = heapq.heappop(heap)
        visited += step(node, subset, depth, price, emit)

    frames = [
        (node, subset, depth, price)
        for _, _, node, subset, depth, price in heap
    ]
    return visited, frames, split


def run_parallel_walk(
    plan: CompiledPlan,
    hierarchy,
    model,
    target_ix: np.ndarray,
    queries: np.ndarray,
    prices: np.ndarray,
    budget: int,
    check: bool,
    jobs: int,
) -> int:
    """Walk the plan over ``jobs`` worker processes; returns nodes visited.

    Scatters per-target results into ``queries``/``prices`` exactly as the
    sequential :func:`~repro.engine.driver._plan_walk` would — the node
    semantics live in one shared stepper
    (:func:`~repro.engine.driver._make_stepper`), so the output is
    bit-identical for every shard count, including ``decision_nodes``.
    """
    visited, frames, split = expand_frontier(
        plan, hierarchy, model, target_ix, queries, prices, budget, check,
        jobs * _FRONTIER_FACTOR,
    )
    if not frames:
        return visited

    buckets = _deal_frames(frames, jobs)
    ctx = (
        multiprocessing.get_context("fork")
        if "fork" in multiprocessing.get_all_start_methods()
        else multiprocessing.get_context()
    )
    with ProcessPoolExecutor(
        max_workers=len(buckets),
        mp_context=ctx,
        initializer=_init_worker,
        # The caller's hierarchy rides along explicitly: it is the object
        # the parent pre-built the reachability index on (plan.hierarchy
        # may be an equal-but-distinct copy with cold caches, e.g. when a
        # plan file is walked against the caller's own graph).
        initargs=(
            plan, hierarchy, model, budget, check, getattr(split, "kind", None)
        ),
    ) as pool:
        for done, done_queries, done_prices, shard_visited in pool.map(
            _walk_bucket, buckets
        ):
            queries[done] = done_queries
            prices[done] = done_prices
            visited += shard_visited
    return visited


def _deal_frames(frames, jobs: int):
    """Deal frontier frames into <= ``jobs`` buckets, balanced by size.

    Classic greedy makespan: largest frame first, into the currently
    lightest bucket (subset size is the proxy for walk work below the
    frame).  Deterministic — ties break on bucket index.
    """
    frames = sorted(frames, key=lambda f: (-len(f[1]), f[0]))
    buckets: list[list] = [[] for _ in range(min(jobs, len(frames)))]
    loads = [(0, b) for b in range(len(buckets))]
    heapq.heapify(loads)
    for frame in frames:
        load, b = heapq.heappop(loads)
        buckets[b].append(frame)
        heapq.heappush(loads, (load + len(frame[1]), b))
    return [bucket for bucket in buckets if bucket]


_WORKER_STATE = None


def _init_worker(plan, hierarchy, model, budget, check, split_kind) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (plan, hierarchy, model, budget, check, split_kind)


def _walk_bucket(frames):
    """Worker: walk a bucket of disjoint plan frames; return shard arrays."""
    from repro.engine.driver import _plan_walk
    from repro.engine.vector import make_splitter

    plan, hierarchy, model, budget, check, split_kind = _WORKER_STATE
    evaluated = np.concatenate([subset for _, subset, _, _ in frames])
    queries = np.full(hierarchy.n, -1, dtype=np.int64)
    prices = np.full(hierarchy.n, np.nan, dtype=float)
    split = make_splitter(hierarchy, len(evaluated), kind=split_kind)
    visited = _plan_walk(
        plan,
        hierarchy,
        model,
        evaluated,
        queries,
        prices,
        budget,
        check,
        split=split,
        frames=frames,
    )
    return evaluated, queries[evaluated], prices[evaluated], visited
