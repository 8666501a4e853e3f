"""Experiment ``scaling`` — empirical validation of the complexity claims.

Section IV claims ``GreedyTree`` runs in ``O(n h d)`` and ``GreedyDAG`` in
``O(n m)`` total, versus the naive ``O(n^2 m)``.  This experiment measures
average per-search wall-clock time as ``n`` grows (height capped, so
``h d`` grows slowly) and reports the growth factor per size doubling: the
efficient policies should scale near-linearly per search while the naive
algorithm's per-search time grows roughly quadratically.

The ``Engine/target`` column shows the same ``GreedyTree`` evaluated over
*all* ``n`` targets by the vectorized engine
(:func:`repro.engine.simulate_all_targets`), divided by ``n``: the amortized
per-target cost of the one-pass descent of the compiled plan, which is the
path every expected-cost experiment now takes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.oracle import ExactOracle
from repro.core.session import run_search
from repro.engine import simulate_all_targets
from repro.experiments.reporting import Table
from repro.experiments.scale import SMALL, Scale
from repro.policies import GreedyDagPolicy, GreedyNaivePolicy, GreedyTreePolicy
from repro.taxonomy import amazon_catalog, amazon_like, imagenet_catalog, imagenet_like


def _avg_search_ms(policy, hierarchy, distribution, targets) -> float:
    start = time.perf_counter()
    for target in targets:
        result = run_search(
            policy, ExactOracle(hierarchy, target), hierarchy, distribution
        )
        assert result.returned == target
    return 1000.0 * (time.perf_counter() - start) / len(targets)


def _engine_ms_per_target(policy, hierarchy, distribution) -> float:
    start = time.perf_counter()
    # result_cache=False: this column *times* the evaluation, so an
    # installed default result cache must not turn it into a disk load.
    simulate_all_targets(policy, hierarchy, distribution, result_cache=False)
    return 1000.0 * (time.perf_counter() - start) / hierarchy.n


def run(
    scale: Scale = SMALL,
    seed: int = 0,
    *,
    sizes: tuple[int, ...] | None = None,
    samples: int | None = None,
    naive_cap: int = 500,
) -> Table:
    """Per-search time versus hierarchy size.

    ``sizes``/``samples`` default according to the scale preset.  The naive
    algorithm is only measured up to ``naive_cap`` nodes (it is O(n m) *per
    round*; beyond that it dominates the suite's runtime without adding
    information).
    """
    if sizes is None:
        sizes = (100, 200, 400) if scale.name == "tiny" else (250, 500, 1000, 2000)
    if samples is None:
        samples = 8 if scale.name == "tiny" else 24
    table = Table(
        f"Scaling: average per-search time (ms) vs n (seed={seed}, "
        f"{samples} sampled targets per cell; Engine/target = all-targets "
        "engine pass / n)",
        ("n", "GreedyTree", "GreedyDAG", "GreedyNaive (tree)",
         "Engine/target (tree)"),
    )
    for n in sizes:
        rng = np.random.default_rng([seed, 90, n])
        tree = amazon_like(n, seed=seed + 7)
        tree_dist = amazon_catalog(
            tree, seed=seed + 7, num_objects=20 * n
        ).to_distribution()
        tree_targets = tree_dist.sample(rng, size=samples)

        dag = imagenet_like(n, seed=seed + 11)
        dag_dist = imagenet_catalog(
            dag, seed=seed + 11, num_objects=20 * n
        ).to_distribution()
        dag_targets = dag_dist.sample(rng, size=samples)

        row = {
            "n": n,
            "GreedyTree": _avg_search_ms(
                GreedyTreePolicy(), tree, tree_dist, tree_targets
            ),
            "GreedyDAG": _avg_search_ms(
                GreedyDagPolicy(), dag, dag_dist, dag_targets
            ),
        }
        if n <= naive_cap:
            row["GreedyNaive (tree)"] = _avg_search_ms(
                GreedyNaivePolicy(), tree, tree_dist, tree_targets
            )
        else:
            row["GreedyNaive (tree)"] = "-"
        row["Engine/target (tree)"] = _engine_ms_per_target(
            GreedyTreePolicy(), tree, tree_dist
        )
        table.add_row(row)
    return table


def main(scale: Scale = SMALL, seed: int = 0) -> str:
    output = run(scale, seed).render()
    print(output)
    return output
