"""Experiment ``fig6`` — running time by target depth (Fig. 6).

Per-search wall-clock time of ``GreedyNaive`` versus the efficient
instantiations, averaged over targets sampled at each depth.  The naive
algorithm is ``O(n^2 m)`` per search, so this experiment runs on a smaller
hierarchy (``scale.fig6_nodes``); the paper's finding to reproduce is the
orders-of-magnitude gap, which is size- and machine-independent.

A third, flat line shows the vectorized engine's amortized per-target cost
(one all-targets pass divided by ``n``): the paper's efficiency argument
assumes evaluation amortizes per-search state across targets, and the
engine line makes that amortization visible next to the per-search curves.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine import simulate_all_targets
from repro.evaluation.timing import time_by_depth
from repro.experiments.reporting import Series
from repro.experiments.scale import SMALL, Scale
from repro.policies import GreedyDagPolicy, GreedyNaivePolicy, GreedyTreePolicy
from repro.taxonomy import amazon_catalog, amazon_like, imagenet_catalog, imagenet_like


def run_dataset(kind: str, scale: Scale, seed: int = 0) -> Series:
    """One Fig. 6 panel (``kind`` is ``"Amazon"`` or ``"ImageNet"``)."""
    n = scale.fig6_nodes
    if kind == "Amazon":
        hierarchy = amazon_like(n, seed=seed + 7)
        catalog = amazon_catalog(hierarchy, seed=seed + 7, num_objects=20 * n)
        efficient = GreedyTreePolicy()
    else:
        hierarchy = imagenet_like(n, seed=seed + 11)
        catalog = imagenet_catalog(hierarchy, seed=seed + 11, num_objects=20 * n)
        efficient = GreedyDagPolicy()
    distribution = catalog.to_distribution()

    rng = np.random.default_rng([seed, 60])
    naive = time_by_depth(
        GreedyNaivePolicy(),
        hierarchy,
        distribution,
        rng,
        per_depth=scale.fig6_per_depth,
    )
    rng = np.random.default_rng([seed, 60])
    fast = time_by_depth(
        efficient, hierarchy, distribution, rng, per_depth=scale.fig6_per_depth
    )

    depths = sorted(naive.mean_ms)
    series = Series(
        title=(
            f"Fig. 6 — running time (ms) vs node depth on {kind}-like "
            f"(n={hierarchy.n}, scale={scale.name})"
        ),
        x_label="depth",
        x_values=depths,
    )
    series.add_line("GreedyNaive", [naive.mean_ms[d] for d in depths])
    series.add_line(efficient.name, [fast.mean_ms.get(d, 0.0) for d in depths])
    speedups = [
        naive.mean_ms[d] / max(fast.mean_ms.get(d, 1e-9), 1e-9) for d in depths
    ]
    series.add_line("speedup (x)", speedups)

    start = time.perf_counter()
    # result_cache=False: this line *times* the evaluation, so an installed
    # default result cache must not turn it into a disk load.
    simulate_all_targets(efficient, hierarchy, distribution, result_cache=False)
    engine_ms = 1000.0 * (time.perf_counter() - start) / hierarchy.n
    series.add_line("Engine (amortized ms/target)", [engine_ms] * len(depths))
    return series


def run(scale: Scale = SMALL, seed: int = 0) -> list[Series]:
    return [run_dataset(k, scale, seed) for k in ("Amazon", "ImageNet")]


def main(scale: Scale = SMALL, seed: int = 0) -> str:
    output = "\n\n".join(s.render() for s in run(scale, seed))
    print(output)
    return output
