"""Image categorization at scale: a mini Table III on an ImageNet-like DAG.

The intro scenario of the paper: a data owner wants a batch of images
labelled against a large category DAG via crowdsourcing, paying per
question.  This script builds a synthetic ImageNet-like hierarchy, derives
the target distribution from a synthetic image corpus, and compares the
per-image question budget of every policy.

Run:  python examples/image_categorization.py [n_nodes]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.evaluation import compare_policies
from repro.policies import (
    GreedyDagPolicy,
    MigsPolicy,
    TopDownPolicy,
    WigsPolicy,
)
from repro.taxonomy import imagenet_catalog, imagenet_like


def main(n_nodes: int = 800) -> None:
    hierarchy = imagenet_like(n_nodes, seed=11)
    catalog = imagenet_catalog(hierarchy, num_objects=50 * n_nodes)
    distribution = catalog.to_distribution()
    print(
        f"Hierarchy: {hierarchy.n} categories, {hierarchy.m} edges, "
        f"height {hierarchy.height}, max degree {hierarchy.max_out_degree}"
    )
    print(f"Corpus: {catalog.num_objects} images over {len(catalog.counts)} categories")

    comparison = compare_policies(
        [TopDownPolicy(), MigsPolicy(), WigsPolicy(), GreedyDagPolicy()],
        hierarchy,
        distribution,
        max_targets=400,
        rng=np.random.default_rng(0),
    )
    print("\nExpected questions per image (lower is cheaper):")
    for result in comparison.results:
        cost_per_image = result.expected_queries
        print(
            f"  {result.policy:10s} {cost_per_image:7.2f} questions"
            f"  -> ${cost_per_image:.2f} per image at $1/question"
        )
    greedy = comparison.results[-1].policy
    saving = comparison.savings_of(greedy, versus="WIGS")
    budget = comparison.cost_of(greedy) * catalog.num_objects
    print(
        f"\n{greedy} saves {saving:.1%} versus the worst-case-optimal WIGS;"
        f"\nlabelling the whole corpus costs about ${budget:,.0f}."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 800)
