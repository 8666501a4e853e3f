"""Heterogeneous question pricing (CAIGS, Section III-D / Example 4).

Crowd platforms price questions by difficulty.  This script first reproduces
the paper's Example 4 exactly (the $4.25 vs $6 chain), then compares plain
and cost-sensitive greedy under random per-question prices on a larger tree.

Run:  python examples/cost_sensitive_pricing.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import Hierarchy, TableCost, TargetDistribution, compile_policy
from repro.core.costs import random_costs
from repro.policies import CostSensitiveGreedyPolicy, GreedyNaivePolicy
from repro.taxonomy import amazon_like


def example4() -> None:
    """The paper's Fig. 3 chain: c(3) = 5, everything else $1."""
    chain = Hierarchy([(1, 2), (2, 3), (3, 4)])
    prices = TableCost({1: 1.0, 2: 1.0, 3: 5.0, 4: 1.0})
    dist = TargetDistribution.equal(chain)

    simple = compile_policy(GreedyNaivePolicy(), chain, dist, prices)
    sensitive = compile_policy(
        CostSensitiveGreedyPolicy(), chain, dist, prices
    )
    print("Example 4 (4-node chain, node 3 costs $5):")
    print(f"  simple greedy          expected price ${simple.expected_price(dist, prices):.2f}")
    print(f"  cost-sensitive greedy  expected price ${sensitive.expected_price(dist, prices):.2f}")
    print("  (paper: $6 vs $4.25)\n")


def random_pricing(n: int = 300) -> None:
    """Random prices in [$0.5, $1.5] on an Amazon-like tree."""
    hierarchy = amazon_like(n, seed=3)
    rng = np.random.default_rng(5)
    prices = random_costs(hierarchy, rng, low=0.5, high=1.5)
    dist = TargetDistribution.random_zipf(hierarchy, rng, a=2.0)

    plain = compile_policy(GreedyNaivePolicy(), hierarchy, dist, prices)
    sensitive = compile_policy(
        CostSensitiveGreedyPolicy(), hierarchy, dist, prices
    )
    plain_price = plain.expected_price(dist, prices)
    sensitive_price = sensitive.expected_price(dist, prices)
    print(f"Random prices on a {n}-category tree (Zipf targets):")
    print(f"  simple greedy          expected price ${plain_price:.3f}")
    print(f"  cost-sensitive greedy  expected price ${sensitive_price:.3f}")
    print(f"  saving: {(plain_price - sensitive_price) / plain_price:.1%}")


if __name__ == "__main__":
    example4()
    random_pricing()
