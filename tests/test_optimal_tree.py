"""Tests for optimal decision-tree extraction and qualitative stability."""

from __future__ import annotations

import pytest

from repro.core.distribution import TargetDistribution
from repro.plan import CompiledPlan
from repro.policies import (
    GreedyTreePolicy,
    optimal_decision_tree,
    optimal_expected_cost,
)
from repro.experiments import TINY, table3
from repro.experiments.scale import scaled

from repro.testing import (
    make_random_dag,
    make_random_tree,
    random_distribution,
    replay_compile,
)


class TestOptimalTreeExtraction:
    def test_matches_optimal_cost(self, vehicle_hierarchy, vehicle_distribution):
        tree = optimal_decision_tree(vehicle_hierarchy, vehicle_distribution)
        assert isinstance(tree, CompiledPlan)
        tree.validate()
        assert tree.expected_cost(vehicle_distribution) == pytest.approx(
            optimal_expected_cost(vehicle_hierarchy, vehicle_distribution)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances(self, seed):
        h = make_random_dag(10, seed=seed)
        dist = random_distribution(h, seed)
        tree = optimal_decision_tree(h, dist)
        tree.validate()
        assert tree.expected_cost(dist) == pytest.approx(
            optimal_expected_cost(h, dist)
        )

    def test_never_beaten_by_greedy(self):
        for seed in range(4):
            h = make_random_tree(9, seed=seed)
            dist = random_distribution(h, seed)
            optimal = optimal_decision_tree(h, dist).expected_cost(dist)
            greedy = replay_compile(GreedyTreePolicy, h, dist).expected_cost(
                dist
            )
            assert optimal <= greedy + 1e-9

    def test_with_prices(self, vehicle_hierarchy):
        from repro.core.costs import TableCost

        prices = TableCost({}, default=2.0)
        dist = TargetDistribution.equal(vehicle_hierarchy)
        tree = optimal_decision_tree(vehicle_hierarchy, dist, prices)
        assert tree.expected_price(dist, prices) == pytest.approx(
            optimal_expected_cost(vehicle_hierarchy, dist, prices)
        )


class TestQualitativeStability:
    """The paper's orderings must hold across seeds, not just seed 0."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_table3_ordering_across_seeds(self, seed):
        table = table3.run(scaled(TINY, name=f"tiny-s{seed}"), seed=seed)
        for row in table.rows:
            assert row["Greedy"] < row["WIGS"], row
            assert row["Greedy"] < row["TopDown"], row
            assert row["Greedy"] < row["MIGS"], row
