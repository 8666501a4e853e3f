"""Tests for the information-theoretic bounds (and that no policy beats them)."""

from __future__ import annotations

import pytest

from repro.core.distribution import TargetDistribution
from repro.evaluation import (
    efficiency,
    entropy_lower_bound,
    worst_case_lower_bound,
)
from repro.policies import (
    GreedyDagPolicy,
    GreedyTreePolicy,
    TopDownPolicy,
    WigsPolicy,
    optimal_expected_cost,
)
from repro.taxonomy.generators import balanced_tree, path_graph

from repro.testing import (
    make_random_dag,
    make_random_tree,
    random_distribution,
    replay_compile,
)


class TestBounds:
    def test_entropy_bound_values(self):
        dist = TargetDistribution({i: 0.25 for i in range(4)})
        assert entropy_lower_bound(dist) == pytest.approx(2.0)

    def test_worst_case_bound(self, vehicle_hierarchy):
        assert worst_case_lower_bound(vehicle_hierarchy) == 3  # ceil(log2 7)
        from repro.core.hierarchy import Hierarchy

        assert worst_case_lower_bound(Hierarchy([], nodes=["x"])) == 0

    def test_efficiency_range(self, vehicle_hierarchy, vehicle_distribution):
        tree = replay_compile(
            GreedyTreePolicy, vehicle_hierarchy, vehicle_distribution
        )
        value = efficiency(tree.expected_cost(vehicle_distribution), vehicle_distribution)
        assert 0 < value <= 1

    def test_path_graph_binary_search_is_efficient(self):
        h = path_graph(16)
        dist = TargetDistribution.equal(h)
        assert optimal_expected_cost(h, dist) >= entropy_lower_bound(dist) - 1e-9


class TestNoPolicyBeatsTheBound:
    @pytest.mark.parametrize(
        "factory", [GreedyTreePolicy, TopDownPolicy, WigsPolicy]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_tree_policies(self, factory, seed):
        h = make_random_tree(25, seed=seed)
        dist = random_distribution(h, seed)
        tree = replay_compile(factory, h, dist)
        assert tree.expected_cost(dist) >= entropy_lower_bound(dist) - 1e-9
        assert tree.worst_case_cost() >= worst_case_lower_bound(h)

    @pytest.mark.parametrize("seed", range(4))
    def test_dag_policy(self, seed):
        h = make_random_dag(20, seed=seed)
        dist = random_distribution(h, seed)
        tree = replay_compile(GreedyDagPolicy, h, dist)
        assert tree.expected_cost(dist) >= entropy_lower_bound(dist) - 1e-9

    def test_even_the_optimum_respects_it(self):
        h = balanced_tree(2, 3)
        dist = TargetDistribution.equal(h)
        assert optimal_expected_cost(h, dist) >= entropy_lower_bound(dist) - 1e-9
