"""Unit tests for the exponential optimal DP and the approximation bounds."""

from __future__ import annotations

import math

import pytest

from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.evaluation import worst_case_cost
from repro.policies import (
    GreedyTreePolicy,
    WigsPolicy,
    greedy_reference_cost,
    optimal_expected_cost,
    optimal_worst_case_cost,
)
from repro.exceptions import SearchError
from repro.taxonomy.generators import balanced_tree, path_graph, star_graph

from repro.testing import (
    make_random_dag,
    make_random_tree,
    random_distribution,
    replay_compile,
)

#: Theorem 2's golden-ratio bound for trees.
PHI = (1 + math.sqrt(5)) / 2


class TestOptimalValues:
    def test_two_node_chain(self):
        h = Hierarchy([("a", "b")])
        dist = TargetDistribution.equal(h)
        assert optimal_expected_cost(h, dist) == pytest.approx(1.0)
        assert optimal_worst_case_cost(h) == 1

    def test_vehicle_example(self, vehicle_hierarchy, vehicle_distribution):
        """The paper's Example 2 strategies are optimal for their criteria."""
        assert optimal_expected_cost(
            vehicle_hierarchy, vehicle_distribution
        ) == pytest.approx(2.04)
        assert optimal_worst_case_cost(vehicle_hierarchy) == 4

    def test_balanced_binary_tree_worst_case(self):
        # Queries are constrained to subtree splits (not arbitrary subsets),
        # so the information-theoretic ceil(log2(15)) = 4 is NOT achievable
        # on a complete binary tree; the subtree-constrained optimum is 5.
        h = balanced_tree(2, 3)  # 15 nodes
        assert optimal_worst_case_cost(h) == 5

    def test_star_worst_case_is_linear(self):
        h = star_graph(6)
        # Any policy must query the leaves one by one on a star.
        assert optimal_worst_case_cost(h) == 5

    def test_path_expected_cost_is_binary_search(self):
        h = path_graph(8)
        dist = TargetDistribution.equal(h)
        assert optimal_expected_cost(h, dist) == pytest.approx(3.0)

    def test_refuses_large_instances(self):
        h = make_random_tree(25, seed=0)
        with pytest.raises(SearchError, match="exponential"):
            optimal_expected_cost(h, TargetDistribution.equal(h))


class TestApproximationBounds:
    @pytest.mark.parametrize("seed", range(10))
    def test_theorem2_phi_bound_on_trees(self, seed):
        """Greedy expected cost <= phi * optimum on trees (Theorem 2)."""
        h = make_random_tree(10, seed=seed)
        dist = random_distribution(h, seed)
        tree = replay_compile(GreedyTreePolicy, h, dist)
        greedy = tree.expected_cost(dist)
        best = optimal_expected_cost(h, dist)
        assert greedy <= PHI * best + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_reference_greedy_matches_policy_objective(self, seed):
        """The DP greedy reference obeys the same bound (tie-independent)."""
        h = make_random_tree(9, seed=seed)
        dist = random_distribution(h, seed)
        reference = greedy_reference_cost(h, dist)
        best = optimal_expected_cost(h, dist)
        assert reference <= PHI * best + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_dag_greedy_within_logarithmic_bound(self, seed):
        """Theorem 1's 2(1+3 ln n) bound, checked loosely on small DAGs."""
        from repro.policies import GreedyDagPolicy

        h = make_random_dag(10, seed=seed)
        dist = random_distribution(h, seed)
        tree = replay_compile(GreedyDagPolicy, h, dist)
        greedy = tree.expected_cost(dist)
        best = optimal_expected_cost(h, dist)
        assert greedy <= 2 * (1 + 3 * math.log(h.n)) * best + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_wigs_worst_case_reasonable(self, seed):
        """WIGS stays within a small factor of the worst-case optimum."""
        h = make_random_tree(12, seed=seed)
        wigs = worst_case_cost(WigsPolicy(), h)
        best = optimal_worst_case_cost(h)
        assert wigs <= 2 * best + 2
