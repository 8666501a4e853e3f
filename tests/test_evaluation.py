"""Unit tests for the evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distribution import TargetDistribution
from repro.evaluation import (
    compare_policies,
    evaluate_expected_cost,
    time_by_depth,
    worst_case_cost,
)
from repro.policies import GreedyTreePolicy, TopDownPolicy, WigsPolicy

from repro.testing import make_random_tree, random_distribution, replay_compile


class TestExpectedCost:
    def test_exact_matches_decision_tree(self, vehicle_hierarchy, vehicle_distribution):
        result = evaluate_expected_cost(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        tree = replay_compile(
            GreedyTreePolicy, vehicle_hierarchy, vehicle_distribution
        )
        assert result.method == "exact"
        assert result.expected_queries == pytest.approx(
            tree.expected_cost(vehicle_distribution)
        )
        assert result.expected_price == pytest.approx(result.expected_queries)

    def test_skips_zero_probability_targets(self, vehicle_hierarchy):
        dist = TargetDistribution({"Maxima": 0.5, "Sentra": 0.5})
        result = evaluate_expected_cost(
            GreedyTreePolicy(), vehicle_hierarchy, dist
        )
        assert result.num_targets == 2

    def test_per_target_costs(self, vehicle_hierarchy, vehicle_distribution):
        result = evaluate_expected_cost(
            GreedyTreePolicy(),
            vehicle_hierarchy,
            vehicle_distribution,
            keep_per_target=True,
        )
        assert set(result.per_target) == set(vehicle_hierarchy.nodes)
        assert result.per_target["Maxima"] == 1  # first greedy query

    def test_monte_carlo_close_to_exact(self):
        h = make_random_tree(50, seed=1)
        dist = random_distribution(h, 1)
        exact = evaluate_expected_cost(GreedyTreePolicy(), h, dist)
        sampled = evaluate_expected_cost(
            GreedyTreePolicy(),
            h,
            dist,
            max_targets=40,
            rng=np.random.default_rng(2),
        )
        assert sampled.method == "monte-carlo"
        assert sampled.expected_queries == pytest.approx(
            exact.expected_queries, rel=0.3
        )

    def test_monte_carlo_needs_rng(self):
        h = make_random_tree(50, seed=1)
        dist = random_distribution(h, 1)
        from repro.exceptions import SearchError

        with pytest.raises(SearchError, match="rng"):
            evaluate_expected_cost(
                GreedyTreePolicy(), h, dist, max_targets=10
            )

    def test_explicit_targets(self, vehicle_hierarchy, vehicle_distribution):
        result = evaluate_expected_cost(
            GreedyTreePolicy(),
            vehicle_hierarchy,
            vehicle_distribution,
            targets=["Maxima", "Maxima", "Sentra", "Sentra"],
        )
        assert result.expected_queries == pytest.approx(1.5)  # (1+1+2+2)/4


class TestComparison:
    def test_savings(self, vehicle_hierarchy, vehicle_distribution):
        comparison = compare_policies(
            [TopDownPolicy(), GreedyTreePolicy()],
            vehicle_hierarchy,
            vehicle_distribution,
        )
        assert comparison.cost_of("GreedyTree") < comparison.cost_of("TopDown")
        saving = comparison.savings_of("GreedyTree", versus="TopDown")
        assert 0 < saving < 1
        with pytest.raises(KeyError):
            comparison.cost_of("nope")

    def test_monte_carlo_is_paired(self):
        """All policies see the same sampled targets."""
        h = make_random_tree(60, seed=3)
        dist = random_distribution(h, 3)
        comparison = compare_policies(
            [WigsPolicy(), WigsPolicy()],
            h,
            dist,
            max_targets=25,
            rng=np.random.default_rng(0),
        )
        a, b = comparison.results
        assert a.expected_queries == pytest.approx(b.expected_queries)

    def test_as_row(self, vehicle_hierarchy, vehicle_distribution):
        comparison = compare_policies(
            [TopDownPolicy()],
            vehicle_hierarchy,
            vehicle_distribution,
            distribution_name="real",
        )
        row = comparison.as_row()
        assert row["Distribution"] == "real"
        assert "TopDown" in row


class TestWorstCaseAndTiming:
    def test_worst_case(self, vehicle_hierarchy, vehicle_distribution):
        worst = worst_case_cost(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        assert worst == 6  # the paper's Example 2 greedy worst case

    def test_time_by_depth_structure(self, vehicle_hierarchy, vehicle_distribution, rng):
        timing = time_by_depth(
            GreedyTreePolicy(),
            vehicle_hierarchy,
            vehicle_distribution,
            rng,
            per_depth=2,
        )
        assert set(timing.mean_ms) == {0, 1, 2, 3}
        assert all(ms >= 0 for ms in timing.mean_ms.values())
        assert timing.as_series() == sorted(timing.mean_ms.items())
