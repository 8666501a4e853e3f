"""Unit tests for a policy's decision tree, its compiled plan: structure and
cost accounting (Definitions 5–8)."""

from __future__ import annotations

import pytest

from repro.core.costs import TableCost
from repro.core.session import search_for_target
from repro.exceptions import BudgetExceededError, PlanError
from repro.plan import CompiledPlan, compile_policy
from repro.policies import GreedyDagPolicy, GreedyTreePolicy, TopDownPolicy, WigsPolicy

from repro.testing import make_random_dag, random_distribution


class TestBuild:
    def test_leaves_biject_with_nodes(self, vehicle_hierarchy, vehicle_distribution):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        plan.validate()
        assert set(plan.leaf_depths()) == set(vehicle_hierarchy.nodes)

    def test_expected_cost_matches_simulation(
        self, vehicle_hierarchy, vehicle_distribution
    ):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        simulated = 0.0
        policy = GreedyTreePolicy()
        for target in vehicle_hierarchy.nodes:
            result = search_for_target(
                policy, vehicle_hierarchy, target, vehicle_distribution
            )
            simulated += vehicle_distribution.p(target) * result.num_queries
        assert plan.expected_cost(vehicle_distribution) == pytest.approx(simulated)

    @pytest.mark.parametrize("factory", [TopDownPolicy, WigsPolicy])
    def test_other_policies_validate(self, factory, vehicle_hierarchy):
        compile_policy(factory(), vehicle_hierarchy).validate()

    def test_random_graphs(self):
        for seed in range(3):
            h = make_random_dag(15, seed=seed)
            dist = random_distribution(h, seed)
            compile_policy(GreedyDagPolicy(), h, dist).validate()

    def test_depth_cap(self, vehicle_hierarchy):
        with pytest.raises(BudgetExceededError, match="depth budget of 1"):
            compile_policy(TopDownPolicy(), vehicle_hierarchy, max_depth=1)

    def test_num_questions_bound(self, vehicle_hierarchy, vehicle_distribution):
        """Internal nodes <= leaves - 1 (binary tree structure)."""
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        assert plan.num_questions == len(plan.leaf_depths()) - 1


class TestCosts:
    def test_worst_case(self, vehicle_hierarchy, vehicle_distribution):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        depths = plan.leaf_depths()
        assert plan.worst_case_cost() == max(depths.values())

    def test_prices(self, vehicle_hierarchy, vehicle_distribution):
        model = TableCost({}, default=3.0)
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution, model
        )
        prices = plan.leaf_prices(model)
        depths = plan.leaf_depths()
        for target in depths:
            assert prices[target] == pytest.approx(3.0 * depths[target])
        assert plan.expected_price(
            vehicle_distribution, model
        ) == pytest.approx(3.0 * plan.expected_cost(vehicle_distribution))

    def test_duplicate_leaf_detected(self, vehicle_hierarchy, vehicle_distribution):
        """A plan file can put one target at two leaves: GreedyTree's plan
        with its Vehicle leaf turned into a question whose leaves are
        Maxima and Vehicle has 8 leaves for 7 nodes."""
        ix = vehicle_hierarchy.index
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        query, yes, no, target = (
            a.tolist() for a in plan.payload_arrays().values()
        )
        leaf = target.index(ix("Vehicle"))
        query[leaf], target[leaf] = ix("Maxima"), -1
        yes[leaf], no[leaf] = len(query), len(query) + 1
        query += [-1, -1]
        yes += [-1, -1]
        no += [-1, -1]
        target += [ix("Maxima"), ix("Vehicle")]
        bogus = CompiledPlan(
            vehicle_hierarchy, query, yes, no, target,
            policy_name="bogus", config_key="",
        )
        assert bogus.num_leaves == 8
        with pytest.raises(PlanError, match="'Maxima' appears at two leaves"):
            bogus.validate()
        with pytest.raises(PlanError, match="two leaves"):
            bogus.expected_cost(vehicle_distribution)
        with pytest.raises(PlanError, match="two leaves"):
            bogus.expected_price(vehicle_distribution, TableCost({}, default=1.0))

    def test_validate_detects_missing_leaves(self, vehicle_hierarchy):
        ix = vehicle_hierarchy.index
        bogus = CompiledPlan(
            vehicle_hierarchy,
            [ix("Car"), -1, -1], [1, -1, -1], [2, -1, -1],
            [-1, ix("Sentra"), ix("Honda")],
            policy_name="bogus", config_key="",
        )
        with pytest.raises(PlanError, match="do not biject"):
            bogus.validate()
