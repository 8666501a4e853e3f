"""Tests for persisted decision trees: a compiled plan saved once and
loaded as a static tree to serve from."""

from __future__ import annotations

import pickle

import pytest

from repro.core.session import search_for_target
from repro.exceptions import PlanError, SearchError
from repro.plan import CompiledPlan, compile_policy
from repro.policies import GreedyDagPolicy, GreedyTreePolicy, TopDownPolicy

from repro.testing import make_random_dag, make_random_tree, random_distribution


def _reload(plan: CompiledPlan, tmp_path) -> CompiledPlan:
    path = tmp_path / "tree.plan"
    plan.save(path)
    return CompiledPlan.load(path)


class TestSerialisation:
    def test_round_trip(self, tmp_path, vehicle_hierarchy, vehicle_distribution):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        back = _reload(plan, tmp_path)
        back.validate()
        assert back.leaf_depths() == plan.leaf_depths()
        assert back.expected_cost(vehicle_distribution) == pytest.approx(
            plan.expected_cost(vehicle_distribution)
        )

    def test_round_trip_random_dags(self, tmp_path):
        for seed in range(3):
            h = make_random_dag(15, seed=seed)
            dist = random_distribution(h, seed)
            plan = compile_policy(GreedyDagPolicy(), h, dist)
            assert _reload(plan, tmp_path).leaf_depths() == plan.leaf_depths()

    def test_deep_tree_serialises_iteratively(self, tmp_path):
        """A path hierarchy yields a deep tree; no recursion limit issues."""
        from repro.taxonomy.generators import path_graph

        h = path_graph(300)
        plan = compile_policy(TopDownPolicy(), h)
        back = _reload(plan, tmp_path)
        assert back.worst_case_cost() == plan.worst_case_cost() == 299

    def test_malformed_payloads(self, tmp_path, vehicle_hierarchy):
        path = tmp_path / "malformed.plan"
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        for payload in (
            {"format": "repro-compiled-plan-v1"},
            {"format": "repro-compiled-plan-v1", "plan": plan.payload_arrays()},
            [plan],
        ):
            path.write_bytes(pickle.dumps(payload))
            with pytest.raises(PlanError, match="not a compiled-plan file"):
                CompiledPlan.load(path)


class TestServingFromFile:
    """A loaded plan stands in for the policy it was compiled from."""

    def test_identical_transcripts(
        self, tmp_path, vehicle_hierarchy, vehicle_distribution
    ):
        """The loaded plan asks exactly the live policy's questions."""
        static = _reload(
            compile_policy(
                GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
            ),
            tmp_path,
        )
        live = GreedyTreePolicy()
        for target in vehicle_hierarchy.nodes:
            a = search_for_target(static, vehicle_hierarchy, target)
            b = search_for_target(
                live, vehicle_hierarchy, target, vehicle_distribution
            )
            assert a.returned == b.returned == target
            assert a.queries() == b.queries()

    def test_works_after_reload(self, tmp_path, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        static = _reload(plan, tmp_path)
        for target in vehicle_hierarchy.nodes:
            assert search_for_target(static, None, target).returned == target

    def test_rejects_mismatched_hierarchy(
        self, tmp_path, vehicle_hierarchy, diamond_dag
    ):
        static = _reload(
            compile_policy(GreedyTreePolicy(), vehicle_hierarchy), tmp_path
        )
        with pytest.raises(SearchError, match="does not match"):
            search_for_target(static, diamond_dag, diamond_dag.nodes[0])

    def test_random_graphs(self, tmp_path):
        for seed in range(3):
            h = make_random_tree(25, seed=seed)
            dist = random_distribution(h, seed)
            static = _reload(compile_policy(GreedyTreePolicy(), h, dist), tmp_path)
            for target in h.nodes:
                assert search_for_target(static, h, target).returned == target
