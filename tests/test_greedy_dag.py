"""Unit tests for GreedyDAG (Algorithms 6-7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.oracle import ExactOracle
from repro.core.session import search_for_target
from repro.policies import GreedyDagPolicy, GreedyNaivePolicy

from repro.testing import make_random_dag, random_distribution


class TestBasics:
    def test_identifies_every_target_on_dag(self, diamond_dag):
        policy = GreedyDagPolicy()
        for target in diamond_dag.nodes:
            result = search_for_target(policy, diamond_dag, target)
            assert result.returned == target

    def test_works_on_trees_too(self, vehicle_hierarchy, vehicle_distribution):
        policy = GreedyDagPolicy()
        for target in vehicle_hierarchy.nodes:
            result = search_for_target(
                policy, vehicle_hierarchy, target, vehicle_distribution
            )
            assert result.returned == target

    @pytest.mark.parametrize("seed", range(6))
    def test_soundness_random_dags(self, seed):
        h = make_random_dag(22, seed=seed)
        dist = random_distribution(h, seed)
        policy = GreedyDagPolicy()
        for target in h.nodes:
            result = search_for_target(policy, h, target, dist)
            assert result.returned == target

    def test_static_cache_reused_across_resets(self, diamond_dag):
        dist = random_distribution(diamond_dag, 0)
        policy = GreedyDagPolicy()
        policy.reset(diamond_dag, dist)
        cache_first = policy._static_cache
        policy.reset(diamond_dag, dist)
        assert policy._static_cache is cache_first


class TestMaintenance:
    """Algorithm 7 keeps every maintained weight exact."""

    @pytest.mark.parametrize("seed", range(6))
    def test_weights_match_recomputation_after_every_answer(self, seed):
        h = make_random_dag(20, seed=seed)
        dist = random_distribution(h, seed)
        gen = np.random.default_rng(seed + 5)
        target = h.label(int(gen.integers(0, h.n)))
        oracle = ExactOracle(h, target)
        policy = GreedyDagPolicy()
        policy.reset(h, dist)
        while not policy.done():
            query = policy.propose()
            policy.observe(oracle.answer(query))
            # Every candidate's maintained weight equals the weight of its
            # alive reachable set, recomputed from scratch.  Rounded
            # weights are integers of at most n^2 whose sums stay below
            # 2^53, so both sides are exact in any order.
            for node in h.nodes:
                if policy.is_candidate(node):
                    assert policy.maintained_weight(node) == policy.recomputed_weight(node)
        assert policy.result() == target

    def test_candidates_exclude_what_a_yes_answer_excluded(self):
        h = Hierarchy(
            [("r", "a"), ("r", "b"), ("a", "a1"), ("a", "a2"), ("a", "x"),
             ("b", "b1"), ("b", "b2"), ("b", "x")]
        )
        oracle = ExactOracle(h, "a1")
        policy = GreedyDagPolicy()
        policy.reset(h, TargetDistribution.equal(h))
        assert policy.propose() == "a"
        policy.observe(oracle.answer("a"))
        candidates = {node for node in h.nodes if policy.is_candidate(node)}
        assert candidates == {"a", "a1", "a2", "x"}


class TestGreedyObjective:
    """The pruned BFS finds a true middle point (vs. exhaustive naive)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_objective_matches_naive_each_round(self, seed):
        h = make_random_dag(18, seed=seed)
        dist = random_distribution(h, seed)
        gen = np.random.default_rng(seed + 17)
        target = h.label(int(gen.integers(0, h.n)))
        oracle = ExactOracle(h, target)

        fast = GreedyDagPolicy(rounded=True)
        naive = GreedyNaivePolicy(rounded=True)
        fast.reset(h, dist)
        naive.reset(h, dist)
        while not fast.done():
            q_fast = fast.propose()
            q_naive = naive.propose()
            assert naive.objective_of(q_fast) == pytest.approx(
                naive.objective_of(q_naive), abs=1e-9
            )
            answer = oracle.answer(q_fast)
            fast.observe(answer)
            naive._pending = q_fast
            naive.observe(answer)
        assert fast.result() == target

    def test_raw_variant_sound(self, diamond_dag):
        dist = random_distribution(diamond_dag, 3)
        policy = GreedyDagPolicy(rounded=False)
        for target in diamond_dag.nodes:
            result = search_for_target(policy, diamond_dag, target, dist)
            assert result.returned == target
