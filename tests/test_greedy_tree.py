"""Unit tests for GreedyTree (Algorithms 4-5, Theorem 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.oracle import ExactOracle
from repro.core.session import search_for_target
from repro.exceptions import HierarchyError
from repro.policies import GreedyNaivePolicy, GreedyTreePolicy

from repro.testing import make_random_tree, random_distribution, replay_compile


class TestBasics:
    def test_requires_tree(self, diamond_dag):
        policy = GreedyTreePolicy()
        with pytest.raises(HierarchyError, match="requires a tree"):
            policy.reset(diamond_dag)

    def test_first_query_is_maxima(self, vehicle_hierarchy, vehicle_distribution):
        """On Fig. 1, the middle point is Maxima (|2*0.4 - 1| = 0.2)."""
        policy = GreedyTreePolicy()
        policy.reset(vehicle_hierarchy, vehicle_distribution)
        assert policy.propose() == "Maxima"

    def test_identifies_every_target(self, vehicle_hierarchy, vehicle_distribution):
        policy = GreedyTreePolicy()
        for target in vehicle_hierarchy.nodes:
            result = search_for_target(
                policy, vehicle_hierarchy, target, vehicle_distribution
            )
            assert result.returned == target

    def test_example2_expected_cost(self, vehicle_hierarchy, vehicle_distribution):
        """The paper's Example 2: average cost 2.04."""
        tree = replay_compile(
            GreedyTreePolicy, vehicle_hierarchy, vehicle_distribution
        )
        assert tree.expected_cost(vehicle_distribution) == pytest.approx(2.04)

    def test_zero_mass_regions_still_searchable(self, vehicle_hierarchy):
        from repro.core.distribution import TargetDistribution

        dist = TargetDistribution({"Maxima": 1.0})
        policy = GreedyTreePolicy()
        for target in vehicle_hierarchy.nodes:
            result = search_for_target(
                policy, vehicle_hierarchy, target, dist
            )
            assert result.returned == target


class TestTheorem5:
    """GreedyTree's heavy-path selection achieves the naive objective."""

    @pytest.mark.parametrize("seed", range(8))
    def test_objective_matches_naive_each_round(self, seed):
        h = make_random_tree(24, seed=seed)
        dist = random_distribution(h, seed)
        gen = np.random.default_rng(seed + 99)
        target = h.label(int(gen.integers(0, h.n)))
        oracle = ExactOracle(h, target)

        fast = GreedyTreePolicy()
        naive = GreedyNaivePolicy()
        fast.reset(h, dist)
        naive.reset(h, dist)
        rounds = 0
        while not fast.done():
            q_fast = fast.propose()
            q_naive = naive.propose()
            # Both choices are middle points: identical objective values.
            assert naive.objective_of(q_fast) == pytest.approx(
                naive.objective_of(q_naive), abs=1e-9
            )
            # Keep the two searches in lockstep on the *same* query.
            answer = oracle.answer(q_fast)
            fast.observe(answer)
            naive._pending = q_fast
            naive.observe(answer)
            rounds += 1
            assert rounds <= h.n

        assert fast.result() == target

    @pytest.mark.parametrize("seed", range(8))
    def test_middle_point_lies_on_weighted_heavy_path(self, seed):
        """Theorem 5 statement, checked directly on the initial tree."""
        h = make_random_tree(30, seed=seed)
        dist = random_distribution(h, seed)
        probs = dist.as_array(h)
        subtree = h.reach_weight_vector(probs)
        # Walk the weighted heavy path from the root.
        heavy_path = [h.root_ix]
        v = h.root_ix
        while h.children_ix(v):
            v = max(h.children_ix(v), key=lambda c: subtree[c])
            heavy_path.append(v)
        # Naive middle point over all non-root nodes.
        total = subtree[h.root_ix]
        best = min(
            (abs(2 * subtree[v] - total), v)
            for v in range(h.n)
            if v != h.root_ix
        )
        path_best = min(
            abs(2 * subtree[v] - total) for v in heavy_path[1:]
        )
        assert path_best == pytest.approx(best[0])


class TestMaintenance:
    @pytest.mark.parametrize("seed", range(5))
    def test_weights_match_recomputation(self, seed):
        """~p stays exact under the path-subtraction updates."""
        h = make_random_tree(20, seed=seed)
        dist = random_distribution(h, seed)
        gen = np.random.default_rng(seed)
        target = h.label(int(gen.integers(0, h.n)))
        oracle = ExactOracle(h, target)
        policy = GreedyTreePolicy()
        policy.reset(h, dist)
        removed: set = set()
        while not policy.done():
            query = policy.propose()
            answer = oracle.answer(query)
            policy.observe(answer)
            if not answer:
                removed |= h.descendants(query)
            # Recompute ~p of the candidate root from scratch.
            root_label = h.label(policy._root)
            alive = h.descendants(root_label) - removed
            expected = sum(dist.p(v) for v in alive)
            assert policy.subtree_weight(root_label) == pytest.approx(expected)

    def test_candidate_count(self, vehicle_hierarchy, vehicle_distribution):
        policy = GreedyTreePolicy()
        policy.reset(vehicle_hierarchy, vehicle_distribution)
        assert policy.candidate_count() == 7
        policy.propose()
        policy.observe(False)  # Maxima is not the target
        assert policy.candidate_count() == 6


class TestVariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_heap_variant_matches_scan(self, seed):
        """Footnote 3: the max-heap child index changes nothing observable."""
        h = make_random_tree(40, seed=seed)
        dist = random_distribution(h, seed)
        for target in h.nodes:
            scan = search_for_target(
                GreedyTreePolicy(), h, target, dist
            )
            heap = search_for_target(
                GreedyTreePolicy(heap_children=True), h, target, dist
            )
            assert scan.queries() == heap.queries()

    def test_rounded_variant_sound(self, vehicle_hierarchy, vehicle_distribution):
        policy = GreedyTreePolicy(rounded=True)
        for target in vehicle_hierarchy.nodes:
            result = search_for_target(
                policy, vehicle_hierarchy, target, vehicle_distribution
            )
            assert result.returned == target
