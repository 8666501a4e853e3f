"""Unit tests for the baseline policies: TopDown, MIGS, WIGS."""

from __future__ import annotations

import math

import pytest

from repro.core.session import search_for_target
from repro.evaluation import worst_case_cost
from repro.policies import MigsPolicy, TopDownPolicy, WigsPolicy
from repro.taxonomy.generators import balanced_tree, path_graph, star_graph

from repro.testing import (
    make_random_dag,
    make_random_tree,
    random_distribution,
    replay_compile,
)


ALL_BASELINES = [TopDownPolicy, MigsPolicy, WigsPolicy]


class TestSoundness:
    @pytest.mark.parametrize("factory", ALL_BASELINES)
    @pytest.mark.parametrize("seed", range(4))
    def test_identifies_every_target_tree(self, factory, seed):
        h = make_random_tree(20, seed=seed)
        policy = factory()
        for target in h.nodes:
            assert search_for_target(policy, h, target).returned == target

    @pytest.mark.parametrize("factory", ALL_BASELINES)
    @pytest.mark.parametrize("seed", range(4))
    def test_identifies_every_target_dag(self, factory, seed):
        h = make_random_dag(20, seed=seed)
        policy = factory()
        for target in h.nodes:
            assert search_for_target(policy, h, target).returned == target


class TestTopDown:
    def test_path_graph_costs_depth_plus_one(self):
        """On a path, TopDown asks one question per level."""
        h = path_graph(8)
        policy = TopDownPolicy()
        for i in range(8):
            result = search_for_target(policy, h, f"p{i}")
            # One yes per level down, plus the final no at the child (except
            # at the deepest leaf which has no child to probe).
            expected = i + 1 if i < 7 else 7
            assert result.num_queries == expected

    def test_star_graph_worst_case_is_linear(self):
        h = star_graph(10)
        assert worst_case_cost(TopDownPolicy(), h) == 9

    def test_probe_order_is_label_hash_not_storage(self):
        h = star_graph(10)
        policy = TopDownPolicy()
        policy.reset(h)
        order = []
        while not policy.done():
            q = policy.propose()
            order.append(q)
            policy.observe(False)
        assert set(order) == {f"s{i}" for i in range(1, 10)}
        assert order != [f"s{i}" for i in range(1, 10)]  # neutralised order


class TestMigs:
    def test_cost_counts_choices_read(self):
        """A 'none of these' level charges the full choice list."""
        h = star_graph(6)  # root with 5 children
        result = search_for_target(MigsPolicy(), h, "s0")
        assert result.num_queries == 5  # read all choices, answer "none"

    def test_comparable_to_topdown_in_expectation(self):
        h = make_random_tree(60, seed=9)
        dist = random_distribution(h, 9)
        migs = replay_compile(MigsPolicy, h, dist).expected_cost(dist)
        topdown = replay_compile(TopDownPolicy, h, dist).expected_cost(dist)
        assert migs == pytest.approx(topdown, rel=0.35)

    def test_order_differs_from_topdown(self):
        h = star_graph(12)
        migs, topdown = MigsPolicy(), TopDownPolicy()
        migs.reset(h)
        topdown.reset(h)
        assert migs.propose() != topdown.propose()


class TestWigs:
    def test_balanced_tree_near_log(self):
        """Heavy-path binary search stays within a small factor of log2 n."""
        h = balanced_tree(2, 5)  # 63 nodes
        worst = worst_case_cost(WigsPolicy(), h)
        assert worst <= 3 * math.ceil(math.log2(h.n))

    def test_beats_topdown_worst_case_on_paths(self):
        h = path_graph(32)
        wigs = worst_case_cost(WigsPolicy(), h)
        topdown = worst_case_cost(TopDownPolicy(), h)
        assert wigs <= math.ceil(math.log2(32)) + 1
        assert wigs < topdown

    def test_ignores_distribution(self):
        """WIGS makes the same decisions whatever the distribution."""
        h = make_random_tree(25, seed=2)
        d1 = random_distribution(h, 1)
        d2 = random_distribution(h, 2)
        for target in h.nodes:
            r1 = search_for_target(WigsPolicy(), h, target, d1)
            r2 = search_for_target(WigsPolicy(), h, target, d2)
            assert r1.queries() == r2.queries()

    def test_decision_tree_validates_on_dag(self):
        h = make_random_dag(18, seed=4)
        replay_compile(WigsPolicy, h).validate()

    @pytest.mark.parametrize("seed", range(4))
    def test_worst_case_not_catastrophic_on_random_trees(self, seed):
        h = make_random_tree(40, seed=seed)
        worst = worst_case_cost(WigsPolicy(), h)
        # Tao et al.'s bound is O(log n) per heavy-path segment; allow a
        # generous constant here — the point is to rule out linear blowups.
        assert worst <= 4 * math.ceil(math.log2(h.n)) + h.height
