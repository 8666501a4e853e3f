"""Tests for the compile/execute split (:mod:`repro.plan`).

The headline contract: for every registry policy, on tree and DAG fixtures,
executing the compiled plan through a cursor matches legacy ``run_search``
*exactly* — returned node, query count, total price, and the full
transcript — for every target.  Persistence must round-trip plans
losslessly and refuse corrupt files typed, and the configuration key must
match on identical configurations and differ on any changed ingredient.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costs import TableCost, UnitCost, random_costs
from repro.core.distribution import TargetDistribution
from repro.core.oracle import ExactOracle
from repro.core.session import run_search, search_for_target
from repro.engine import simulate_all_targets
from repro.exceptions import (
    BudgetExceededError,
    PlanError,
    PolicyError,
    SanitizerError,
    SearchError,
)
from repro.plan import (
    CompiledPlan,
    LazyPlan,
    compile_policy,
    plan_key,
)
from repro.policies import (
    GreedyDagPolicy,
    GreedyTreePolicy,
    TopDownPolicy,
    WigsPolicy,
    available_policies,
    make_policy,
)
from repro.taxonomy import amazon_like
from repro.testing import (
    make_random_dag,
    make_random_tree,
    random_distribution,
    vehicle_distribution,
    vehicle_hierarchy,
)

TREE_ONLY = {"greedy-tree"}

#: Undo-capable DAG policies: a LazyPlan backtracks them between sessions.
LAZY_DAG_POLICIES = {
    "GreedyDAG": GreedyDagPolicy,
    "GreedyDAG(raw)": lambda: GreedyDagPolicy(rounded=False),
    "WIGS": WigsPolicy,
}


def _assert_run_search_parity(executor, policy, hierarchy, distribution,
                              cost_model=None):
    """Plan execution must equal legacy run_search, target by target."""
    for target in hierarchy.nodes:
        reference = run_search(
            policy,
            ExactOracle(hierarchy, target),
            hierarchy,
            distribution,
            cost_model,
        )
        served = run_search(
            executor, ExactOracle(hierarchy, target), cost_model=cost_model
        )
        assert served.returned == reference.returned == target
        assert served.num_queries == reference.num_queries
        assert served.total_price == pytest.approx(
            reference.total_price, abs=1e-12
        )
        assert served.transcript == reference.transcript


class TestCompileParity:
    """Acceptance: CompiledPlan matches legacy run_search exactly."""

    @pytest.mark.parametrize("name", available_policies())
    def test_tree(self, name):
        hierarchy = make_random_tree(28, seed=11)
        distribution = random_distribution(hierarchy, 11)
        plan = compile_policy(make_policy(name), hierarchy, distribution)
        _assert_run_search_parity(
            plan, make_policy(name), hierarchy, distribution
        )

    @pytest.mark.parametrize(
        "name", [n for n in available_policies() if n not in TREE_ONLY]
    )
    def test_dag(self, name):
        hierarchy = make_random_dag(24, seed=12)
        distribution = random_distribution(hierarchy, 12)
        plan = compile_policy(make_policy(name), hierarchy, distribution)
        _assert_run_search_parity(
            plan, make_policy(name), hierarchy, distribution
        )

    @pytest.mark.parametrize("name", ["greedy-tree", "cost-greedy"])
    def test_heterogeneous_prices(self, name):
        hierarchy = make_random_tree(22, seed=13)
        distribution = random_distribution(hierarchy, 13)
        costs = random_costs(hierarchy, np.random.default_rng(13))
        plan = compile_policy(
            make_policy(name), hierarchy, distribution, costs
        )
        _assert_run_search_parity(
            plan, make_policy(name), hierarchy, distribution, costs
        )

    def test_plan_drives_search_for_target(self):
        hierarchy = make_random_tree(15, seed=14)
        distribution = random_distribution(hierarchy, 14)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        # hierarchy defaults to the plan's own.
        result = search_for_target(plan, target=hierarchy.nodes[-1])
        assert result.returned == hierarchy.nodes[-1]

    def test_run_search_rejects_stale_plan(self):
        from repro.core.hierarchy import Hierarchy
        from repro.exceptions import SearchError

        old = Hierarchy([("r", "a"), ("r", "b"), ("a", "c")])
        new = Hierarchy([("r", "a"), ("r", "b"), ("b", "c")])  # re-parented
        plan = compile_policy(
            GreedyTreePolicy(), old, random_distribution(old, 1)
        )
        with pytest.raises(SearchError, match="stale plan"):
            search_for_target(plan, new, target="c")

    def test_structure_counts(self, vehicle_hierarchy, vehicle_distribution):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        # One leaf per target, binary questions => n - 1 internal nodes.
        assert plan.num_leaves == vehicle_hierarchy.n
        assert plan.num_questions == vehicle_hierarchy.n - 1
        assert plan.expected_cost(vehicle_distribution) == pytest.approx(2.04)
        plan.validate()

    def test_as_decision_tree_matches(
        self, vehicle_hierarchy, vehicle_distribution
    ):
        from repro.core.decision_tree import build_decision_tree

        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        tree = plan.as_decision_tree()
        reference = build_decision_tree(
            GreedyTreePolicy, vehicle_hierarchy, vehicle_distribution
        )
        assert tree.leaf_depths() == reference.leaf_depths()
        assert tree.leaf_prices(UnitCost()) == reference.leaf_prices(
            UnitCost()
        )


class TestSearchCursor:
    @pytest.fixture
    def plan(self, vehicle_hierarchy, vehicle_distribution):
        return compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )

    def test_propose_idempotent(self, plan):
        cursor = plan.start()
        assert cursor.propose() == cursor.propose()

    def test_undo_is_exact_and_free(self, plan):
        cursor = plan.start()
        first = cursor.propose()
        cursor.observe(False)
        second = cursor.propose()
        cursor.undo()
        assert cursor.propose() == first
        cursor.observe(False)  # re-observing lands in the identical state
        assert cursor.propose() == second
        cursor.undo()
        cursor.observe(True)  # the sibling branch is reachable after undo
        assert cursor.num_queries == 1

    def test_undo_at_root_raises(self, plan):
        with pytest.raises(PolicyError, match="undo"):
            plan.start().undo()

    def test_result_before_done_raises(self, plan):
        with pytest.raises(PolicyError, match="not finished"):
            plan.start().result()

    def test_propose_after_done_raises(self, plan, vehicle_hierarchy):
        oracle = ExactOracle(vehicle_hierarchy, "Maxima")
        cursor = plan.start()
        while not cursor.done():
            cursor.observe(oracle.answer(cursor.propose()))
        assert cursor.result() == "Maxima"
        with pytest.raises(PolicyError):
            cursor.propose()
        with pytest.raises(PolicyError):
            cursor.observe(True)

    def test_sessions_are_independent(self, plan, vehicle_hierarchy):
        """Concurrent cursors over one shared plan do not interfere."""
        oracles = [
            ExactOracle(vehicle_hierarchy, t) for t in vehicle_hierarchy.nodes
        ]
        cursors = [plan.start() for _ in oracles]
        # Interleave all sessions round-robin until each finishes.
        live = list(zip(cursors, oracles))
        while live:
            still = []
            for cursor, oracle in live:
                cursor.observe(oracle.answer(cursor.propose()))
                if not cursor.done():
                    still.append((cursor, oracle))
            live = still
        for cursor, oracle in zip(cursors, oracles):
            assert cursor.result() == oracle.target


class TestImmutability:
    def test_attributes_frozen(self, vehicle_hierarchy, vehicle_distribution):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        with pytest.raises(PlanError, match="immutable"):
            plan.policy_name = "other"

    def test_arrays_read_only(self, vehicle_hierarchy, vehicle_distribution):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        with pytest.raises(ValueError):
            plan.query_ix[0] = 5


class TestPersistence:
    @pytest.mark.parametrize("builder", ["tree", "dag"])
    def test_save_load_round_trip(self, tmp_path, builder):
        if builder == "tree":
            hierarchy = make_random_tree(20, seed=21)
        else:
            hierarchy = make_random_dag(20, seed=21)
        distribution = random_distribution(hierarchy, 21)
        policy = make_policy("greedy-dag" if builder == "dag" else "greedy-tree")
        plan = compile_policy(policy, hierarchy, distribution)
        path = tmp_path / f"{builder}.plan"
        plan.save(path)
        loaded = CompiledPlan.load(path)
        assert loaded.config_key == plan.config_key
        assert loaded.policy_name == plan.policy_name
        assert np.array_equal(loaded.query_ix, plan.query_ix)
        assert np.array_equal(loaded.yes_child, plan.yes_child)
        assert np.array_equal(loaded.no_child, plan.no_child)
        assert np.array_equal(loaded.target_ix, plan.target_ix)
        assert loaded.hierarchy.nodes == hierarchy.nodes
        # The reloaded plan serves searches identically.
        _assert_run_search_parity(
            loaded,
            make_policy("greedy-dag" if builder == "dag" else "greedy-tree"),
            hierarchy,
            distribution,
        )

    def test_pickle_round_trip(self, vehicle_hierarchy, vehicle_distribution):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert np.array_equal(clone.query_ix, plan.query_ix)
        # Pickling preserves the read-only flag on the arrays.
        with pytest.raises(ValueError):
            clone.query_ix[0] = 5

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(PlanError, match="cannot read"):
            CompiledPlan.load(tmp_path / "nope.plan")

    def test_load_corrupt_file(self, tmp_path):
        path = tmp_path / "corrupt.plan"
        path.write_bytes(b"this is not a pickle at all")
        with pytest.raises(PlanError, match="corrupt"):
            CompiledPlan.load(path)

    def test_load_foreign_pickle(self, tmp_path):
        path = tmp_path / "foreign.plan"
        path.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(PlanError, match="not a compiled-plan file"):
            CompiledPlan.load(path)


class TestPlanIds:
    """Out-of-range ids are refused where a plan is made, typed.

    Unchecked, a child id past the end surfaced later as an untyped
    ``IndexError`` (engine, cursor, ``Server``), and a negative query id
    was silently wrapped by numpy.
    """

    @staticmethod
    def _plan():
        hierarchy = make_random_tree(12, seed=4)
        return compile_policy(
            GreedyTreePolicy(), hierarchy, random_distribution(hierarchy, 4)
        )

    @classmethod
    def _defects(cls):
        """(array name, edit) pairs, one per rule the arrays must obey."""
        plan = cls._plan()
        question = int(np.flatnonzero(plan.query_ix >= 0)[0])
        leaf = int(np.flatnonzero(plan.target_ix >= 0)[0])
        n, nodes = plan.hierarchy.n, plan.num_nodes
        return plan, {
            "child past the end": ("yes_child", question, nodes + 5),
            "child below NO_PATH": ("no_child", question, -3),
            "negative query id": ("query_ix", question, -3),
            "query id past the hierarchy": ("query_ix", question, n),
            "target id past the hierarchy": ("target_ix", leaf, n + 1),
            "leaf that also asks": ("query_ix", leaf, 0),
            "question with neither": ("query_ix", question, -1),
        }

    @staticmethod
    def _arrays(plan, name, node, value):
        arrays = {
            "query_ix": plan.query_ix.copy(),
            "yes_child": plan.yes_child.copy(),
            "no_child": plan.no_child.copy(),
            "target_ix": plan.target_ix.copy(),
        }
        arrays[name][node] = value
        return arrays

    def test_constructor_refuses_bad_ids(self):
        plan, defects = self._defects()
        for what, (name, node, value) in defects.items():
            with pytest.raises(PlanError, match=f"plan node {node} "):
                CompiledPlan(
                    plan.hierarchy,
                    **self._arrays(plan, name, node, value),
                    policy_name="Broken",
                    config_key="",
                )

    def _saved_with(self, path, plan, name, node, value):
        """Write a plan file holding bad arrays (bypassing __init__)."""
        broken = object.__new__(CompiledPlan)
        state = plan.__getstate__()
        slot = {"query_ix": "_query", "yes_child": "_yes",
                "no_child": "_no", "target_ix": "_target"}[name]
        state[slot] = self._arrays(plan, name, node, value)[name]
        for key, arr in state.items():
            object.__setattr__(broken, key, arr)
        broken.save(path)

    def test_load_refuses_bad_ids(self, tmp_path):
        plan, defects = self._defects()
        for i, (name, node, value) in enumerate(defects.values()):
            path = tmp_path / f"broken{i}.plan"
            self._saved_with(path, plan, name, node, value)
            with pytest.raises(PlanError, match=f"plan node {node} "):
                CompiledPlan.load(path)
            with pytest.raises(PlanError, match=f"plan node {node} "):
                pickle.loads(path.read_bytes())


class TestPlanKey:
    def test_stable_for_identical_config(self, vehicle_hierarchy):
        d1 = vehicle_distribution()
        d2 = vehicle_distribution()
        assert plan_key(
            GreedyTreePolicy(), vehicle_hierarchy, d1
        ) == plan_key(GreedyTreePolicy(), vehicle_hierarchy, d2)

    def test_changes_with_each_ingredient(self, vehicle_hierarchy):
        dist = vehicle_distribution()
        base = plan_key(GreedyTreePolicy(), vehicle_hierarchy, dist)
        other_dist = random_distribution(vehicle_hierarchy, 5)
        assert plan_key(
            GreedyTreePolicy(), vehicle_hierarchy, other_dist
        ) != base
        priced = TableCost(
            {node: 2.0 for node in vehicle_hierarchy.nodes}
        )
        assert plan_key(
            GreedyTreePolicy(), vehicle_hierarchy, dist, priced
        ) != base
        assert plan_key(
            GreedyTreePolicy(rounded=True), vehicle_hierarchy, dist
        ) != base
        other_h = make_random_tree(7, seed=3)
        assert plan_key(
            GreedyTreePolicy(), other_h, random_distribution(other_h, 1)
        ) != base

    def test_default_distribution_matches_equal(self, vehicle_hierarchy):
        from repro.core.distribution import TargetDistribution

        equal = TargetDistribution.equal(vehicle_hierarchy)
        assert plan_key(GreedyTreePolicy(), vehicle_hierarchy) == plan_key(
            GreedyTreePolicy(), vehicle_hierarchy, equal
        )

    def test_random_seed_in_key(self, vehicle_hierarchy):
        dist = vehicle_distribution()
        assert plan_key(
            make_policy("random", seed=1), vehicle_hierarchy, dist
        ) != plan_key(make_policy("random", seed=2), vehicle_hierarchy, dist)

    def test_heap_children_in_key(self, vehicle_hierarchy):
        # The heap variant can break weight ties differently, so it must
        # not share a key with the plain child scan.
        dist = vehicle_distribution()
        assert plan_key(
            GreedyTreePolicy(heap_children=True), vehicle_hierarchy, dist
        ) != plan_key(GreedyTreePolicy(), vehicle_hierarchy, dist)


class TestEngineOnPlans:
    def test_plan_equals_policy_path(self, vehicle_hierarchy, vehicle_distribution):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        via_plan = simulate_all_targets(plan)
        via_policy = simulate_all_targets(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        assert via_plan.method == via_policy.method == "plan"
        assert np.array_equal(via_plan.queries, via_policy.queries)
        assert np.array_equal(
            via_plan.prices[via_plan.target_ix],
            via_policy.prices[via_policy.target_ix],
        )

    def test_restricted_targets_prune_plan_walk(
        self, vehicle_hierarchy, vehicle_distribution
    ):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        engine = simulate_all_targets(plan, targets=["Maxima", "Sentra"])
        assert engine.num_targets == 2
        # Only the questions on the two root-to-leaf paths are visited.
        assert engine.decision_nodes < plan.num_questions

    def test_mismatched_hierarchy_rejected(self, vehicle_hierarchy,
                                           vehicle_distribution):
        from repro.core.hierarchy import Hierarchy
        from repro.exceptions import SearchError

        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        other = make_random_tree(9, seed=2)
        with pytest.raises(SearchError, match="node indexing"):
            simulate_all_targets(plan, other)
        # Same labels, different edges must be rejected too.
        relabeled = Hierarchy(
            [
                ("Vehicle", "Car"),
                ("Car", "Nissan"),
                ("Car", "Honda"),
                ("Vehicle", "Mercedes"),  # re-parented vs the original
                ("Nissan", "Maxima"),
                ("Nissan", "Sentra"),
            ]
        )
        with pytest.raises(SearchError, match="node indexing"):
            simulate_all_targets(plan, relabeled)

    def test_restricted_targets_skip_compilation(self):
        """A sampled evaluation walks only what the sample reaches and
        settles each target at its leaf."""
        _assert_compiles_only_reached(slice(5, 9))

    def test_large_uncached_sample_skips_compilation(self):
        """So does a sample of half the targets (20 of 40, height 9)."""
        _assert_compiles_only_reached(slice(None, None, 2))

    def test_sample_budget_below_plan_depth(self):
        """A budget that covers the sample but not the whole plan holds for
        the sample, as it does on the plan and per target."""
        hierarchy, distribution, plan, sample, deepest = _budget_case()
        assert deepest < _plan_depth(plan)
        engine = simulate_all_targets(
            TopDownPolicy(), hierarchy, distribution, targets=sample,
            max_queries=deepest, result_cache=False,
        )
        via_plan = simulate_all_targets(
            plan, targets=sample, max_queries=deepest, result_cache=False
        )
        assert np.array_equal(engine.queries, via_plan.queries)
        assert engine.prices.tobytes() == via_plan.prices.tobytes()
        for target in sample:
            single = run_search(
                TopDownPolicy(), ExactOracle(hierarchy, target), hierarchy,
                distribution, max_queries=deepest,
            )
            assert engine.query_count(target) == single.num_queries
            assert engine.total_price(target) == single.total_price

    def test_unsampled_leaves_go_unchecked(self):
        """A sampled evaluation checks the leaves its targets reach, not a
        wrong leaf of a target it was not asked about."""
        hierarchy = amazon_like(300, seed=1)
        distribution = TargetDistribution.equal(hierarchy)
        others = [node for node in hierarchy.nodes if node != "a299"]
        picks = np.random.default_rng(5).choice(len(others), 47, replace=False)
        sample = [others[int(ix)] for ix in picks]
        engine = simulate_all_targets(
            MislabelsA299(), hierarchy, distribution, targets=sample,
            result_cache=False,
        )
        for target in sample:
            single = run_search(
                MislabelsA299(), ExactOracle(hierarchy, target), hierarchy,
                distribution,
            )
            assert single.returned == target
            assert engine.query_count(target) == single.num_queries
        with pytest.raises(SearchError, match="'a0' for target 'a299'"):
            simulate_all_targets(
                MislabelsA299(), hierarchy, distribution, result_cache=False
            )

    def test_all_targets_budget_below_plan_depth(self):
        """All targets of a policy under a budget one below its plan's
        depth raise the descent's error, not the compile's: compiles keep
        their own ``2 n + 10`` bound and the descent applies the budget."""
        hierarchy, distribution, plan, _, _ = _budget_case()
        with pytest.raises(BudgetExceededError, match="plan walk"):
            simulate_all_targets(
                TopDownPolicy(), hierarchy, distribution,
                max_queries=_plan_depth(plan) - 1, result_cache=False,
            )


def _assert_compiles_only_reached(picks: slice) -> None:
    """Evaluate ``nodes[picks]`` of a 40-node tree (height 9)."""
    hierarchy = make_random_tree(40, seed=41)
    distribution = random_distribution(hierarchy, 41)
    sample = list(hierarchy.nodes[picks])
    CountingGreedy.calls = 0
    engine = simulate_all_targets(
        CountingGreedy(), hierarchy, distribution, targets=sample
    )
    assert engine.method == "vector"
    plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
    full = simulate_all_targets(plan, targets=sample)
    assert engine.decision_nodes == full.decision_nodes  # same pruning
    # The policy was asked only at the questions the sample reaches.
    assert CountingGreedy.calls == engine.decision_nodes
    assert engine.decision_nodes < plan.num_questions
    for target in sample:
        assert engine.query_count(target) == full.query_count(target)


def _budget_case():
    """TopDown on a 300-node tree of height 7 and its 47 shallowest targets.

    Their deepest leaf (13 questions) is shallower than the plan's (42).
    Returns the hierarchy, distribution, full plan, sample and the
    sample's deepest leaf.
    """
    hierarchy = amazon_like(300, seed=1)
    distribution = TargetDistribution.equal(hierarchy)
    plan = compile_policy(TopDownPolicy(), hierarchy, distribution)
    depth = simulate_all_targets(plan, result_cache=False).queries
    shallow = np.argsort(depth, kind="stable")[:47]
    sample = [hierarchy.label(int(ix)) for ix in shallow]
    return hierarchy, distribution, plan, sample, int(depth[shallow].max())


def _plan_depth(plan) -> int:
    return int(simulate_all_targets(plan, result_cache=False).worst_case())


class MislabelsA299(GreedyTreePolicy):
    """Greedy tree policy that reports ``'a0'`` when its search ends at
    ``'a299'`` (a wrong leaf for one target)."""

    def result(self):
        found = super().result()
        return "a0" if found == "a299" else found


class CountingGreedy(GreedyTreePolicy):
    """Greedy tree policy counting how often it actually thinks."""

    calls = 0

    def _select_query(self):
        type(self).calls += 1
        return super()._select_query()


def _observe_counting(base):
    """``base`` with an ``observe`` override that counts, then delegates."""

    class ObserveCounting(base):
        observed = 0

        def observe(self, answer):
            type(self).observed += 1
            super().observe(answer)

        def fingerprint(self):
            # Counting changes no decision, so the base's key holds.
            return base().fingerprint()

    return ObserveCounting


class TestPublicPathFallback:
    """A class that overrides ``observe`` is walked through the public
    methods; it must compile and evaluate exactly as its base class,
    which the walk drives through the hooks directly."""

    @pytest.mark.parametrize(
        "base, kind", [(GreedyTreePolicy, "tree"), (GreedyDagPolicy, "dag")]
    )
    def test_override_agrees_with_direct_walk(self, base, kind):
        if kind == "tree":
            hierarchy = make_random_tree(60, seed=51)
        else:
            hierarchy = make_random_dag(60, seed=51)
        distribution = random_distribution(hierarchy, 51)
        counting = _observe_counting(base)

        direct = compile_policy(base(), hierarchy, distribution)
        counting.observed = 0
        public = compile_policy(counting(), hierarchy, distribution)
        for name in ("query_ix", "yes_child", "no_child", "target_ix"):
            assert np.array_equal(getattr(public, name), getattr(direct, name))
        assert public.config_key == direct.config_key
        # One answer enters each plan node but the root.
        assert counting.observed == direct.num_nodes - 1

        prices = random_costs(hierarchy, np.random.default_rng(51))
        sample = list(hierarchy.nodes[::3])
        expected = simulate_all_targets(
            base(), hierarchy, distribution, prices, targets=sample,
            result_cache=False,
        )
        counting.observed = 0
        got = simulate_all_targets(
            counting(), hierarchy, distribution, prices, targets=sample,
            result_cache=False,
        )
        assert got.method == expected.method == "vector"
        assert got.policy == expected.policy
        assert got.decision_nodes == expected.decision_nodes
        assert np.array_equal(got.target_ix, expected.target_ix)
        assert np.array_equal(got.queries, expected.queries)
        assert got.prices.tobytes() == expected.prices.tobytes()
        # The sampled walk's edges: one per question, one per sampled
        # target's leaf, less the root.
        assert counting.observed == got.decision_nodes + len(sample) - 1


class TestLazyPlan:
    def test_serving_parity(self):
        hierarchy = make_random_tree(25, seed=31)
        distribution = random_distribution(hierarchy, 31)
        lazy = LazyPlan(GreedyTreePolicy(), hierarchy, distribution)
        _assert_run_search_parity(
            lazy, GreedyTreePolicy(), hierarchy, distribution
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
        extra=st.integers(min_value=1, max_value=30),
        zeros=st.booleans(),
        kind=st.sampled_from(sorted(LAZY_DAG_POLICIES)),
        order=st.randoms(use_true_random=False),
    )
    def test_serving_parity_on_dags(self, n, seed, extra, zeros, kind, order):
        """Shuffled targets make the cursors jump between branches, so the
        plan undoes *yes* answers and removals between sessions."""
        hierarchy = make_random_dag(n, seed, extra=extra)
        distribution = random_distribution(hierarchy, seed, zeros=zeros)
        factory = LAZY_DAG_POLICIES[kind]
        lazy = LazyPlan(factory(), hierarchy, distribution)
        targets = list(hierarchy.nodes)
        order.shuffle(targets)
        for target in targets:
            reference = run_search(
                factory(), ExactOracle(hierarchy, target), hierarchy, distribution
            )
            served = run_search(lazy, ExactOracle(hierarchy, target))
            assert served.returned == reference.returned == target
            assert served.transcript == reference.transcript

    def test_sanitizer_checks_undo_on_the_online_path(self, monkeypatch):
        import repro.policies.greedy_dag as greedy_dag_module
        from repro.online import simulate_online_labeling
        from repro.policies.greedy_dag import restore_subgraph

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        hierarchy = make_random_dag(60, 3)
        stream = [hierarchy.label(int(v)) for v in np.random.default_rng(3).permutation(60)]
        simulate_online_labeling(
            GreedyDagPolicy(), hierarchy, stream, block_size=20, refresh_every=5
        )

        def restore_all_but_one(alive, values, removal):
            removed, touched, old = removal
            restore_subgraph(alive, values, (removed, touched[1:], old[1:]))

        monkeypatch.setattr(greedy_dag_module, "restore_subgraph", restore_all_but_one)
        with pytest.raises(SanitizerError, match="_tilde"):
            simulate_online_labeling(
                GreedyDagPolicy(), hierarchy, stream, block_size=20, refresh_every=5
            )

    def test_repeated_paths_need_no_policy_work(self):
        hierarchy = make_random_tree(30, seed=32)
        distribution = random_distribution(hierarchy, 32)
        CountingGreedy.calls = 0
        lazy = LazyPlan(CountingGreedy(), hierarchy, distribution)
        target = hierarchy.nodes[17]
        run_search(lazy, ExactOracle(hierarchy, target))
        first_pass = CountingGreedy.calls
        assert first_pass > 0
        for _ in range(5):
            run_search(lazy, ExactOracle(hierarchy, target))
        assert CountingGreedy.calls == first_pass  # memoized: zero new work

    def test_undo_for_policies_without_native_undo(self):
        from repro.testing import ForcedReplayPolicy

        hierarchy = make_random_tree(12, seed=33)
        distribution = random_distribution(hierarchy, 33)
        lazy = LazyPlan(ForcedReplayPolicy(seed=7), hierarchy, distribution)
        cursor = lazy.start()
        first = cursor.propose()
        cursor.observe(True)
        cursor.undo()
        assert cursor.propose() == first
        cursor.observe(False)  # sibling branch expands after backtracking
        assert cursor.num_queries == 1

    def test_online_hands_policy_back_clean(self):
        """The serving loops must not leave journaling on the policy."""
        from repro.online import simulate_online_labeling

        hierarchy = make_random_tree(15, seed=34)
        policy = GreedyTreePolicy()
        stream = [hierarchy.nodes[3]] * 8
        simulate_online_labeling(policy, hierarchy, stream, block_size=4)
        assert not policy._undo_enabled
        assert policy._undo_log == []
