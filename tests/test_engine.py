"""Tests for the vectorized multi-session simulation engine.

The contract under test: :func:`repro.engine.simulate_all_targets` produces
*exactly* the query counts and total prices of the per-target ``run_search``
loop — for every registry policy, on the Fig. 1 vehicle hierarchy, random
trees, and random DAGs — while proposing at each decision point only once
for policies with native undo support (compiled to a plan and walked on
flat arrays).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import UnitCost, random_costs
from repro.core.decision_tree import build_decision_tree
from repro.core.oracle import ExactOracle
from repro.core.session import run_search
from repro.engine import (
    VectorPolicy,
    is_vector_policy,
    simulate_all_targets,
    simulate_policies,
)
from repro.exceptions import PolicyError, SearchError
from repro.policies import (
    GreedyTreePolicy,
    StaticTreePolicy,
    available_policies,
    make_policy,
)
from repro.testing import (
    make_random_dag,
    make_random_tree,
    random_distribution,
)

#: Policies that must take the one-pass compiled-plan walk.  Every registry
#: policy journals exact undo now — the seeded random baseline snapshots its
#: generator state alongside the candidate-graph journal — so the whole
#: registry compiles via the fast undo-DFS; the transcript-replay fallback
#: is covered by ``repro.testing.ForcedReplayPolicy`` below.
PLAN_POLICIES = (
    "topdown",
    "random",
    "migs",
    "wigs",
    "greedy-tree",
    "greedy-dag",
    "greedy-naive",
    "cost-greedy",
)

TREE_ONLY = {"greedy-tree"}


def _assert_parity(policy, hierarchy, distribution, cost_model=None):
    """Engine arrays must equal per-target run_search, target by target."""
    engine = simulate_all_targets(policy, hierarchy, distribution, cost_model)
    for target in hierarchy.nodes:
        reference = run_search(
            policy,
            ExactOracle(hierarchy, target),
            hierarchy,
            distribution,
            cost_model,
        )
        assert engine.query_count(target) == reference.num_queries, (
            policy.name,
            target,
        )
        assert engine.total_price(target) == pytest.approx(
            reference.total_price, abs=1e-12
        )
    return engine


class TestRegistryParityVehicle:
    @pytest.mark.parametrize("name", available_policies())
    def test_vehicle(self, name, vehicle_hierarchy, vehicle_distribution):
        policy = make_policy(name)
        engine = _assert_parity(
            policy, vehicle_hierarchy, vehicle_distribution
        )
        expected = "plan" if name in PLAN_POLICIES else "replay"
        assert engine.method == expected


class TestForcedReplayFallback:
    """The transcript-replay adapter stays alive even though no registry
    policy needs it anymore (all journal exact undo, Random included)."""

    @pytest.mark.parametrize("seed", range(2))
    def test_forced_replay_matches_undo_path(self, seed):
        from repro.testing import ForcedReplayPolicy
        from repro.policies import RandomPolicy

        hierarchy = make_random_tree(30, seed=seed)
        distribution = random_distribution(hierarchy, seed)
        replayed = _assert_parity(
            ForcedReplayPolicy(seed=seed), hierarchy, distribution
        )
        assert replayed.method == "replay"
        # Same decisions as the undo-journaled Random — the two execution
        # paths must agree target by target.
        compiled = simulate_all_targets(
            RandomPolicy(seed=seed), hierarchy, distribution
        )
        assert compiled.method == "plan"
        assert np.array_equal(replayed.queries, compiled.queries)

    def test_random_compiles_via_undo_dfs(self, vehicle_hierarchy):
        from repro.policies import RandomPolicy

        policy = RandomPolicy(seed=3)
        assert policy.supports_undo
        engine = simulate_all_targets(policy, vehicle_hierarchy)
        assert engine.method == "plan"


class TestRegistryParityRandomGraphs:
    @pytest.mark.parametrize("name", available_policies())
    @pytest.mark.parametrize("seed", range(3))
    def test_random_tree(self, name, seed):
        hierarchy = make_random_tree(30, seed=seed)
        distribution = random_distribution(hierarchy, seed)
        _assert_parity(make_policy(name), hierarchy, distribution)

    @pytest.mark.parametrize(
        "name", [n for n in available_policies() if n not in TREE_ONLY]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_random_dag(self, name, seed):
        hierarchy = make_random_dag(26, seed=seed)
        distribution = random_distribution(hierarchy, seed + 50)
        _assert_parity(make_policy(name), hierarchy, distribution)

    @pytest.mark.parametrize("name", ["greedy-tree", "wigs", "cost-greedy"])
    def test_heterogeneous_prices(self, name):
        hierarchy = make_random_tree(25, seed=4)
        distribution = random_distribution(hierarchy, 4)
        costs = random_costs(hierarchy, np.random.default_rng(4))
        _assert_parity(make_policy(name), hierarchy, distribution, costs)


class TestStaticTree:
    def test_compiled_policy_is_vector(self, vehicle_hierarchy, vehicle_distribution):
        tree = build_decision_tree(
            GreedyTreePolicy, vehicle_hierarchy, vehicle_distribution
        )
        policy = StaticTreePolicy(tree)
        engine = _assert_parity(
            policy, vehicle_hierarchy, vehicle_distribution
        )
        assert engine.method == "plan"
        # The compiled tree replays the compiled policy's exact behaviour.
        direct = simulate_all_targets(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        assert np.array_equal(engine.queries, direct.queries)


class TestEngineResult:
    def test_expected_cost_matches_decision_tree(
        self, vehicle_hierarchy, vehicle_distribution
    ):
        engine = simulate_all_targets(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        tree = build_decision_tree(
            GreedyTreePolicy, vehicle_hierarchy, vehicle_distribution
        )
        assert engine.expected_queries(vehicle_distribution) == pytest.approx(
            tree.expected_cost(vehicle_distribution)
        )
        assert engine.expected_price(vehicle_distribution) == pytest.approx(
            tree.expected_price(vehicle_distribution, UnitCost())
        )
        assert engine.worst_case() == tree.worst_case_cost()
        assert engine.per_target() == tree.leaf_depths()
        assert engine.num_targets == vehicle_hierarchy.n

    def test_restricted_targets_prune(self, vehicle_hierarchy, vehicle_distribution):
        engine = simulate_all_targets(
            GreedyTreePolicy(),
            vehicle_hierarchy,
            vehicle_distribution,
            targets=["Maxima", "Sentra", "Maxima"],
        )
        assert engine.num_targets == 2  # duplicates collapse
        assert engine.query_count("Maxima") == 1
        with pytest.raises(SearchError, match="not simulated"):
            engine.query_count("Honda")

    def test_unknown_target_rejected(self, vehicle_hierarchy, vehicle_distribution):
        from repro.exceptions import HierarchyError

        with pytest.raises(HierarchyError):
            simulate_all_targets(
                GreedyTreePolicy(),
                vehicle_hierarchy,
                vehicle_distribution,
                targets=["NotANode"],
            )

    def test_decision_nodes_counted_once(self):
        """The vector walk visits each distinct question exactly once."""
        hierarchy = make_random_tree(60, seed=8)
        distribution = random_distribution(hierarchy, 8)
        engine = simulate_all_targets(
            GreedyTreePolicy(), hierarchy, distribution
        )
        tree = build_decision_tree(
            GreedyTreePolicy, hierarchy, distribution
        )
        assert engine.decision_nodes == tree.num_questions()


class TestUndoProtocol:
    def test_vector_policy_protocol(self):
        from repro.testing import ForcedReplayPolicy

        policy = GreedyTreePolicy()
        assert isinstance(policy, VectorPolicy)
        assert is_vector_policy(policy)
        assert is_vector_policy(make_policy("random"))
        assert not is_vector_policy(ForcedReplayPolicy())

    def test_undo_restores_exact_state(self):
        hierarchy = make_random_tree(20, seed=1)
        distribution = random_distribution(hierarchy, 1)
        policy = GreedyTreePolicy()
        policy.enable_undo(True)
        policy.reset(hierarchy, distribution)
        query = policy.propose()
        before = (
            list(policy._tilde_p),
            list(policy._size),
            policy._root,
            set(policy._removed),
        )
        policy.observe(False)
        policy.undo()
        assert policy.propose() == query
        after = (
            list(policy._tilde_p),
            list(policy._size),
            policy._root,
            set(policy._removed),
        )
        assert before == after  # bit-exact, not approximate

    def test_undo_without_journal_raises(self):
        hierarchy = make_random_tree(10, seed=2)
        policy = GreedyTreePolicy()
        policy.reset(hierarchy, random_distribution(hierarchy, 2))
        with pytest.raises(PolicyError, match="undo"):
            policy.undo()

    def test_enable_undo_rejected_without_support(self):
        from repro.testing import ForcedReplayPolicy

        policy = ForcedReplayPolicy()
        with pytest.raises(PolicyError, match="does not support undo"):
            policy.enable_undo(True)

    def test_random_undo_restores_rng_stream(self):
        """Undoing must rewind the generator too: after backtracking, the
        policy draws exactly what a fresh run on the other branch draws."""
        from repro.policies import RandomPolicy

        hierarchy = make_random_tree(30, seed=5)
        explorer = RandomPolicy(seed=9)
        explorer.enable_undo(True)
        explorer.reset(hierarchy, None)
        first = explorer.propose()
        explorer.observe(False)
        downstream = explorer.propose()  # consumes generator words
        explorer.observe(False)
        explorer.undo()
        explorer.undo()
        assert explorer.propose() == first
        explorer.observe(False)
        assert explorer.propose() == downstream  # stream rewound exactly

    @pytest.mark.parametrize("name", ["cost-greedy", "greedy-naive"])
    def test_candidate_graph_undo_restores_exact_state(self, name):
        """The CAIGS-relevant policies revert answers bit-exactly."""
        hierarchy = make_random_dag(24, seed=6)
        distribution = random_distribution(hierarchy, 6)
        policy = make_policy(name)
        policy.enable_undo(True)
        policy.reset(hierarchy, distribution)

        def snapshot():
            cg = policy._cg
            return (bytes(cg._alive), cg._root, cg._n_alive)

        for answer in (False, True):
            query = policy.propose()
            before = snapshot()
            policy.observe(answer)
            policy.undo()
            assert snapshot() == before
            assert policy.propose() == query
            policy.observe(answer)  # advance for the next round

    def test_journaling_off_by_default(self):
        """Plain searches must not accumulate undo records."""
        hierarchy = make_random_tree(15, seed=3)
        policy = GreedyTreePolicy()
        policy.reset(hierarchy, random_distribution(hierarchy, 3))
        while not policy.done():
            policy.propose()
            policy.observe(False)
        assert policy._undo_log == []


class TestCorrectnessCheck:
    def test_wrong_result_reported(self, vehicle_hierarchy, vehicle_distribution):
        """A policy that mis-identifies a target is caught with its name."""

        class LyingPolicy(GreedyTreePolicy):
            name = "Liar"

            def result(self):
                return "Vehicle"  # claims the root no matter what

        with pytest.raises(SearchError, match="Liar returned"):
            simulate_all_targets(
                LyingPolicy(), vehicle_hierarchy, vehicle_distribution
            )
        # Without the check the walk still records per-target costs.
        engine = simulate_all_targets(
            LyingPolicy(),
            vehicle_hierarchy,
            vehicle_distribution,
            check_correctness=False,
        )
        assert engine.num_targets == vehicle_hierarchy.n


class TestTreeIntervals:
    def test_interval_containment_matches_reaches(self):
        hierarchy = make_random_tree(40, seed=5)
        tin, tout = hierarchy.tree_intervals()
        for u in hierarchy.nodes:
            ui = hierarchy.index(u)
            for z in hierarchy.nodes:
                zi = hierarchy.index(z)
                expected = hierarchy.reaches(u, z)
                assert (tin[ui] <= tin[zi] < tout[ui]) == expected

    def test_rejected_on_dags(self):
        from repro.exceptions import HierarchyError

        dag = make_random_dag(12, seed=0)
        with pytest.raises(HierarchyError, match="tree"):
            dag.tree_intervals()


def _assert_same_result(a, b):
    assert a.policy == b.policy
    assert a.decision_nodes == b.decision_nodes
    assert np.array_equal(a.target_ix, b.target_ix)
    assert np.array_equal(a.queries, b.queries)
    assert np.array_equal(a.prices, b.prices, equal_nan=True)


def _tree_config(n=120, seed=3):
    hierarchy = make_random_tree(n, seed=seed)
    return hierarchy, random_distribution(hierarchy, seed)


# ----------------------------------------------------------------------
# Multi-policy batches
# ----------------------------------------------------------------------
class TestOverlappedBatch:
    """``simulate_policies`` is a loop over ``simulate_all_targets`` with
    one shared target set; its results equal the one-policy calls."""

    def test_simulate_policies_matches_singles(self):
        hierarchy = make_random_dag(80, seed=4)
        distribution = random_distribution(hierarchy, 4)
        policies = [make_policy("greedy-dag"), make_policy("topdown")]
        singles = [
            simulate_all_targets(
                p, hierarchy, distribution, result_cache=False,
            )
            for p in policies
        ]
        batch = simulate_policies(
            [make_policy("greedy-dag"), make_policy("topdown")],
            hierarchy, distribution, result_cache=False,
        )
        for single, batched in zip(singles, batch):
            _assert_same_result(single, batched)

    def test_replay_policy_mixes_into_batch(self):
        """A non-compilable policy inside a batch takes its replay path
        while the others descend their plans — same numbers either way."""
        from repro.testing import ForcedReplayPolicy

        hierarchy, distribution = _tree_config(n=40, seed=6)
        sample = iter(hierarchy.nodes[::3])  # one-shot: read once, shared
        singles = [
            simulate_all_targets(
                policy, hierarchy, distribution,
                targets=hierarchy.nodes[::3], result_cache=False,
            )
            for policy in (make_policy("greedy-tree"), ForcedReplayPolicy())
        ]
        batch = simulate_policies(
            [make_policy("greedy-tree"), ForcedReplayPolicy()],
            hierarchy, distribution, targets=sample, result_cache=False,
        )
        assert batch[1].method == "replay"
        for single, batched in zip(singles, batch):
            _assert_same_result(single, batched)
