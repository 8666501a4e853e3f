"""Property-based bit-identity of the engine's level-by-level descent.

:func:`~repro.engine.simulate_all_targets` moves every requested target
down the compiled plan together, one level per pass.  The reference here
is a per-node depth-first walk (:func:`reference_walk`, in the way
``test_alg7.py`` keeps the paper's per-node loop): it pops one
``(plan node, target subset)`` frame at a time and splits the subset
with :func:`~repro.engine.make_splitter`.

For random trees and DAGs × every registry policy × all and sampled
targets × unit and fractional prices, ``queries``, the bytes of
``prices`` and ``decision_nodes`` must equal the reference walk, and each
target's count and price must equal its own ``run_search``.  DAG cases
also run with ``_MATRIX_NODE_LIMIT`` lowered, so the CSR kernel answers.
Errors must match the walk's type and text: a budget at and one below the
deepest requested leaf, one wrong leaf with the check on (and equal
arrays with it off), and one ``NO_PATH`` a target needs.

Examples are generated from integer seeds (the repo's deterministic
``repro.testing`` builders), so a failing case reproduces from its printed
seed alone; ``derandomize=True`` keeps CI stable run to run.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import hierarchy as hierarchy_mod
from repro.core.costs import TableCost, UnitCost
from repro.core.oracle import ExactOracle
from repro.core.session import default_budget, run_search
from repro.engine import make_splitter, simulate_all_targets
from repro.exceptions import BudgetExceededError, SearchError
from repro.plan import NO_PATH, ROOT, CompiledPlan, compile_policy
from repro.plan.compile import check_leaf
from repro.policies import available_policies, make_policy
from repro.testing import make_random_dag, make_random_tree, random_distribution

#: Policies that only define behaviour on trees (mirrors test_plan.py).
TREE_ONLY = {"greedy-tree"}

#: Bounded example budget: every example compiles a plan, evaluates it
#: twice and runs one ``run_search`` per requested target.  The suite also
#: runs on the spawn and sanitize CI legs.
_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_walk(plan, hierarchy, model, target_ix, budget, check):
    """The per-node DFS over the plan; returns (queries, prices, visited).

    Settles a leaf (checking it identifies every target that reaches it)
    or splits a question node's target subset into its yes and no
    children, pruning empty halves.
    """
    queries = np.full(hierarchy.n, -1, dtype=np.int64)
    prices = np.full(hierarchy.n, np.nan, dtype=float)
    split = make_splitter(hierarchy, len(target_ix))
    price_vec = model.as_array(hierarchy)
    visited = 0
    # [plan node, target subset, depth, accumulated price]
    stack = [(ROOT, target_ix, 0, 0.0)]
    while stack:
        node, subset, depth, price = stack.pop()
        leaf_target = int(plan.target_ix[node])
        if leaf_target >= 0:
            if check:
                check_leaf(plan.policy_name, hierarchy, subset, leaf_target)
            queries[subset] = depth
            prices[subset] = price
            continue
        if depth >= budget:
            raise BudgetExceededError(
                f"{plan.policy_name} exceeded the query budget of {budget} "
                f"questions after {depth} questions in the plan walk"
            )
        visited += 1
        qix = int(plan.query_ix[node])
        yes, no = split(qix, subset)
        child_price = price + float(price_vec[qix])
        for branch, child, sub in (
            ("yes", int(plan.yes_child[node]), yes),
            ("no", int(plan.no_child[node]), no),
        ):
            if not sub.size:
                continue
            if child < 0:
                raise SearchError(
                    f"plan of {plan.policy_name!r} has no {branch}-branch "
                    f"for question {hierarchy.label(qix)!r} but "
                    f"{sub.size} requested target(s) need it; was the plan "
                    "compiled on a different hierarchy?"
                )
            stack.append((child, sub, depth + 1, child_price))
    return queries, prices, visited


@contextmanager
def _matrix_limit(limit: int):
    """Lower ``_MATRIX_NODE_LIMIT`` so large-enough DAGs take the CSR kernel."""
    saved = hierarchy_mod._MATRIX_NODE_LIMIT
    hierarchy_mod._MATRIX_NODE_LIMIT = limit
    try:
        yield
    finally:
        hierarchy_mod._MATRIX_NODE_LIMIT = saved


def _hierarchy(kind: str, n: int, seed: int):
    if kind == "tree":
        return make_random_tree(n, seed=seed)
    return make_random_dag(n, seed=seed)


def _policy_name(kind: str, index: int) -> str:
    names = [
        name for name in available_policies()
        if kind == "tree" or name not in TREE_ONLY
    ]
    return names[index % len(names)]


def _fractional_prices(hierarchy, seed: int) -> TableCost:
    rng = np.random.default_rng([seed, 7])
    return TableCost(
        dict(zip(hierarchy.nodes, rng.uniform(0.1, 3.0, size=hierarchy.n)))
    )


def _sample(hierarchy, seed: int, size: int) -> list:
    rng = np.random.default_rng([seed, 11])
    picks = rng.choice(hierarchy.n, size=min(size, hierarchy.n), replace=False)
    return [hierarchy.label(int(ix)) for ix in picks]


def _assert_matches_reference(name, hierarchy, distribution, costs, targets):
    """Descent == reference walk == per-target run_search, bit for bit."""
    model = costs or UnitCost()
    plan = compile_policy(make_policy(name), hierarchy, distribution, model)
    budget = default_budget(hierarchy)
    if targets is None:
        target_ix = np.arange(hierarchy.n, dtype=np.int64)
    else:
        target_ix = np.unique([hierarchy.index(t) for t in targets])
    queries, prices, visited = reference_walk(
        plan, hierarchy, model, target_ix, budget, True
    )
    # From the policy (compile or restricted compile, then the descent),
    # and from the plan on a cache-free copy of the hierarchy with the
    # matrix limit lowered: DAGs then take the CSR answerer.
    via_policy = simulate_all_targets(
        make_policy(name), hierarchy, distribution, costs,
        targets=targets, result_cache=False,
    )
    cold = pickle.loads(pickle.dumps(hierarchy))
    with _matrix_limit(4):
        via_plan = simulate_all_targets(
            plan, cold, cost_model=costs, targets=targets, result_cache=False,
        )
    context = f"policy={name} n={hierarchy.n} targets={len(target_ix)}"
    for result in (via_policy, via_plan):
        assert result.decision_nodes == visited, (result.method, context)
        assert np.array_equal(result.target_ix, target_ix), context
        assert np.array_equal(result.queries, queries), (result.method, context)
        assert result.prices.tobytes() == prices.tobytes(), (
            result.method, context,
        )
    for ix in target_ix:
        target = hierarchy.label(int(ix))
        single = run_search(
            make_policy(name), ExactOracle(hierarchy, target), hierarchy,
            distribution, model, max_queries=budget,
        )
        assert single.num_queries == queries[ix], (target, context)
        assert single.total_price == prices[ix], (target, context)


class TestEveryModeBitIdentical:
    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        policy_index=st.integers(min_value=0, max_value=63),
        n=st.integers(min_value=8, max_value=48),
    )
    def test_full_evaluation(self, seed, kind, policy_index, n):
        hierarchy = _hierarchy(kind, n, seed)
        _assert_matches_reference(
            _policy_name(kind, policy_index),
            hierarchy,
            random_distribution(hierarchy, seed),
            None,
            None,
        )

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        policy_index=st.integers(min_value=0, max_value=63),
        n=st.integers(min_value=10, max_value=40),
        sampled=st.booleans(),
    )
    def test_heterogeneous_prices(self, seed, kind, policy_index, n, sampled):
        hierarchy = _hierarchy(kind, n, seed)
        _assert_matches_reference(
            _policy_name(kind, policy_index),
            hierarchy,
            random_distribution(hierarchy, seed),
            _fractional_prices(hierarchy, seed),
            _sample(hierarchy, seed, n // 3) if sampled else None,
        )

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        policy_index=st.integers(min_value=0, max_value=63),
        n=st.integers(min_value=12, max_value=48),
        size=st.integers(min_value=1, max_value=24),
    )
    def test_restricted_target_sets(self, seed, kind, policy_index, n, size):
        """Samples of every size take the restricted compile ("vector")
        and descend bit-identically."""
        hierarchy = _hierarchy(kind, n, seed)
        _assert_matches_reference(
            _policy_name(kind, policy_index),
            hierarchy,
            random_distribution(hierarchy, seed),
            None,
            _sample(hierarchy, seed, size),
        )


# ----------------------------------------------------------------------
# Error parity with the reference walk
# ----------------------------------------------------------------------
def _raised(call):
    try:
        call()
    except (BudgetExceededError, SearchError) as exc:
        return type(exc), str(exc)
    raise AssertionError("expected an error")


def _config(kind: str, seed: int, n: int = 30):
    hierarchy = _hierarchy(kind, n, seed)
    distribution = random_distribution(hierarchy, seed)
    name = "greedy-tree" if kind == "tree" else "greedy-dag"
    plan = compile_policy(make_policy(name), hierarchy, distribution)
    return plan, hierarchy


def _with_arrays(plan, **changes) -> CompiledPlan:
    """A copy of ``plan`` with some of its node arrays edited."""
    arrays = {
        "query_ix": plan.query_ix,
        "yes_child": plan.yes_child,
        "no_child": plan.no_child,
        "target_ix": plan.target_ix,
    }
    for name, edit in changes.items():
        arrays[name] = arrays[name].copy()
        edit(arrays[name])
    return CompiledPlan(
        plan.hierarchy, **arrays, policy_name=plan.policy_name, config_key="",
    )


class TestErrorParity:
    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        sampled=st.booleans(),
    )
    def test_budget_at_and_below_deepest_leaf(self, seed, kind, sampled):
        plan, hierarchy = _config(kind, seed)
        targets = _sample(hierarchy, seed, 6) if sampled else None
        target_ix = (
            np.unique([hierarchy.index(t) for t in targets])
            if sampled else np.arange(hierarchy.n, dtype=np.int64)
        )
        depth = int(
            reference_walk(
                plan, hierarchy, UnitCost(), target_ix, 10**9, True
            )[0][target_ix].max()
        )
        kwargs = dict(targets=targets, result_cache=False)
        at_budget = simulate_all_targets(plan, max_queries=depth, **kwargs)
        queries, prices, visited = reference_walk(
            plan, hierarchy, UnitCost(), target_ix, depth, True
        )
        assert np.array_equal(at_budget.queries, queries)
        assert at_budget.prices.tobytes() == prices.tobytes()
        assert at_budget.decision_nodes == visited
        if depth == 0:
            return
        assert _raised(
            lambda: simulate_all_targets(plan, max_queries=depth - 1, **kwargs)
        ) == _raised(
            lambda: reference_walk(
                plan, hierarchy, UnitCost(), target_ix, depth - 1, True
            )
        )

    @pytest.mark.parametrize("kind", ["tree", "dag"])
    @pytest.mark.parametrize("seed", range(3))
    def test_one_wrong_leaf(self, kind, seed):
        plan, hierarchy = _config(kind, seed)
        leaves = np.flatnonzero(plan.target_ix >= 0)
        leaf = int(leaves[len(leaves) // 2])
        other = (int(plan.target_ix[leaf]) + 1) % hierarchy.n

        def mislabel(target):
            target[leaf] = other

        broken = _with_arrays(plan, target_ix=mislabel)
        target_ix = np.arange(hierarchy.n, dtype=np.int64)
        budget = default_budget(hierarchy)
        checked = _raised(lambda: simulate_all_targets(broken, result_cache=False))
        assert checked == _raised(
            lambda: reference_walk(
                broken, hierarchy, UnitCost(), target_ix, budget, True
            )
        )
        assert checked[0] is SearchError
        unchecked = simulate_all_targets(
            broken, check_correctness=False, result_cache=False
        )
        queries, prices, visited = reference_walk(
            broken, hierarchy, UnitCost(), target_ix, budget, False
        )
        assert np.array_equal(unchecked.queries, queries)
        assert unchecked.prices.tobytes() == prices.tobytes()
        assert unchecked.decision_nodes == visited

    @pytest.mark.parametrize("branch", ["yes_child", "no_child"])
    @pytest.mark.parametrize("kind", ["tree", "dag"])
    @pytest.mark.parametrize("seed", range(3))
    def test_one_needed_no_path(self, branch, kind, seed):
        plan, hierarchy = _config(kind, seed)
        children = getattr(plan, branch)
        needed = np.flatnonzero(children >= 0)
        node = int(needed[(seed * 7) % len(needed)])

        def cut(child):
            child[node] = NO_PATH

        broken = _with_arrays(plan, **{branch: cut})
        target_ix = np.arange(hierarchy.n, dtype=np.int64)
        raised = _raised(lambda: simulate_all_targets(broken, result_cache=False))
        assert raised == _raised(
            lambda: reference_walk(
                broken, hierarchy, UnitCost(), target_ix,
                default_budget(hierarchy), True,
            )
        )
        assert raised[0] is SearchError
        assert "requested target(s) need it" in raised[1]

    @pytest.mark.parametrize("kind", ["tree", "dag"])
    def test_both_branches_cut_reports_yes_first(self, kind):
        """Within one node the walk checks the yes-branch first."""
        plan, hierarchy = _config(kind, 5)
        node = int(
            np.flatnonzero((plan.yes_child >= 0) & (plan.no_child >= 0))[0]
        )

        def cut(child):
            child[node] = NO_PATH

        broken = _with_arrays(plan, yes_child=cut, no_child=cut)
        target_ix = np.arange(hierarchy.n, dtype=np.int64)
        raised = _raised(lambda: simulate_all_targets(broken, result_cache=False))
        assert raised == _raised(
            lambda: reference_walk(
                broken, hierarchy, UnitCost(), target_ix,
                default_budget(hierarchy), True,
            )
        )
        assert "has no yes-branch" in raised[1]
