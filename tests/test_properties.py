"""Property-based tests (hypothesis) for the core invariants.

Random rooted trees/DAGs are generated from hypothesis-drawn parent lists;
the properties mirror the paper's structural claims:

* every policy identifies every target (soundness, Algorithm 1);
* the greedy tree policy stays within the Theorem-2 golden-ratio bound;
* ``GreedyTree``'s heavy-path selection achieves the exhaustive objective
  (Theorem 5), and ``GreedyDAG``'s maintained weights stay exact (Alg. 7);
* decision-tree costs agree with per-target simulation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decision_tree import build_decision_tree
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.oracle import ExactOracle
from repro.core.session import search_for_target
from repro.policies import (
    GreedyDagPolicy,
    GreedyNaivePolicy,
    GreedyTreePolicy,
    MigsPolicy,
    TopDownPolicy,
    WigsPolicy,
    optimal_expected_cost,
)

PHI = (1 + math.sqrt(5)) / 2


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def tree_strategy(draw, max_nodes: int = 14):
    """A rooted tree from a random parent list."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    parents = [
        draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)
    ]
    edges = [(f"v{p}", f"v{i + 1}") for i, p in enumerate(parents)]
    return Hierarchy(edges, nodes=["v0"])


@st.composite
def dag_strategy(draw, max_nodes: int = 12):
    """A rooted DAG: tree plus forward cross edges."""
    hierarchy = draw(tree_strategy(max_nodes=max_nodes))
    n = hierarchy.n
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=n - 1),
            ),
            max_size=6,
        )
    )
    edges = set(hierarchy.edges())
    for i, j in extra:
        if i < j:
            edges.add((f"v{i}", f"v{j}"))
    return Hierarchy(sorted(edges), nodes=["v0"])


@st.composite
def weights_strategy(draw, hierarchy: Hierarchy, min_weight: float = 0.0):
    values = draw(
        st.lists(
            st.floats(
                min_value=min_weight,
                max_value=10.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=hierarchy.n,
            max_size=hierarchy.n,
        )
    )
    if sum(values) <= 0:
        values = [1.0] * hierarchy.n
    return TargetDistribution(dict(zip(hierarchy.nodes, values)))


@st.composite
def dag_with_distribution(draw, max_nodes: int = 12):
    hierarchy = draw(dag_strategy(max_nodes=max_nodes))
    return hierarchy, draw(weights_strategy(hierarchy))


@st.composite
def tree_with_distribution(draw, max_nodes: int = 12, min_weight: float = 0.0):
    hierarchy = draw(tree_strategy(max_nodes=max_nodes))
    return hierarchy, draw(weights_strategy(hierarchy, min_weight=min_weight))


# ----------------------------------------------------------------------
# Soundness: every policy identifies every target
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(data=dag_with_distribution())
@pytest.mark.parametrize(
    "factory",
    [TopDownPolicy, MigsPolicy, WigsPolicy, GreedyNaivePolicy, GreedyDagPolicy],
    ids=lambda f: f.__name__,
)
def test_every_policy_identifies_every_target_on_dags(factory, data):
    hierarchy, distribution = data
    policy = factory()
    for target in hierarchy.nodes:
        result = search_for_target(policy, hierarchy, target, distribution)
        assert result.returned == target
        assert result.num_queries <= 2 * hierarchy.n


@settings(max_examples=40, deadline=None)
@given(data=tree_with_distribution())
def test_greedy_tree_identifies_every_target(data):
    hierarchy, distribution = data
    policy = GreedyTreePolicy()
    for target in hierarchy.nodes:
        result = search_for_target(policy, hierarchy, target, distribution)
        assert result.returned == target


# ----------------------------------------------------------------------
# Theorem 2: golden-ratio bound on trees
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(data=tree_with_distribution(max_nodes=9, min_weight=0.05))
def test_theorem2_golden_ratio_bound(data):
    """Theorem 2 on strictly positive distributions.

    Positivity matters: with zero-weight regions every split of a zero-mass
    subchain ties at the same middle-point objective, and an adversarial tie
    break can walk the chain one node at a time (hypothesis finds a 3-node
    chain with greedy = 2, optimal = 1 > phi ratio).  The paper's analysis —
    like Cicalese et al.'s — assumes positive weights; the Equation-(1)
    rounding exists precisely to keep weights bounded away from degenerate.
    """
    hierarchy, distribution = data
    tree = build_decision_tree(GreedyTreePolicy, hierarchy, distribution)
    greedy = tree.expected_cost(distribution)
    best = optimal_expected_cost(hierarchy, distribution)
    assert greedy <= PHI * best + 1e-6


# ----------------------------------------------------------------------
# Theorem 5 / Algorithm equivalences
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(data=tree_with_distribution(), target_seed=st.integers(0, 10**6))
def test_greedy_tree_achieves_naive_objective(data, target_seed):
    hierarchy, distribution = data
    gen = np.random.default_rng(target_seed)
    target = hierarchy.label(int(gen.integers(0, hierarchy.n)))
    oracle = ExactOracle(hierarchy, target)
    fast, naive = GreedyTreePolicy(), GreedyNaivePolicy()
    fast.reset(hierarchy, distribution)
    naive.reset(hierarchy, distribution)
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


@settings(max_examples=30, deadline=None)
@given(data=dag_with_distribution(), target_seed=st.integers(0, 10**6))
def test_greedy_dag_weights_stay_exact(data, target_seed):
    hierarchy, distribution = data
    gen = np.random.default_rng(target_seed)
    target = hierarchy.label(int(gen.integers(0, hierarchy.n)))
    oracle = ExactOracle(hierarchy, target)
    policy = GreedyDagPolicy()
    policy.reset(hierarchy, distribution)
    while not policy.done():
        policy.observe(oracle.answer(policy.propose()))
        # Rounded weights are integers below n^2: exact sums in any order.
        for node in hierarchy.nodes:
            if policy.is_candidate(node):
                assert policy.maintained_weight(node) == policy.recomputed_weight(node)
    assert policy.result() == target


# ----------------------------------------------------------------------
# Decision-tree consistency
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(data=dag_with_distribution(max_nodes=10))
def test_decision_tree_cost_equals_simulation(data):
    hierarchy, distribution = data
    tree = build_decision_tree(GreedyDagPolicy, hierarchy, distribution)
    tree.validate()
    policy = GreedyDagPolicy()
    simulated = sum(
        distribution.p(target)
        * search_for_target(policy, hierarchy, target, distribution).num_queries
        for target in hierarchy.nodes
    )
    assert tree.expected_cost(distribution) == pytest.approx(simulated)


# ----------------------------------------------------------------------
# Transcript invariants
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(data=dag_with_distribution(), target_seed=st.integers(0, 10**6))
def test_transcripts_are_truthful_and_nonredundant(data, target_seed):
    """Every recorded answer matches ground truth; no question repeats."""
    hierarchy, distribution = data
    gen = np.random.default_rng(target_seed)
    target = hierarchy.label(int(gen.integers(0, hierarchy.n)))
    truth = hierarchy.ancestors(target)
    result = search_for_target(
        GreedyDagPolicy(), hierarchy, target, distribution
    )
    queries = [q for q, _ in result.transcript]
    assert len(queries) == len(set(queries))  # a repeat would be wasted
    for query, answer in result.transcript:
        assert answer == (query in truth)


@settings(max_examples=30, deadline=None)
@given(data=dag_with_distribution(), target_seed=st.integers(0, 10**6))
def test_candidates_shrink_monotonically(data, target_seed):
    """Each answer strictly reduces the candidate set (progress guarantee)."""
    from repro.core.candidate import CandidateGraph
    from repro.core.oracle import ExactOracle

    hierarchy, distribution = data
    gen = np.random.default_rng(target_seed)
    target = hierarchy.label(int(gen.integers(0, hierarchy.n)))
    oracle = ExactOracle(hierarchy, target)
    policy = GreedyDagPolicy()
    policy.reset(hierarchy, distribution)
    shadow = CandidateGraph(hierarchy)
    while not policy.done():
        query = policy.propose()
        answer = oracle.answer(query)
        before = shadow.size
        shadow.apply(query, answer)
        assert shadow.size < before
        assert shadow.contains(target)
        policy.observe(answer)
    assert shadow.result() == policy.result() == target


# ----------------------------------------------------------------------
# Rounding (Equation 1)
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(data=dag_with_distribution())
def test_rounded_weights_invariants(data):
    hierarchy, distribution = data
    weights = distribution.rounded_weights(hierarchy)
    n = hierarchy.n
    assert weights.dtype.kind == "i"
    assert (weights >= 0).all()
    assert weights.max() == n * n  # the max-probability node
    probs = distribution.as_array(hierarchy)
    for p, w in zip(probs, weights):
        assert (w > 0) == (p > 0)
