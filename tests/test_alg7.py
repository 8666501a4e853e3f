"""GreedyDAG's and WIGS's one-pass Alg. 7 against the paper's per-node form.

:func:`repro.policies.greedy_dag.remove_subgraph` applies a *no* answer in
one pass, and only to the candidates: the alive nodes reachable from the
current root.  The reference here is Alg. 7 (``AdjustWeight``) as the paper
states it: one reverse BFS per removed node, in removal order, subtracting
that node's weight from every ancestor that is alive before the removal,
the removed subgraph's own nodes included, candidate or not.  Both forms
must leave every candidate's maintained value equal under ``==`` (the same
float subtractions in the same order) after every observe and every undo,
and compile byte-identical plans — for rounded GreedyDAG, raw GreedyDAG,
whose weights are arbitrary floats, and WIGS's unit weights, on trees and
DAGs.  Alive nodes a *yes* answer excluded are compared again once undo
re-admits them, where the one-pass form's stale values must be exact.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.policies.greedy_dag as greedy_dag_module
import repro.policies.wigs as wigs_module
from repro.core.hierarchy import Hierarchy
from repro.exceptions import SanitizerError
from repro.plan import compile_policy
from repro.policies import GreedyDagPolicy, WigsPolicy
from repro.policies.greedy_dag import remove_subgraph, restore_subgraph
from repro.testing import make_random_dag, random_distribution

#: Policy kind -> (factory, attribute holding the maintained values).
POLICIES = {
    "GreedyDAG": (GreedyDagPolicy, "_tilde"),
    "GreedyDAG(raw)": (lambda: GreedyDagPolicy(rounded=False), "_tilde"),
    "WIGS": (WigsPolicy, "_count"),
}


def paper_remove_subgraph(hierarchy, alive, values, weights, root, q):
    """Alg. 7 with one reverse BFS per removed node of ``G_q``.

    ``root`` is not read: the paper updates every alive ancestor, inside
    the current root's subgraph or not.  Returns the one-pass helper's
    ``(removed, touched, old)`` record, with each touched node's value from
    before its first subtraction.
    """
    removed = [q]
    seen = {q}
    queue = deque([q])
    while queue:
        u = queue.popleft()
        for v in hierarchy.children_ix(u):
            if alive[v] and v not in seen:
                seen.add(v)
                removed.append(v)
                queue.append(v)
    journal: dict[int, float] = {}
    for x in removed:
        wx = weights[x]
        if wx == 0:
            continue
        anc_seen = {x}
        anc_queue = deque([x])
        while anc_queue:
            u = anc_queue.popleft()
            for p in hierarchy.parents_ix(u):
                if alive[p] and p not in anc_seen:
                    anc_seen.add(p)
                    journal.setdefault(p, values[p])
                    values[p] -= wx
                    anc_queue.append(p)
    for x in removed:
        alive[x] = 0
    return removed, list(journal), list(journal.values())


@contextmanager
def paper_alg7():
    """Route GreedyDAG's and WIGS's *no* answers through the reference."""
    with mock.patch.object(
        greedy_dag_module, "remove_subgraph", paper_remove_subgraph
    ), mock.patch.object(wigs_module, "remove_subgraph", paper_remove_subgraph):
        yield


def decision_state(policy, values_attr: str) -> dict:
    """Everything the next decision reads: the candidates' values.

    Dead nodes' values are not read, nor are those of alive nodes outside
    the current root's subgraph.
    """
    alive = policy._alive
    values = getattr(policy, values_attr)
    candidates = policy.hierarchy.descendants_ix(policy._root)
    state = {
        "alive": bytes(alive),
        "root": policy._root,
        "values": [
            values[v] if alive[v] and v in candidates else None
            for v in range(len(alive))
        ],
        "done": policy.done(),
    }
    if isinstance(policy, WigsPolicy):
        state["search"] = (policy._path, policy._lo, policy._hi, policy._mid)
    return state


@st.composite
def configurations(draw):
    """A random tree (no cross edges) or DAG, with zero weights or not."""
    n = draw(st.integers(min_value=2, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    extra = draw(st.sampled_from([0, n // 4 + 1, n]))
    hierarchy = make_random_dag(n, seed, extra=extra)
    distribution = random_distribution(hierarchy, seed, zeros=draw(st.booleans()))
    return hierarchy, distribution


@settings(max_examples=80, deadline=None)
@given(
    config=configurations(),
    kind=st.sampled_from(sorted(POLICIES)),
    steps=st.lists(st.sampled_from(["yes", "no", "undo"]), max_size=40),
)
def test_values_equal_paper_after_every_observe_and_undo(config, kind, steps):
    hierarchy, distribution = config
    factory, values_attr = POLICIES[kind]
    fast, paper = factory(), factory()
    for policy in (fast, paper):
        policy.enable_undo()
        policy.reset(hierarchy, distribution)
    depth = 0
    for step in steps:
        if step == "undo":
            if not depth:
                continue
            fast.undo()
            paper.undo()
            depth -= 1
        else:
            if fast.done():
                continue
            assert fast.propose() == paper.propose()
            fast.observe(step == "yes")
            with paper_alg7():
                paper.observe(step == "yes")
            depth += 1
        assert decision_state(fast, values_attr) == decision_state(
            paper, values_attr
        )


def assert_same_plan(policy_factory, hierarchy, distribution) -> None:
    plan = compile_policy(policy_factory(), hierarchy, distribution)
    with paper_alg7():
        reference = compile_policy(policy_factory(), hierarchy, distribution)
    assert plan.config_key == reference.config_key
    expected = reference.payload_arrays()
    for name, array in plan.payload_arrays().items():
        assert array.dtype == expected[name].dtype
        assert array.tobytes() == expected[name].tobytes(), name


@settings(max_examples=40, deadline=None)
@given(config=configurations(), kind=st.sampled_from(sorted(POLICIES)))
def test_compiled_plans_identical_to_paper(config, kind):
    assert_same_plan(POLICIES[kind][0], *config)


@pytest.mark.parametrize("kind", sorted(POLICIES))
@pytest.mark.parametrize("seed", range(3))
def test_compiled_plans_identical_to_paper_on_larger_dags(kind, seed):
    hierarchy = make_random_dag(160, seed, extra=60)
    distribution = random_distribution(hierarchy, seed, zeros=seed == 1)
    assert_same_plan(POLICIES[kind][0], hierarchy, distribution)


@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_sanitizer_checks_the_one_pass_journal(monkeypatch, kind):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    factory, values_attr = POLICIES[kind]
    distribution = random_distribution(make_random_dag(40, 3), 3)
    # A fresh hierarchy fills its descendant-set cache mid-walk (side
    # ancestors); that is not per-answer state, so an exact undo passes.
    compile_policy(factory(), make_random_dag(40, 3), distribution)

    def restore_all_but_one(alive, values, removal):
        removed, touched, old = removal
        restore_subgraph(alive, values, (removed, touched[1:], old[1:]))

    module = wigs_module if values_attr == "_count" else greedy_dag_module
    with mock.patch.object(module, "restore_subgraph", restore_all_but_one):
        with pytest.raises(SanitizerError, match=values_attr):
            compile_policy(factory(), make_random_dag(40, 3), distribution)


#: ``G_a1`` is ``{a1, x}``; ``x`` has one more parent inside ``G_a``
#: (``a2``) and one outside it (``b``), and ``r`` lies above ``a``.
SCOPE_DAG = [
    ("r", "a"), ("r", "b"), ("a", "a1"), ("a", "a2"),
    ("a1", "x"), ("a2", "x"), ("b", "x"), ("b", "b1"),
]


@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_removal_stays_inside_the_current_root(kind):
    factory, values_attr = POLICIES[kind]
    hierarchy = Hierarchy(SCOPE_DAG)
    distribution = random_distribution(hierarchy, 5)
    policy = factory()
    policy.enable_undo()
    policy.reset(hierarchy, distribution)
    values = getattr(policy, values_attr)
    before = list(values)
    removals = []

    def spy(*args):
        removals.append(remove_subgraph(*args))
        return removals[-1]

    module = wigs_module if values_attr == "_count" else greedy_dag_module
    # Driven through the answer hook, as the compile walk drives it, so
    # the answers need not be the ones the policy would ask.
    with mock.patch.object(module, "remove_subgraph", spy):
        policy._apply_answer("a", True)
        policy._apply_answer("a1", False)
    ((_, touched, _),) = removals
    assert {hierarchy.label(v) for v in touched} == {"a", "a2"}
    for outside in ("r", "b"):
        v = hierarchy.index(outside)
        assert values[v] == before[v]
    policy.undo()
    policy.undo()
    fresh = factory()
    fresh.reset(hierarchy, distribution)
    assert [value.hex() for value in values] == [
        value.hex() for value in getattr(fresh, values_attr)
    ]
