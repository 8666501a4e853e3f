"""Exponential-time optimal policies, for verification on small instances.

Lemma 1 shows AIGS is NP-hard, so no polynomial optimal algorithm exists
(unless P = NP).  For *small* hierarchies, however, the optimum is computable
by memoised dynamic programming over candidate sets:

    E(S) = 0                                         if |S| = 1
    E(S) = min_{q in S, q splits S}
           c(q) * p(S) + E(S ∩ R(q)) + E(S \\ R(q))   otherwise

where ``R(q)`` is the reachable set of ``q``.  Every candidate in ``S`` pays
for the question on ``q``, which is exactly the decision-tree accounting of
Equation (2) (and Equation (4) with prices).  The same recursion with
``max`` instead of the probability-weighted sum yields the worst-case
optimum used to sanity-check WIGS.

These routines power the approximation-ratio property tests (Theorems 1, 2
and 4): on exhaustively enumerable trees, the greedy policies must stay
within their proven factors of these optima.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.costs import QueryCostModel, UnitCost
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.exceptions import SearchError
from repro.plan.compile import _Builder
from repro.plan.plan import CompiledPlan

#: Refuse to run the exponential DP beyond this many nodes.
_MAX_NODES = 18


def _prepare(hierarchy: Hierarchy):
    if hierarchy.n > _MAX_NODES:
        raise SearchError(
            f"optimal DP is exponential; refusing n={hierarchy.n} > {_MAX_NODES}"
        )
    reach = [hierarchy.descendants_ix(v) for v in range(hierarchy.n)]
    return reach


def optimal_expected_cost(
    hierarchy: Hierarchy,
    distribution: TargetDistribution,
    cost_model: QueryCostModel | None = None,
) -> float:
    """Minimum expected cost over *all* query policies (AIGS optimum).

    With a non-unit ``cost_model`` this is the CAIGS optimum (Equation 4).
    """
    reach = _prepare(hierarchy)
    probs = distribution.as_array(hierarchy)
    model = cost_model or UnitCost()
    prices = model.as_array(hierarchy)

    @lru_cache(maxsize=None)
    def solve(candidates: frozenset[int]) -> float:
        if len(candidates) <= 1:
            return 0.0
        mass = sum(probs[v] for v in candidates)
        best = float("inf")
        for q in candidates:
            inside = candidates & reach[q]
            if len(inside) == len(candidates):
                continue  # no-information query (e.g. the root)
            outside = candidates - inside
            value = prices[q] * mass + solve(inside) + solve(frozenset(outside))
            if value < best:
                best = value
        return best

    return solve(frozenset(range(hierarchy.n)))


def optimal_decision_tree(
    hierarchy: Hierarchy,
    distribution: TargetDistribution,
    cost_model: QueryCostModel | None = None,
) -> CompiledPlan:
    """The optimal decision tree itself (not just its cost).

    Returns a keyless :class:`~repro.plan.CompiledPlan` realising
    :func:`optimal_expected_cost`, useful for inspecting *why* greedy choices
    differ from optimal ones on small instances.
    """
    reach = _prepare(hierarchy)
    probs = distribution.as_array(hierarchy)
    model = cost_model or UnitCost()
    prices = model.as_array(hierarchy)

    @lru_cache(maxsize=None)
    def solve(candidates: frozenset[int]) -> tuple[float, int | None]:
        """(optimal cost, best query) for a candidate set."""
        if len(candidates) <= 1:
            return 0.0, None
        mass = sum(probs[v] for v in candidates)
        best = float("inf")
        best_q = None
        for q in sorted(candidates):
            inside = candidates & reach[q]
            if len(inside) == len(candidates):
                continue
            outside = frozenset(candidates - inside)
            value = prices[q] * mass + solve(inside)[0] + solve(outside)[0]
            if value < best:
                best = value
                best_q = q
        return best, best_q

    builder = _Builder("Optimal")

    def build(candidates: frozenset[int]) -> int:
        """Append the subtree for ``candidates``; a parent precedes its
        children, so the root is plan node 0."""
        node = builder.new_node()
        if len(candidates) == 1:
            builder.target[node] = next(iter(candidates))
            return node
        _, q = solve(candidates)
        inside = candidates & reach[q]
        builder.query[node] = q
        builder.set_child(node, True, build(inside))
        builder.set_child(node, False, build(candidates - inside))
        return node

    build(frozenset(range(hierarchy.n)))
    return builder.finish(hierarchy, "")


def optimal_worst_case_cost(hierarchy: Hierarchy) -> int:
    """Minimum worst-case number of questions (the WIGS optimum)."""
    reach = _prepare(hierarchy)

    @lru_cache(maxsize=None)
    def solve(candidates: frozenset[int]) -> int:
        if len(candidates) <= 1:
            return 0
        best = len(candidates)  # querying one-by-one always suffices
        for q in candidates:
            inside = candidates & reach[q]
            if len(inside) == len(candidates):
                continue
            outside = candidates - inside
            value = 1 + max(solve(inside), solve(frozenset(outside)))
            if value < best:
                best = value
        return best

    return solve(frozenset(range(hierarchy.n)))


def greedy_reference_cost(
    hierarchy: Hierarchy,
    distribution: TargetDistribution,
) -> float:
    """Expected cost of the *exact* middle-point greedy, computed by DP.

    Unlike the policy classes this resolves greedy ties by exploring the
    recursion directly, which gives tests a tie-independent reference: any
    middle-point choice yields a cost within the same guarantee.
    """
    reach = _prepare(hierarchy)
    probs = distribution.as_array(hierarchy)

    @lru_cache(maxsize=None)
    def solve(candidates: frozenset[int]) -> float:
        if len(candidates) <= 1:
            return 0.0
        mass = sum(probs[v] for v in candidates)
        # Find the middle point (Definition 4) among useful queries.
        best_q = None
        best_gap = float("inf")
        for q in sorted(candidates):
            inside = candidates & reach[q]
            if len(inside) == len(candidates):
                continue
            gap = abs(2.0 * sum(probs[v] for v in inside) - mass)
            if gap < best_gap:
                best_gap = gap
                best_q = q
        inside = candidates & reach[best_q]
        outside = candidates - inside
        return mass + solve(inside) + solve(frozenset(outside))

    return solve(frozenset(range(hierarchy.n)))
