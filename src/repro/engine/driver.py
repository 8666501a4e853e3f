"""The multi-session simulation driver: all targets of a hierarchy, one pass.

The paper's evaluation protocol (Eq. 2 and the Fig. 4–6 / Table 2–5 drivers)
scores a deterministic policy by the cost of one interactive search per
target.  The seed implementation literally ran ``run_search`` once per
target, resetting the policy and rebuilding an oracle every time — an
``O(n)``-per-target loop and the dominant cost of every experiment.

Under Eq. 2 a target's cost is the depth of its leaf in the policy's
decision tree, so evaluating a compiled plan only has to move every
requested target down that tree.  :func:`simulate_all_targets` does
exactly that on :class:`~repro.plan.CompiledPlan` arrays:

1. the policy is compiled once — the compiler proposes at each decision
   point exactly once, backtracking with exact answer reversal
   (:meth:`~repro.core.policy.Policy.undo`) — or the caller passes an
   already-compiled (possibly cache-loaded) plan;
2. the descent (:func:`_descend`) moves all requested targets down the
   plan together, one level per pass: one batched exact-oracle call
   (:func:`repro.engine.vector.make_answerer`) answers every target's
   question on that level, and each target takes its yes or no child;
3. a target that reaches a leaf settles: its depth and accumulated price
   land in per-target arrays.

The per-target bookkeeping is pure numpy, and the policy work — zero for a
shared/cached plan — is proportional to the number of *distinct* questions
(≤ 2n − 1), not the sum of all per-target search depths.  Two special
cases: a sampled (Monte-Carlo) target set compiles only the part of the
plan the sample reaches (:func:`repro.plan.compile.compile_reached`)
unless a full plan is already on disk, or a plan cache stores the full
plan for later runs to load (done for samples of at least
``n / height`` targets), so a one-shot sampled run never builds
branches that nothing descends; and a third-party policy without exact
undo falls back to a transcript-replay adapter (one ``run_search`` per
target) — compiling it by prefix replay would cost the same as that loop
with nothing amortised.  Every registry policy has exact undo and
compiles by the undo DFS; tests drive the replay paths through
:class:`repro.testing.ForcedReplayPolicy`.  Registry and third-party
:class:`~repro.core.policy.Policy` objects alike produce identical
numbers through the same API.

Finished per-target cost arrays can also persist on disk, keyed by
configuration content hash (``result_cache`` on
:func:`simulate_all_targets`), so repeating an unchanged evaluation skips
compile and descent entirely (:mod:`repro.engine.cache`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from repro.core.costs import QueryCostModel, UnitCost
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.oracle import ExactOracle
from repro.core.policy import Policy
from repro.core.session import default_budget, run_search
from repro.engine.vector import is_vector_policy, make_answerer
from repro.exceptions import BudgetExceededError, SearchError
from repro.plan import (
    ROOT,
    CompiledPlan,
    as_plan_cache,
    compile_policy,
    get_default_cache,
)
from repro.plan.compile import check_leaf, compile_reached, plan_key


@dataclass(frozen=True)
class EngineResult:
    """Per-target costs of one policy over one hierarchy, as flat arrays.

    ``queries``/``prices`` are aligned to node indices (length ``n``);
    entries for targets outside the evaluated set hold ``-1`` / ``nan``.
    Aggregates are computed on demand, so evaluating all ``n`` targets never
    materialises ``n`` transcripts.
    """

    policy: str
    hierarchy: Hierarchy = field(repr=False)
    #: Evaluated target node indices (unique, ascending).
    target_ix: np.ndarray = field(repr=False)
    #: Query count per node index; ``-1`` where not evaluated.
    queries: np.ndarray = field(repr=False)
    #: Total price per node index; ``nan`` where not evaluated.
    prices: np.ndarray = field(repr=False)
    #: ``"plan"`` (descent of a compiled plan), ``"vector"`` (descent of
    #: the part of the plan an uncached sample reaches), or ``"replay"``
    #: (per-target adapter).
    method: str = "plan"
    #: Question nodes the descent visited (plan/vector) or queries
    #: simulated (replay).
    decision_nodes: int = 0
    #: Memoized :meth:`per_target` mapping (built on first request).
    _per_target: Mapping[Hashable, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def expected_queries(self, distribution: TargetDistribution) -> float:
        """Equation (2): ``sum_z p(z) * cost(z)`` over the evaluated targets."""
        probs = distribution.as_array(self.hierarchy)[self.target_ix]
        return float(probs @ self.queries[self.target_ix])

    def expected_price(self, distribution: TargetDistribution) -> float:
        """Equation (4): probability-weighted total price."""
        probs = distribution.as_array(self.hierarchy)[self.target_ix]
        return float(probs @ self.prices[self.target_ix])

    def mean_queries(self) -> float:
        """Unweighted average query count over the evaluated targets."""
        return float(self.queries[self.target_ix].mean())

    def mean_price(self) -> float:
        """Unweighted average price over the evaluated targets."""
        return float(self.prices[self.target_ix].mean())

    def worst_case(self) -> int:
        """Maximum query count over the evaluated targets."""
        return int(self.queries[self.target_ix].max())

    def query_count(self, target: Hashable) -> int:
        """Query count of one evaluated target."""
        count = int(self.queries[self.hierarchy.index(target)])
        if count < 0:
            raise SearchError(f"target {target!r} was not simulated")
        return count

    def total_price(self, target: Hashable) -> float:
        """Total price of one evaluated target."""
        self.query_count(target)  # raises on unevaluated targets
        return float(self.prices[self.hierarchy.index(target)])

    def per_target(self) -> Mapping[Hashable, int]:
        """``{target label: query count}`` for the evaluated targets.

        Built once and memoized (index-to-label translation over ``n``
        targets is not free), so repeated aggregate queries share one
        mapping; the returned view is read-only.
        """
        if self._per_target is None:
            label = self.hierarchy.label
            mapping = {
                label(int(ix)): int(self.queries[ix]) for ix in self.target_ix
            }
            object.__setattr__(self, "_per_target", MappingProxyType(mapping))
        return self._per_target

    def __getstate__(self):
        # The memoized proxy is not picklable (and cheap to rebuild);
        # results must stay shippable to workers / disk after inspection.
        state = self.__dict__.copy()
        state["_per_target"] = None
        return state

    @property
    def num_targets(self) -> int:
        return int(len(self.target_ix))


def simulate_all_targets(
    policy: Policy | CompiledPlan,
    hierarchy: Hierarchy | None = None,
    distribution: TargetDistribution | None = None,
    cost_model: QueryCostModel | None = None,
    *,
    targets: Iterable[Hashable] | None = None,
    check_correctness: bool = True,
    max_queries: int | None = None,
    plan_cache=None,
    result_cache=None,
) -> EngineResult:
    """Simulate a policy or compiled plan against every target in one pass.

    Produces, for each target, exactly the query count and total price that
    ``run_search`` with an :class:`ExactOracle` would produce — the parity
    tests assert equality, not approximation.

    Parameters
    ----------
    policy:
        A policy (compiled on the fly when it supports exact undo) or an
        already-compiled :class:`~repro.plan.CompiledPlan`.
    hierarchy:
        Required for policies; optional for plans (defaults to the plan's
        own hierarchy, and must have the same node indexing if given).
    targets:
        Restrict the evaluation to these labels (duplicates collapse).
        A sample compiles only the part of the plan it reaches
        (:func:`~repro.plan.compile.compile_reached`), checking only its
        own leaves, unless a full plan is passed or already on disk, or a
        plan cache will store the full plan for later runs (samples of at
        least ``n / height`` targets).  Default: all ``n`` nodes.
    check_correctness:
        Verify the policy identifies every simulated target.
    max_queries:
        Per-search budget, defaulting to ``2 n + 10`` as in ``run_search``.
        The descent enforces it on the evaluated targets; compiles keep
        their own ``2 n + 10`` bound, so a stored plan serves every budget
        and the outcome does not depend on the plan cache's state.  A
        budget above ``2 n + 10`` therefore holds only for a passed plan
        and for policies without exact undo (replayed per target); a
        policy compiled here that needs more questions raises the
        compile's :class:`~repro.exceptions.BudgetExceededError` at
        ``2 n + 10``.
    plan_cache:
        A :class:`~repro.plan.PlanCache` or directory path; compiled plans
        are loaded from / stored into it by configuration content hash.
        ``None`` falls back to :func:`repro.plan.get_default_cache`.
    result_cache:
        An :class:`~repro.engine.cache.EngineResultCache` or directory
        path persisting the per-target cost arrays by configuration +
        target-set content hash: a repeated run with unchanged policy/
        hierarchy/distribution/prices skips compile *and* descent.
        ``None`` falls back to
        :func:`~repro.engine.cache.get_default_result_cache`; ``False``
        disables result caching outright, *ignoring* the process default
        — callers that time the evaluation use this so an installed cache
        cannot turn their measurement into a disk load.
    """
    from repro.engine.cache import resolve_result_cache, result_key

    plan: CompiledPlan | None = None
    if isinstance(policy, CompiledPlan):
        plan = policy
        if hierarchy is None:
            hierarchy = plan.hierarchy
        elif (
            hierarchy is not plan.hierarchy
            and hierarchy.fingerprint() != plan.hierarchy.fingerprint()
        ):
            raise SearchError(
                "the given hierarchy does not match the plan's node "
                "indexing and edges"
            )
    elif hierarchy is None:
        raise SearchError("simulate_all_targets needs a hierarchy for a policy")

    model = cost_model or UnitCost()
    n = hierarchy.n
    if targets is None:
        target_ix = np.arange(n, dtype=np.int64)
    else:
        target_ix = np.unique(
            np.fromiter(
                (hierarchy.index(t) for t in targets), dtype=np.int64
            )
        )
        if target_ix.size == 0:
            raise SearchError("no targets to simulate")
    budget = default_budget(hierarchy, max_queries)

    # The configuration content hash (shared with the plan cache) keys the
    # persisted result; policies that cannot be fingerprinted reliably
    # (plan_cacheable false) are never cached.  Computed only when a cache
    # will actually consult it — it hashes the distribution/price arrays.
    _ckey: list[str | None] = [None]

    def config_key() -> str:
        if _ckey[0] is None:
            if plan is not None:
                _ckey[0] = plan.config_key
            elif not getattr(policy, "plan_cacheable", True):
                _ckey[0] = ""
            else:
                try:
                    _ckey[0] = plan_key(policy, hierarchy, distribution, model)
                except AttributeError:  # duck-typed, no fingerprint()
                    _ckey[0] = ""
        return _ckey[0]

    rcache = resolve_result_cache(result_cache)
    rkey = ""
    if rcache is not None and config_key():
        rkey = result_key(
            config_key(), target_ix, budget, model.as_array(hierarchy)
        )
        cached = rcache.get(
            rkey, hierarchy, require_checked=check_correctness
        )
        if cached is not None:
            return cached

    method = "plan"
    if plan is None and is_vector_policy(policy):
        cache = as_plan_cache(plan_cache) or get_default_cache()
        if target_ix.size < n:
            # Sampled (Monte-Carlo) evaluation.  Compiling would visit all
            # <= 2n - 1 decision points; the restricted compile only
            # proposes along branches the requested targets can reach
            # (~ |targets| * height decision points) and checks only
            # their leaves.  So: reuse a plan already on disk (a load is
            # cheaper than any compile).  A cache that stores plans
            # compiles the full plan so that later runs load it, at about
            # twice the cost of a one-shot restricted compile on Table
            # III's samples; it does so for samples of at least
            # n / height targets, a line no cached workload has measured.
            # Everything else compiles what it reaches.
            stores = cache is not None and bool(config_key())
            if stores:
                plan = cache.probe(config_key())
            if plan is None and not (
                stores and target_ix.size * max(hierarchy.height, 1) >= n
            ):
                method = "vector"
                plan = compile_reached(
                    policy,
                    hierarchy,
                    distribution,
                    model,
                    target_ix,
                    validate=check_correctness,
                )
        if plan is None:
            if cache is not None:
                plan = cache.get_or_compile(
                    policy,
                    hierarchy,
                    distribution,
                    model,
                    validate=check_correctness,
                )
            else:
                plan = compile_policy(
                    policy,
                    hierarchy,
                    distribution,
                    model,
                    validate=check_correctness,
                )

    queries = np.full(n, -1, dtype=np.int64)
    prices = np.full(n, np.nan, dtype=float)
    if plan is not None:
        label = plan.policy_name
        nodes = _descend(
            plan, hierarchy, model, target_ix, queries, prices, budget,
            check_correctness,
        )
    else:
        label, method = policy.name, "replay"
        nodes = _replay_targets(
            policy, hierarchy, distribution, model, target_ix,
            queries, prices, budget, check_correctness,
        )
    result = EngineResult(
        policy=label,
        hierarchy=hierarchy,
        target_ix=target_ix,
        queries=queries,
        prices=prices,
        method=method,
        decision_nodes=nodes,
    )
    if rkey:
        rcache.put(result, rkey, checked=check_correctness)
    return result


def simulate_policies(
    policies: Iterable[Policy | CompiledPlan],
    hierarchy: Hierarchy | None = None,
    distribution: TargetDistribution | None = None,
    cost_model: QueryCostModel | None = None,
    *,
    targets: Iterable[Hashable] | None = None,
    check_correctness: bool = True,
    max_queries: int | None = None,
    plan_cache=None,
    result_cache=None,
) -> list[EngineResult]:
    """Simulate several policies under one configuration.

    ``[simulate_all_targets(p, ...) for p in policies]``, with ``targets``
    materialised once so every policy faces the same target set.
    """
    if targets is not None:
        targets = list(targets)
    return [
        simulate_all_targets(
            policy, hierarchy, distribution, cost_model,
            targets=targets, check_correctness=check_correctness,
            max_queries=max_queries, plan_cache=plan_cache,
            result_cache=result_cache,
        )
        for policy in policies
    ]


# ----------------------------------------------------------------------
# The level-by-level descent over compiled-plan arrays
# ----------------------------------------------------------------------
def _descend(
    plan: CompiledPlan,
    hierarchy: Hierarchy,
    model: QueryCostModel,
    target_ix: np.ndarray,
    queries: np.ndarray,
    prices: np.ndarray,
    budget: int,
    check: bool,
) -> int:
    """Move every requested target down the plan, one level per pass.

    ``target_ix`` holds the requested targets in ascending order; all of
    them start at the root with price 0.0 and share one depth.  Each pass
    settles the targets whose node is a leaf (their depth and price land
    in ``queries``/``prices``), then answers every remaining target's
    question with one batched exact-oracle call
    (:func:`~repro.engine.vector.make_answerer`) and moves it to its yes
    or no child.  Prices add root-to-leaf in the order ``run_search``
    pays them, so they keep their bytes.  No policy code runs.  Returns
    the number of question nodes visited.

    Errors have the types and texts of the per-node depth-first walk that
    ``tests/test_bit_identity.py`` keeps as the reference: a wrong leaf
    under ``check`` (``check_leaf``'s text), a budget overrun, and a
    missing branch some target needs.  On a plan with one defect the
    error is the walk's; with several, the descent reports the shallowest,
    where the walk reports the first in DFS order.  Within a level it
    names the first affected target in index order.
    """
    price_vec = model.as_array(hierarchy)
    answer = make_answerer(hierarchy, len(target_ix))
    plan_query = plan.query_ix
    plan_yes = plan.yes_child
    plan_no = plan.no_child
    plan_target = plan.target_ix

    targets = target_ix
    node = np.full(len(targets), ROOT, dtype=np.int64)
    price = np.zeros(len(targets), dtype=float)
    reached = np.zeros(plan.num_nodes, dtype=bool)
    depth = 0
    while True:
        leaf = plan_target[node]
        settled = leaf >= 0
        if settled.any():
            done, done_leaf = targets[settled], leaf[settled]
            if check:
                wrong = np.flatnonzero(done != done_leaf)
                if wrong.size:
                    first = wrong[0]
                    check_leaf(
                        plan.policy_name, hierarchy, done[first : first + 1],
                        int(done_leaf[first]),
                    )
            queries[done] = depth
            prices[done] = price[settled]
            keep = ~settled
            targets, node, price = targets[keep], node[keep], price[keep]
        if not targets.size:
            return int(np.count_nonzero(reached))
        if depth >= budget:
            raise BudgetExceededError(
                f"{plan.policy_name} exceeded the query budget of {budget} "
                f"questions after {depth} questions in the plan walk"
            )
        reached[node] = True
        qix = plan_query[node]
        yes = answer(qix, targets)
        child = np.where(yes, plan_yes[node], plan_no[node])
        missing = np.flatnonzero(child < 0)
        if missing.size:
            raise _missing_branch(plan, hierarchy, node, yes, node[missing[0]])
        price += price_vec[qix]
        node = child
        depth += 1


def _missing_branch(
    plan: CompiledPlan,
    hierarchy: Hierarchy,
    node: np.ndarray,
    yes: np.ndarray,
    bad: int,
) -> SearchError:
    """The walk's error for plan node ``bad``: yes-branch first, then no."""
    at_bad = node == bad
    for branch, answered, child in (
        ("yes", True, plan.yes_child[bad]),
        ("no", False, plan.no_child[bad]),
    ):
        need = int(np.count_nonzero(at_bad & (yes == answered)))
        if need and child < 0:
            break
    return SearchError(
        f"plan of {plan.policy_name!r} has no {branch}-branch "
        f"for question {hierarchy.label(int(plan.query_ix[bad]))!r} but "
        f"{need} requested target(s) need it; was the plan "
        "compiled on a different hierarchy?"
    )


# ----------------------------------------------------------------------
# Transcript-replay adapter (policies the compiler cannot walk)
# ----------------------------------------------------------------------
def _replay_targets(
    policy: Policy,
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None,
    model: QueryCostModel,
    target_ix: np.ndarray,
    queries: np.ndarray,
    prices: np.ndarray,
    budget: int,
    check: bool,
) -> int:
    total_steps = 0
    for ix in target_ix:
        target = hierarchy.label(int(ix))
        result = run_search(
            policy,
            ExactOracle(hierarchy, target),
            hierarchy,
            distribution,
            model,
            max_queries=budget,
        )
        if check and result.returned != target:
            raise SearchError(
                f"{policy.name} returned {result.returned!r} "
                f"for target {target!r}"
            )
        queries[ix] = result.num_queries
        prices[ix] = result.total_price
        total_steps += result.num_queries
    return total_steps
