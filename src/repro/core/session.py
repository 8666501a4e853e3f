"""The interactive search driver — the paper's ``FrameworkIGS`` (Algorithm 1).

:func:`run_search` plays a policy — or a per-session cursor of a compiled
plan (:mod:`repro.plan`) — against an oracle until the target is identified,
recording the transcript, the number of questions, and the total price under
a query-cost model.  A query budget guards against non-terminating policies;
a correct policy never needs more than one question per node (every question
eliminates at least one candidate).

Passing a :class:`~repro.plan.CompiledPlan` (or
:class:`~repro.plan.LazyPlan`) instead of a policy skips all per-session
policy work: the search is a pointer walk over the plan's decision
structure, which is how one shared plan serves many concurrent sessions.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.core.costs import QueryCostModel, UnitCost
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.oracle import ExactOracle, Oracle
from repro.core.policy import Policy
from repro.exceptions import SearchError


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one interactive search."""

    #: Node the policy reported as the target.
    returned: Hashable
    #: Number of questions asked.
    num_queries: int
    #: Total price under the session's cost model.
    total_price: float
    #: The full ``(query, answer)`` transcript, in order.
    transcript: tuple[tuple[Hashable, bool], ...] = field(repr=False)

    def queries(self) -> tuple[Hashable, ...]:
        """Just the sequence of queried nodes."""
        return tuple(q for q, _ in self.transcript)


def default_budget(hierarchy: Hierarchy, max_queries: int | None = None) -> int:
    """The session/compile query budget: ``max_queries`` or ``2 n + 10``.

    One question per node suffices for a correct policy (every question
    eliminates at least one candidate); doubling plus slack keeps the
    guard far from legitimate searches while still bounding broken
    policies.  Every layer that needs the default (runtime, compiler,
    lazy plans, engine, server) shares this
    helper so the admission budget can never desynchronize from the
    execution budget.
    """
    return max_queries if max_queries is not None else 2 * hierarchy.n + 10


def start_session(
    policy,
    hierarchy: Hierarchy | None,
    distribution: TargetDistribution | None,
    cost_model: QueryCostModel | None,
    *,
    reset: bool = True,
) -> tuple[object, Hierarchy]:
    """Normalise a policy or plan into a ready-to-drive session executor.

    Returns ``(executor, hierarchy)`` where the executor implements the
    ``propose()/observe()/done()/result()`` protocol: the policy itself
    (reset unless ``reset`` is false) or a fresh
    :class:`~repro.plan.SearchCursor` for plan-like inputs (anything with a
    ``start()`` method).
    """
    if isinstance(policy, Policy):
        if hierarchy is None:
            raise SearchError("a policy needs an explicit hierarchy")
        if reset:
            policy.reset(hierarchy, distribution, cost_model or UnitCost())
        return policy, hierarchy
    start = getattr(policy, "start", None)
    if callable(start):
        plan_hierarchy = getattr(policy, "hierarchy", None)
        if hierarchy is None:
            hierarchy = plan_hierarchy
        if hierarchy is None:
            raise SearchError("plan carries no hierarchy and none was given")
        if (
            plan_hierarchy is not None
            and hierarchy is not plan_hierarchy
            and hierarchy.fingerprint() != plan_hierarchy.fingerprint()
        ):
            raise SearchError(
                "the given hierarchy does not match the plan's node "
                "indexing and edges (stale plan?)"
            )
        return start(), hierarchy
    raise SearchError(
        f"expected a Policy or a compiled plan, got {type(policy).__name__}"
    )


def run_search(
    policy,
    oracle: Oracle,
    hierarchy: Hierarchy | None = None,
    distribution: TargetDistribution | None = None,
    cost_model: QueryCostModel | None = None,
    *,
    max_queries: int | None = None,
    reset: bool = True,
) -> SearchResult:
    """Drive a policy or compiled plan against ``oracle`` until done.

    Parameters
    ----------
    policy:
        A :class:`~repro.core.policy.Policy`, or a plan-like object
        (:class:`~repro.plan.CompiledPlan` / :class:`~repro.plan.LazyPlan`)
        from which a fresh per-session cursor is started.
    oracle, hierarchy, distribution, cost_model:
        The search configuration.  ``distribution`` is what the policy
        *believes* about the target; the oracle holds the truth.  Plans were
        compiled with their configuration baked in, so for them
        ``distribution`` is ignored and ``hierarchy`` defaults to the plan's
        own; ``cost_model`` still prices the transcript.
    max_queries:
        Query budget; defaults to ``2 * n + 10``.  Exceeding it raises
        :class:`~repro.exceptions.BudgetExceededError` (a policy bug).
    reset:
        Pass ``False`` if the caller already reset the policy (e.g. to reuse
        precomputed state).  Ignored for plans (cursors start fresh).

    Returns
    -------
    SearchResult
        With the returned node, query count, price, and transcript.
    """
    # The loop itself lives in repro.serve.runtime.SessionRuntime — the one
    # propose/observe engine shared with the online simulator, the console,
    # and the streaming server.  Imported lazily: repro.serve imports this
    # module for SearchResult/start_session.
    from repro.serve.runtime import SessionRuntime

    runtime = SessionRuntime(
        policy,
        hierarchy,
        distribution,
        cost_model,
        max_queries=max_queries,
        reset=reset,
    )
    return runtime.run(oracle)


def search_for_target(
    policy,
    hierarchy: Hierarchy | None = None,
    target: Hashable = None,
    distribution: TargetDistribution | None = None,
    cost_model: QueryCostModel | None = None,
    **kwargs,
) -> SearchResult:
    """Convenience wrapper: search with a truthful oracle for ``target``."""
    if hierarchy is None:
        if isinstance(policy, Policy):  # a policy's .hierarchy may be stale
            raise SearchError("a policy needs an explicit hierarchy")
        hierarchy = getattr(policy, "hierarchy", None)
        if hierarchy is None:
            raise SearchError("plan carries no hierarchy and none was given")
    oracle = ExactOracle(hierarchy, target)
    return run_search(
        policy, oracle, hierarchy, distribution, cost_model, **kwargs
    )
