"""Expected-cost evaluation of policies.

For a deterministic policy the expected cost (Equation 2) equals
``sum_z p(z) * cost(z)`` over the support of the target distribution.  When
the support is large, :func:`evaluate_expected_cost` switches to an unbiased
Monte-Carlo estimate (targets sampled from ``p``), which is how the scaled
experiments keep DAG evaluation affordable.

All per-target costs come from the vectorized simulation engine
(:func:`repro.engine.simulate_all_targets`): one pass over the policy's
compiled plan on flat index arrays, instead of one ``run_search`` — with
its per-target policy reset and oracle build — per target.  The numbers are
identical to the per-target loop (the engine's parity tests assert
equality); only the time to produce them changed.  A pre-compiled
:class:`~repro.plan.CompiledPlan` can be passed in place of the policy to
reuse one compilation across evaluations, and ``plan_cache`` persists
compilations across runs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.costs import QueryCostModel, UnitCost
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.policy import Policy
from repro.engine import simulate_all_targets, simulate_policies
from repro.exceptions import SearchError
from repro.plan import CompiledPlan


@dataclass(frozen=True)
class EvaluationResult:
    """Expected cost of one policy under one distribution."""

    policy: str
    expected_queries: float
    expected_price: float
    num_targets: int
    #: "exact" (full support) or "monte-carlo"
    method: str
    per_target: dict[Hashable, int] | None = field(default=None, repr=False)


def _result_from_engine(
    engine,
    hierarchy: Hierarchy,
    targets,
    weights: np.ndarray | None,
    method: str,
    keep_per_target: bool,
) -> EvaluationResult:
    """Aggregate one engine result into an :class:`EvaluationResult`.

    Shared by the single-policy and the batch entry points so the numbers
    of ``compare_policies`` are — by construction — the same aggregation
    of the same per-target arrays the per-policy path uses.
    Duplicate Monte-Carlo samples index the same engine entry repeatedly,
    so the unweighted mean weighs each target by its sample multiplicity.
    """
    index = np.fromiter(
        (hierarchy.index(z) for z in targets),
        dtype=np.int64,
        count=len(targets),
    )
    per_query = engine.queries[index].astype(float)
    per_price = engine.prices[index]
    if weights is not None:
        total_queries = float(weights @ per_query)
        total_price = float(weights @ per_price)
    else:
        total_queries = float(per_query.mean())
        total_price = float(per_price.mean())
    per_target: dict[Hashable, int] | None = None
    if keep_per_target:
        per_target = {z: int(q) for z, q in zip(targets, per_query)}
    return EvaluationResult(
        policy=engine.policy,
        expected_queries=total_queries,
        expected_price=total_price,
        num_targets=len(targets),
        method=method,
        per_target=per_target,
    )


def _exact_weights(
    distribution: TargetDistribution, support: list[Hashable]
) -> np.ndarray:
    return np.fromiter(
        (distribution.p(z) for z in support),
        dtype=float,
        count=len(support),
    )


def evaluate_expected_cost(
    policy: Policy | CompiledPlan,
    hierarchy: Hierarchy,
    distribution: TargetDistribution,
    *,
    cost_model: QueryCostModel | None = None,
    max_targets: int | None = None,
    rng: np.random.Generator | None = None,
    targets: list[Hashable] | None = None,
    keep_per_target: bool = False,
    check_correctness: bool = True,
    plan_cache=None,
    result_cache=None,
) -> EvaluationResult:
    """Exact or Monte-Carlo expected cost of a policy or compiled plan.

    Parameters
    ----------
    max_targets:
        When the distribution's support exceeds this, switch to Monte-Carlo
        with ``max_targets`` sampled targets (requires ``rng``).  ``None``
        (default) forces the exact all-support evaluation.
    targets:
        Explicit Monte-Carlo target sample (already drawn from ``p``); used
        by :func:`repro.evaluation.comparison.compare_policies` so that every
        policy faces the same sample.  Duplicates count with multiplicity.
    check_correctness:
        Assert the policy returns the true target on every simulated search.
    plan_cache:
        Forwarded to the engine: a :class:`~repro.plan.PlanCache` or
        directory path for persisting compiled plans across runs.
    result_cache:
        Forwarded to the engine: an
        :class:`~repro.engine.EngineResultCache` or directory path; an
        unchanged configuration re-run skips the evaluation entirely.
    """
    model = cost_model or UnitCost()
    support = sorted(distribution.support, key=str)
    if not support:
        raise SearchError("distribution has empty support")

    weights: np.ndarray | None
    if targets is not None:
        method = "monte-carlo"
        weights = None
    elif max_targets is not None and len(support) > max_targets:
        if rng is None:
            raise SearchError("Monte-Carlo evaluation needs an rng")
        targets = distribution.sample(rng, size=max_targets)
        method = "monte-carlo"
        weights = None
    else:
        targets = support
        method = "exact"
        weights = _exact_weights(distribution, support)

    engine = simulate_all_targets(
        policy,
        hierarchy,
        distribution,
        model,
        targets=targets,
        check_correctness=check_correctness,
        plan_cache=plan_cache,
        result_cache=result_cache,
    )
    return _result_from_engine(
        engine, hierarchy, targets, weights, method, keep_per_target
    )


def evaluate_policies_expected_cost(
    policies: Sequence[Policy | CompiledPlan],
    hierarchy: Hierarchy,
    distribution: TargetDistribution,
    *,
    cost_model: QueryCostModel | None = None,
    targets: list[Hashable] | None = None,
    keep_per_target: bool = False,
    check_correctness: bool = True,
    plan_cache=None,
    result_cache=None,
) -> tuple[EvaluationResult, ...]:
    """Expected costs of several policies under one shared configuration.

    The batch counterpart of :func:`evaluate_expected_cost`, built on
    :func:`repro.engine.simulate_policies`: every policy faces the *same*
    target set (``targets`` for a shared Monte-Carlo sample, the full
    support otherwise) so the comparison stays paired.  Numbers are
    identical to calling :func:`evaluate_expected_cost` per policy.
    """
    model = cost_model or UnitCost()
    support = sorted(distribution.support, key=str)
    if not support:
        raise SearchError("distribution has empty support")
    if targets is not None:
        method = "monte-carlo"
        weights = None
    else:
        targets = support
        method = "exact"
        weights = _exact_weights(distribution, support)

    engines = simulate_policies(
        policies,
        hierarchy,
        distribution,
        model,
        targets=targets,
        check_correctness=check_correctness,
        plan_cache=plan_cache,
        result_cache=result_cache,
    )
    return tuple(
        _result_from_engine(
            engine, hierarchy, targets, weights, method, keep_per_target
        )
        for engine in engines
    )


def worst_case_cost(
    policy: Policy | CompiledPlan,
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None = None,
    *,
    targets: Iterable[Hashable] | None = None,
    result_cache=None,
) -> int:
    """Maximum query count over the given targets (default: all nodes)."""
    engine = simulate_all_targets(
        policy,
        hierarchy,
        distribution,
        targets=targets,
        check_correctness=False,
        result_cache=result_cache,
    )
    return engine.worst_case()
