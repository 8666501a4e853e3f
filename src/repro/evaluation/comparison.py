"""Side-by-side policy comparisons (the rows of Tables III-V).

Beyond the paper's expected-cost rows, this module reports *session-level*
metrics (:func:`session_metrics`): the distribution of per-session question
counts — median, tail percentiles, worst case — which is what a serving
operator watches (a policy with a fine mean but a heavy p99 makes some
users answer many questions).  Metrics come from the same engine arrays the
cost rows aggregate, so they are free once the plan descent ran.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.costs import QueryCostModel
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.policy import Policy
from repro.engine import EngineResult, simulate_policies
from repro.evaluation.expected_cost import (
    EvaluationResult,
    evaluate_policies_expected_cost,
)
from repro.plan import CompiledPlan


@dataclass(frozen=True)
class Comparison:
    """Expected costs of several policies under one configuration."""

    hierarchy_name: str
    distribution_name: str
    results: tuple[EvaluationResult, ...]

    def cost_of(self, policy_name: str) -> float:
        for result in self.results:
            if result.policy == policy_name:
                return result.expected_queries
        raise KeyError(policy_name)

    def savings_of(self, policy_name: str, versus: str) -> float:
        """Relative cost reduction of one policy versus another (in [0, 1])."""
        baseline = self.cost_of(versus)
        return (baseline - self.cost_of(policy_name)) / baseline

    def as_row(self) -> dict:
        row: dict = {"Distribution": self.distribution_name}
        for result in self.results:
            row[result.policy] = round(result.expected_queries, 2)
        return row


@dataclass(frozen=True)
class SessionMetrics:
    """Distribution of per-session question counts for one policy."""

    policy: str
    num_sessions: int
    mean_queries: float
    p50_queries: float
    p90_queries: float
    p99_queries: float
    worst_queries: int
    mean_price: float

    def as_row(self) -> dict:
        return {
            "Policy": self.policy,
            "mean": round(self.mean_queries, 2),
            "p50": round(self.p50_queries, 1),
            "p90": round(self.p90_queries, 1),
            "p99": round(self.p99_queries, 1),
            "max": self.worst_queries,
        }


def metrics_from_engine(engine: EngineResult) -> SessionMetrics:
    """Session-level metrics from one engine result's per-target arrays.

    Each evaluated target is one (simulated) user session; the question
    counts *are* the per-session interaction lengths a serving deployment
    would observe under a uniform session mix.
    """
    counts = engine.queries[engine.target_ix].astype(float)
    prices = engine.prices[engine.target_ix]
    p50, p90, p99 = np.percentile(counts, [50, 90, 99])
    return SessionMetrics(
        policy=engine.policy,
        num_sessions=int(counts.size),
        mean_queries=float(counts.mean()),
        p50_queries=float(p50),
        p90_queries=float(p90),
        p99_queries=float(p99),
        worst_queries=int(counts.max()),
        mean_price=float(prices.mean()),
    )


def session_metrics(
    policies: Sequence[Policy | CompiledPlan],
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None = None,
    *,
    cost_model: QueryCostModel | None = None,
    targets=None,
    result_cache=None,
) -> tuple[SessionMetrics, ...]:
    """Per-policy session-length distributions under one configuration.

    Built on :func:`repro.engine.simulate_policies`, like
    :func:`compare_policies`.  This is the *a-priori* view — what the
    session-length tail will look like before deploying a plan; the CLI
    ``serve`` mode reports the *observed* counterpart from the sessions it
    actually served.
    """
    engines = simulate_policies(
        policies,
        hierarchy,
        distribution,
        cost_model,
        targets=targets,
        result_cache=result_cache,
    )
    return tuple(metrics_from_engine(engine) for engine in engines)


def compare_policies(
    policies: Sequence[Policy | CompiledPlan],
    hierarchy: Hierarchy,
    distribution: TargetDistribution,
    *,
    hierarchy_name: str = "hierarchy",
    distribution_name: str = "distribution",
    cost_model: QueryCostModel | None = None,
    max_targets: int | None = None,
    rng: np.random.Generator | None = None,
    result_cache=None,
) -> Comparison:
    """Evaluate every policy (or pre-compiled plan) under one configuration.

    When Monte-Carlo evaluation kicks in (large support and ``max_targets``
    set), every policy is measured on the *same* sampled target set, so the
    comparison stays paired.

    Each policy is compiled once and scored by one descent of its plan
    (:func:`repro.evaluation.evaluate_policies_expected_cost`), so
    comparing k policies costs k descents, not ``k * |targets|``
    interactive searches; ``result_cache`` persists the per-target cost
    arrays (an unchanged configuration re-run skips the evaluations
    entirely).
    """
    targets = None
    if max_targets is not None and len(distribution.support) > max_targets:
        if rng is None:
            rng = np.random.default_rng(0)
        targets = distribution.sample(rng, size=max_targets)
    results = evaluate_policies_expected_cost(
        policies,
        hierarchy,
        distribution,
        cost_model=cost_model,
        targets=targets,
        result_cache=result_cache,
    )
    return Comparison(
        hierarchy_name=hierarchy_name,
        distribution_name=distribution_name,
        results=results,
    )
