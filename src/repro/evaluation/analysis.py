"""Post-hoc analysis of a policy's decision tree (its compiled plan).

Summaries a practitioner wants before paying a crowd: how deep do searches
go, which questions get asked most (worth pricing carefully or caching), and
how close the policy sits to the entropy floor.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass

from repro.core.distribution import TargetDistribution
from repro.evaluation.bounds import efficiency, entropy_lower_bound
from repro.plan.plan import ROOT, CompiledPlan


@dataclass(frozen=True)
class PolicyAnalysis:
    """Summary statistics of one policy's decision tree."""

    expected_cost: float
    worst_case_cost: int
    entropy_bound: float
    #: expected bits of information per question, in (0, 1]
    efficiency: float
    #: number of questions -> probability a search asks exactly that many
    depth_distribution: dict[int, float]
    #: query node -> probability it is asked during a search
    query_frequency: dict[Hashable, float]

    def hottest_queries(self, top: int = 5) -> list[tuple[Hashable, float]]:
        """The most frequently asked questions (candidates for caching)."""
        ranked = sorted(
            self.query_frequency.items(), key=lambda kv: (-kv[1], str(kv[0]))
        )
        return ranked[:top]


def analyze(plan: CompiledPlan, distribution: TargetDistribution) -> PolicyAnalysis:
    """Compute the full analysis from a compiled plan's arrays."""
    label = plan.hierarchy.label
    query, yes, no, target = (
        plan.query_ix, plan.yes_child, plan.no_child, plan.target_ix
    )
    depth_mass: Counter = Counter()
    query_mass: Counter = Counter()

    # Iterative post-order: each internal node is "asked" by exactly the
    # probability mass of the leaves below it, accumulated bottom-up in one
    # pass (no recursion, no quadratic re-walks).  An answer no target is
    # consistent with (a NO_PATH child) carries no mass.
    mass: dict[int, float] = {}
    stack: list[tuple[int, int, bool]] = [(ROOT, 0, False)]
    while stack:
        node, depth, expanded = stack.pop()
        t = int(target[node])
        if t >= 0:
            p = distribution.p(label(t))
            depth_mass[depth] += p
            mass[node] = p
        elif not expanded:
            stack.append((node, depth, True))
            for child in (int(yes[node]), int(no[node])):
                if child >= 0:
                    stack.append((child, depth + 1, False))
        else:
            below = mass.get(int(yes[node]), 0.0) + mass.get(
                int(no[node]), 0.0
            )
            query_mass[label(int(query[node]))] += below
            mass[node] = below

    expected = plan.expected_cost(distribution)
    return PolicyAnalysis(
        expected_cost=expected,
        worst_case_cost=plan.worst_case_cost(),
        entropy_bound=entropy_lower_bound(distribution),
        efficiency=efficiency(expected, distribution),
        depth_distribution=dict(depth_mass),
        query_frequency=dict(query_mass),
    )
