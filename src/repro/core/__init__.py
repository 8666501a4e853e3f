"""Core substrate: hierarchies, distributions, oracles, and the IGS framework."""

from repro.core.candidate import CandidateGraph
from repro.core.costs import QueryCostModel, TableCost, UnitCost, random_costs
from repro.core.distribution import SYNTHETIC_FAMILIES, TargetDistribution
from repro.core.hierarchy import DUMMY_ROOT, Hierarchy
from repro.core.oracle import (
    CountingOracle,
    ErrorRateModel,
    ExactOracle,
    MajorityVoteOracle,
    NoisyOracle,
    Oracle,
)
from repro.core.policy import Policy, PolicyFactory
from repro.core.session import (
    SearchResult,
    default_budget,
    run_search,
    search_for_target,
)

__all__ = [
    "CandidateGraph",
    "CountingOracle",
    "DUMMY_ROOT",
    "ErrorRateModel",
    "ExactOracle",
    "Hierarchy",
    "MajorityVoteOracle",
    "NoisyOracle",
    "Oracle",
    "Policy",
    "PolicyFactory",
    "QueryCostModel",
    "SearchResult",
    "SYNTHETIC_FAMILIES",
    "TableCost",
    "TargetDistribution",
    "UnitCost",
    "default_budget",
    "random_costs",
    "run_search",
    "search_for_target",
]
