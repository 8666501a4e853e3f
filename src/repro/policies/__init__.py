"""Interactive search policies: the paper's greedy algorithms and baselines."""

from repro.policies.batched import (
    BatchedSearchResult,
    batched_search_for_target,
    run_batched_search,
)
from repro.policies.cost_sensitive import CostSensitiveGreedyPolicy
from repro.policies.greedy_dag import GreedyDagPolicy
from repro.policies.greedy_naive import GreedyNaivePolicy
from repro.policies.greedy_tree import GreedyTreePolicy
from repro.policies.migs import MigsPolicy
from repro.policies.optimal import (
    greedy_reference_cost,
    optimal_decision_tree,
    optimal_expected_cost,
    optimal_worst_case_cost,
)
from repro.policies.random_policy import RandomPolicy
from repro.policies.registry import available_policies, greedy_for, make_policy
from repro.policies.robust import (
    batched_repeated_search_majority,
    repeated_search_majority,
)
from repro.policies.topdown import TopDownPolicy
from repro.policies.wigs import WigsPolicy

__all__ = [
    "BatchedSearchResult",
    "CostSensitiveGreedyPolicy",
    "batched_search_for_target",
    "run_batched_search",
    "GreedyDagPolicy",
    "GreedyNaivePolicy",
    "GreedyTreePolicy",
    "MigsPolicy",
    "RandomPolicy",
    "TopDownPolicy",
    "batched_repeated_search_majority",
    "repeated_search_majority",
    "WigsPolicy",
    "available_policies",
    "greedy_for",
    "greedy_reference_cost",
    "make_policy",
    "optimal_decision_tree",
    "optimal_expected_cost",
    "optimal_worst_case_cost",
]
