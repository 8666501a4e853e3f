"""Reproduction of *Cost-Effective Algorithms for Average-Case Interactive
Graph Search* (Cong, Tang, Huang, Chen, Chee — ICDE 2022).

Quickstart — one interactive search::

    from repro import Hierarchy, TargetDistribution, search_for_target
    from repro.policies import GreedyTreePolicy

    h = Hierarchy([("vehicle", "car"), ("car", "nissan"), ("nissan", "sentra")])
    dist = TargetDistribution({"vehicle": .1, "car": .1, "nissan": .2, "sentra": .6})
    result = search_for_target(GreedyTreePolicy(), h, target="sentra", distribution=dist)
    print(result.returned, result.num_queries)

Serving many sessions — compile the policy once, execute per session::

    from repro import compile_policy

    plan = compile_policy(GreedyTreePolicy(), h, dist)  # one-time cost
    cursor = plan.start()                # per-session: a tiny cursor
    while not cursor.done():
        answer = ask_the_user(cursor.propose())
        cursor.observe(answer)
    print(cursor.result())

    plan.save("catalog.plan")            # persist; CompiledPlan.load(...)

See ``README.md`` for the system inventory, the simulation engine, and the
benchmark numbers, and ``ROADMAP.md`` for where this is heading; the
``examples/`` directory has runnable walkthroughs of every workflow.
"""

from repro.core import (
    CandidateGraph,
    CountingOracle,
    ErrorRateModel,
    ExactOracle,
    Hierarchy,
    MajorityVoteOracle,
    NoisyOracle,
    Oracle,
    Policy,
    QueryCostModel,
    SearchResult,
    TableCost,
    TargetDistribution,
    UnitCost,
    random_costs,
    run_search,
    search_for_target,
)
from repro.engine import (
    EngineResult,
    EngineResultCache,
    NoisyResult,
    VectorPolicy,
    set_default_jobs,
    set_default_result_cache,
    simulate_all_targets,
    simulate_noisy,
)
from repro.exceptions import (
    BudgetExceededError,
    CostModelError,
    CycleError,
    DistributionError,
    HierarchyError,
    OracleError,
    PlanError,
    PolicyError,
    ReproError,
    SearchError,
)
from repro.plan import (
    CompiledPlan,
    LazyPlan,
    SearchCursor,
    compile_policy,
    plan_key,
)
from repro.serve import (
    Server,
    SessionOutcome,
    SessionRequest,
    SessionRuntime,
)

__version__ = "1.2.0"

__all__ = [
    "BudgetExceededError",
    "CandidateGraph",
    "CompiledPlan",
    "CostModelError",
    "CountingOracle",
    "CycleError",
    "DistributionError",
    "EngineResult",
    "EngineResultCache",
    "ErrorRateModel",
    "ExactOracle",
    "Hierarchy",
    "HierarchyError",
    "LazyPlan",
    "MajorityVoteOracle",
    "NoisyOracle",
    "NoisyResult",
    "Oracle",
    "OracleError",
    "PlanError",
    "Policy",
    "PolicyError",
    "QueryCostModel",
    "ReproError",
    "SearchCursor",
    "SearchError",
    "SearchResult",
    "Server",
    "SessionOutcome",
    "SessionRequest",
    "SessionRuntime",
    "TableCost",
    "TargetDistribution",
    "UnitCost",
    "VectorPolicy",
    "compile_policy",
    "plan_key",
    "random_costs",
    "run_search",
    "search_for_target",
    "set_default_jobs",
    "set_default_result_cache",
    "simulate_all_targets",
    "simulate_noisy",
    "__version__",
]
