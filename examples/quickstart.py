"""Quickstart: interactive graph search on the paper's Fig. 1 hierarchy.

Builds the 7-node vehicle taxonomy, runs the greedy policy against a
truthful oracle, then compiles the policy into an immutable plan
(`compile_policy`) and serves further searches from per-session cursors —
the compile-once / execute-many split used for production serving.  Also
compares the expected cost of every policy (reproducing Example 2's 2.04
vs 2.60).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (
    ExactOracle,
    Hierarchy,
    TargetDistribution,
    compile_policy,
    search_for_target,
)
from repro.policies import GreedyTreePolicy, TopDownPolicy, WigsPolicy
from repro.viz import render_decision_tree, render_hierarchy


def main() -> None:
    # The image-categorization hierarchy of the paper's Fig. 1.
    hierarchy = Hierarchy(
        [
            ("Vehicle", "Car"),
            ("Car", "Nissan"),
            ("Car", "Honda"),
            ("Car", "Mercedes"),
            ("Nissan", "Maxima"),
            ("Nissan", "Sentra"),
        ]
    )
    # ...with the stated category proportions.
    distribution = TargetDistribution(
        {
            "Vehicle": 0.04,
            "Car": 0.02,
            "Nissan": 0.08,
            "Honda": 0.04,
            "Mercedes": 0.02,
            "Maxima": 0.40,
            "Sentra": 0.40,
        }
    )

    print("Category hierarchy:")
    print(render_hierarchy(hierarchy, distribution=distribution))

    # Categorise one image whose true label is "Honda".
    result = search_for_target(
        GreedyTreePolicy(), hierarchy, "Honda", distribution
    )
    print(f"\nSearching for a Honda image took {result.num_queries} questions:")
    for query, answer in result.transcript:
        print(f"  is it reachable from {query!r}?  ->  {'yes' if answer else 'no'}")
    print(f"  identified: {result.returned!r}")

    # Serving many sessions: compile once, then each search is a tiny
    # cursor over the immutable plan — no per-session policy work.
    plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
    print(f"\nCompiled plan: {plan.num_questions} questions, "
          f"{plan.num_leaves} leaves")
    for target in ("Sentra", "Mercedes"):
        oracle = ExactOracle(hierarchy, target)
        cursor = plan.start()
        while not cursor.done():
            cursor.observe(oracle.answer(cursor.propose()))
        print(f"  cursor identified {cursor.result()!r} "
              f"in {cursor.num_queries} questions")

    # Expected cost of each policy (Example 2: 2.04 greedy vs 2.60 WIGS),
    # straight off each policy's compiled plan.
    print("\nExpected number of questions per image:")
    for policy in (GreedyTreePolicy(), WigsPolicy(), TopDownPolicy()):
        compiled = compile_policy(policy, hierarchy, distribution)
        print(
            f"  {policy.name:12s} expected={compiled.expected_cost(distribution):.2f}"
            f"  worst-case={compiled.worst_case_cost()}"
        )

    print("\nGreedy decision tree:")
    print(render_decision_tree(plan))


if __name__ == "__main__":
    main()
