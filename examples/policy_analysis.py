"""Inspecting a policy before paying for it: compiled-plan analysis.

Before sending a labelling job to the crowd, a practitioner wants to know
how many questions searches will take, how lopsided the depth distribution
is, and which questions dominate the bill.  This script analyses the greedy
policy on an Amazon-like tree and prints that report next to the
information-theoretic floor.

Run:  python examples/policy_analysis.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import compile_policy
from repro.evaluation import analyze
from repro.policies import GreedyTreePolicy, WigsPolicy
from repro.taxonomy import amazon_catalog, amazon_like


def main() -> None:
    hierarchy = amazon_like(500, seed=7)
    distribution = amazon_catalog(hierarchy, num_objects=25_000).to_distribution()

    for policy in (GreedyTreePolicy(), WigsPolicy()):
        plan = compile_policy(policy, hierarchy, distribution)
        report = analyze(plan, distribution)
        print(f"=== {plan.policy_name} on a {hierarchy.n}-category tree ===")
        print(f"expected questions : {report.expected_cost:.2f}")
        print(f"worst case         : {report.worst_case_cost}")
        print(
            f"entropy floor      : {report.entropy_bound:.2f} bits "
            f"(efficiency {report.efficiency:.0%})"
        )
        print("depth distribution :")
        for depth in sorted(report.depth_distribution):
            mass = report.depth_distribution[depth]
            if mass >= 0.01:
                print(f"  {depth:3d} questions  {'#' * round(mass * 50):50s} {mass:5.1%}")
        print("hottest questions  :")
        for query, mass in report.hottest_queries(5):
            print(f"  {str(query):12s} asked in {mass:6.1%} of searches")
        print()


if __name__ == "__main__":
    main()
