"""Experiment ``noise`` — crowd noise and its mitigations (paper Section VII).

Not a paper artifact: the paper *motivates* noise handling as future work.
This experiment quantifies the starting point on the reproduction datasets —
labelling accuracy and query spend of the greedy policy under transient and
persistent crowd noise, with per-question majority voting, per-search
repetition, and posterior (MAP) stopping as mitigations.

Every strategy row is one :func:`repro.engine.belief.simulate_noisy` sweep:
all ``replications`` noisy searches of all sampled targets advance through
one compiled plan in a few vectorized steps, instead of one ``run_search``
per session.  With ``jobs=N`` the seven sweeps share one warm executor:
its workers start once and receive the plan once.  Accounting is honest under heavy noise — dead-ended and
budget-exhausted runs keep their query spend (they asked and paid; they
just failed), and the ``Failures`` column reports how many cells produced
no label at all.
"""

from __future__ import annotations

import numpy as np

from repro.core import ErrorRateModel
from repro.experiments.datasets import build_datasets
from repro.experiments.reporting import Table
from repro.experiments.scale import SMALL, Scale
from repro.plan import compile_policy
from repro.policies import greedy_for


def run(
    scale: Scale = SMALL,
    seed: int = 0,
    *,
    error_rate: float = 0.1,
    replications: int = 3,
    jobs: int | None = None,
) -> Table:
    amazon, _ = build_datasets(scale, seed)
    hierarchy = amazon.hierarchy
    distribution = amazon.real_distribution
    policy = greedy_for(hierarchy)
    rng = np.random.default_rng([seed, 80])
    sample_size = min(scale.max_targets or 150, 150)
    targets = distribution.sample(rng, size=sample_size)
    budget = 4 * hierarchy.n
    # Compile once; every strategy row walks the same frozen plan.
    plan = compile_policy(
        policy, hierarchy, distribution, max_depth=budget
    )

    transient = ErrorRateModel(error_rate)
    persistent = ErrorRateModel(error_rate, persistent=True)
    rows = [
        ("clean oracle", ErrorRateModel(0.0), {}),
        ("transient noise", transient, {}),
        ("transient + 5-vote majority", transient, {"votes": 5}),
        ("transient + 3 repeated searches", transient, {"repeats": 3}),
        ("transient + MAP stop @ 0.95", transient, {"map_threshold": 0.95}),
        ("persistent noise", persistent, {}),
        ("persistent + 3 repeated searches", persistent, {"repeats": 3}),
    ]

    table = Table(
        f"Noise study — greedy on {amazon.name}, error rate {error_rate:.0%} "
        f"(scale={scale.name}, {sample_size} targets x {replications} "
        f"replications)",
        ("Strategy", "Accuracy", "Avg questions", "Failures"),
    )
    from repro.engine.belief import simulate_noisy

    for name, model, extra in rows:
        result = simulate_noisy(
            plan,
            hierarchy,
            distribution,
            error_model=model,
            targets=targets,
            replications=replications,
            seed=seed,
            max_queries=budget,
            jobs=jobs,
            **extra,
        )
        table.add_row(
            {
                "Strategy": name,
                "Accuracy": f"{result.accuracy():.1%}",
                "Avg questions": result.mean_queries(),
                "Failures": f"{int(result.failed.sum())}/{result.labels.size}",
            }
        )
    return table


def main(
    scale: Scale = SMALL,
    seed: int = 0,
    *,
    error_rate: float = 0.1,
    replications: int = 3,
    jobs: int | None = None,
) -> str:
    output = run(
        scale,
        seed,
        error_rate=error_rate,
        replications=replications,
        jobs=jobs,
    ).render()
    print(output)
    return output
