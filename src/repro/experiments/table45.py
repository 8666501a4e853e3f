"""Experiments ``table4``/``table5`` — synthetic distributions (Tables IV, V).

Cost of every competitor under the four synthetic probability settings
(equal, uniform, exponential, Zipf a=2), averaged over seeded trials.  The
paper's findings to reproduce:

* the oblivious baselines (TopDown, MIGS, WIGS) are flat across settings;
* the greedy policies win everywhere, and win *more* the more skewed the
  distribution is (Zipf >> exponential > uniform > equal).
"""

from __future__ import annotations

import numpy as np

from repro.core.distribution import SYNTHETIC_FAMILIES, TargetDistribution
from repro.evaluation.comparison import compare_policies
from repro.experiments.datasets import Dataset, build_datasets
from repro.experiments.reporting import Table
from repro.experiments.scale import SMALL, Scale
from repro.experiments.table3 import policies_for

#: Paper Tables IV and V, for side-by-side reporting.
PAPER_VALUES = {
    "Amazon": {
        "equal": {"TopDown": 81.17, "MIGS": 80.81, "WIGS": 27.42, "Greedy": 25.35},
        "uniform": {"TopDown": 81.28, "MIGS": 81.19, "WIGS": 27.47, "Greedy": 23.68},
        "exponential": {"TopDown": 82.42, "MIGS": 81.65, "WIGS": 27.37, "Greedy": 22.70},
        "zipf": {"TopDown": 82.09, "MIGS": 81.94, "WIGS": 27.55, "Greedy": 14.03},
    },
    "ImageNet": {
        "equal": {"TopDown": 123.31, "MIGS": 126.12, "WIGS": 34.56, "Greedy": 31.48},
        "uniform": {"TopDown": 125.82, "MIGS": 124.66, "WIGS": 34.55, "Greedy": 28.66},
        "exponential": {"TopDown": 125.41, "MIGS": 127.39, "WIGS": 34.57, "Greedy": 27.00},
        "zipf": {"TopDown": 125.24, "MIGS": 133.48, "WIGS": 34.74, "Greedy": 14.41},
    },
}


def run_dataset(
    dataset: Dataset,
    scale: Scale,
    seed: int = 0,
    *,
    result_cache=None,
) -> Table:
    """One paper table (IV for the tree, V for the DAG).

    ``result_cache`` is forwarded to the engine (``None`` inherits the
    process default set by the CLI's ``--result-cache``), so re-running
    unchanged trials skips their evaluations.
    """
    number = "IV" if dataset.hierarchy.is_tree else "V"
    table = Table(
        f"Table {number} — cost under synthetic distributions on "
        f"{dataset.name} (scale={scale.name}, {scale.trials} trials)",
        ("Distribution", "TopDown", "MIGS", "WIGS", "Greedy", "paper Greedy"),
    )
    for family in SYNTHETIC_FAMILIES:
        sums: dict[str, float] = {}
        greedy_name = ""
        for trial in range(scale.trials):
            rng = np.random.default_rng(
                [seed, trial, SYNTHETIC_FAMILIES.index(family)]
            )
            distribution = TargetDistribution.synthetic(
                family, dataset.hierarchy, rng
            )
            comparison = compare_policies(
                policies_for(dataset),
                dataset.hierarchy,
                distribution,
                hierarchy_name=dataset.name,
                distribution_name=family,
                max_targets=scale.max_targets,
                rng=rng,
                result_cache=result_cache,
            )
            for result in comparison.results:
                sums[result.policy] = (
                    sums.get(result.policy, 0.0) + result.expected_queries
                )
            greedy_name = comparison.results[-1].policy
        row = {
            name: total / scale.trials for name, total in sums.items()
        }
        table.add_row(
            {
                "Distribution": family,
                "TopDown": row["TopDown"],
                "MIGS": row["MIGS"],
                "WIGS": row["WIGS"],
                "Greedy": row[greedy_name],
                "paper Greedy": PAPER_VALUES[dataset.name][family]["Greedy"],
            }
        )
    return table


def run(
    scale: Scale = SMALL,
    seed: int = 0,
    *,
    dataset_name: str | None = None,
    result_cache=None,
) -> list[Table]:
    datasets = build_datasets(scale, seed)
    selected = [
        d for d in datasets if dataset_name is None or d.name == dataset_name
    ]
    return [
        run_dataset(d, scale, seed, result_cache=result_cache)
        for d in selected
    ]


def main(scale: Scale = SMALL, seed: int = 0) -> str:
    output = "\n\n".join(t.render() for t in run(scale, seed))
    print(output)
    return output
