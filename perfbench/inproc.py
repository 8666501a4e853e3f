"""One round of an in-process workload: ``paper-eval`` or ``online-dag``.

Runs as its own process (started by ``run.py``).  It sets up the workload
(dataset and stream build plus one warm-up op), then runs ops one at a
time in whole cycles for about ``--seconds``, checks every op's output
against the pinned values in ``golden.json``, and prints one JSON line
with the measurements.  With
``--trace 1`` the program's public calls are wrapped (``tracing.py``) for
the timed ops, and the line also carries the per-layer metrics.

    PYTHONPATH=src python3 perfbench/inproc.py --workload paper-eval \
        --seed 3 --seconds 3
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import common

GOLDEN = Path(__file__).resolve().parent / "golden.json"


class PaperEval:
    """Table III as ``python -m repro table3`` computes it, minus printing."""

    #: Throughput counts Table III evaluations.
    units_per_op = 1
    #: Every op does the same work.
    cycle = 1

    def __init__(self, variant: int) -> None:
        from repro.experiments.datasets import build_datasets
        from repro.experiments.scale import SMALL
        from repro.experiments.table3 import run_dataset

        self.variant = variant
        self.scale = SMALL
        self.run_dataset = run_dataset
        self.datasets = build_datasets(SMALL, common.DATASET_SEED)

    def op(self, index: int):
        """Both datasets' rows; returns (output, questions simulated)."""
        rows = []
        questions = 0.0
        for dataset in self.datasets:
            comparison = self.run_dataset(dataset, self.scale, self.variant)
            for result in comparison.results:
                rows.append(
                    [
                        dataset.name,
                        result.policy,
                        result.expected_queries,
                        result.expected_price,
                    ]
                )
                questions += result.expected_queries * result.num_targets
        return rows, questions

    def golden_key(self, index: int) -> str:
        return str(self.variant)


class OnlineDag:
    """Fig. 4 traces: GreedyDAG labelling a catalog stream on the fly."""

    units_per_op = common.TRACE_OBJECTS
    #: Op ``i`` labels trace ``i % TRACES``; the traces differ in cost.
    cycle = common.TRACES

    def __init__(self, variant: int) -> None:
        import numpy as np

        from repro.experiments.datasets import build_datasets
        from repro.experiments.scale import SMALL
        from repro.online import simulate_online_labeling
        from repro.policies import GreedyDagPolicy

        self.variant = variant
        self.simulate = simulate_online_labeling
        self.policy_cls = GreedyDagPolicy
        _, self.dataset = build_datasets(SMALL, common.DATASET_SEED)
        self.streams = [
            self.dataset.catalog.stream(
                np.random.default_rng([variant, 40, trace]),
                max_objects=common.TRACE_OBJECTS,
            )
            for trace in range(common.TRACES)
        ]

    def op(self, index: int):
        result = self.simulate(
            self.policy_cls(),
            self.dataset.hierarchy,
            self.streams[index % common.TRACES],
            block_size=common.TRACE_BLOCK,
            refresh_every=common.TRACE_REFRESH,
        )
        questions = sum(
            size * cost
            for size, cost in zip(result.block_sizes, result.block_costs)
        )
        return list(result.block_costs), round(questions)

    def golden_key(self, index: int) -> str:
        return f"{self.variant}/{index % common.TRACES}"


WORKLOADS = {"paper-eval": PaperEval, "online-dag": OnlineDag}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    # Imports are not set-up: a user pays them once per interpreter.
    import repro.experiments.table3  # noqa: F401
    import repro.online  # noqa: F401

    golden = json.loads(GOLDEN.read_text())[args.workload]
    variant = args.seed % common.VARIANTS

    attempted = failed = 0

    def checked(workload, index) -> tuple[bool, float]:
        nonlocal attempted, failed
        attempted += 1
        try:
            output, questions = workload.op(index)
        except Exception as exc:  # a crashing op is a failed op
            print(
                f"op {index} raised {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            failed += 1
            return False, 0.0
        ok = output == golden[workload.golden_key(index)]
        failed += not ok
        return ok, questions

    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](variant)
    checked(workload, 0)  # warm-up op: lazy caches fill here
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True

    # Whole cycles only, so every round times the same mix of ops.  The
    # round ends at the cycle boundary nearest its ``--seconds``.
    ops = []
    cpu = common.CpuWindow()
    start = time.perf_counter()
    index = 0
    while True:
        cycle_began = time.perf_counter()
        for _ in range(workload.cycle):
            if tracer is not None:
                tracer.session = index
            began = time.perf_counter()
            ok, questions = checked(workload, index)
            elapsed = time.perf_counter() - began
            ops.append(
                {
                    "s": elapsed,
                    "slot": index % workload.cycle,
                    "questions": questions,
                    "ok": ok,
                }
            )
            index += 1
        now = time.perf_counter()
        if now - start + (now - cycle_began) / 2 >= args.seconds:
            break
        if tracer is not None and tracer.num_spans >= common.MAX_SPANS:
            break
    cpu.stop()

    report = {
        "setup_s": setup_s,
        "ops": ops,
        "units_per_op": workload.units_per_op,
        "cycle": workload.cycle,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": common.peak_rss_mb(),
        "cpu_per_wall": cpu.ratio,
    }
    if tracer is not None:
        tracer.enabled = False
        units = len(ops) * workload.units_per_op
        report["per_layer"] = tracing.per_layer(
            tracer, units, {"process.cpu_per_wall": cpu.ratio}
        )
        if args.spans_out:
            tracer.dump(args.spans_out)
    common.emit(report)


if __name__ == "__main__":
    main()
