"""Regenerate ``golden.json``: the pinned outputs the in-process ops check.

The values are the program's outputs at the commit that introduced the
benchmark.  Regenerate them only for a change that is meant to alter
results, and say so in that change:

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json

import common
from inproc import GOLDEN, WORKLOADS


def main() -> None:
    golden: dict[str, dict] = {}
    for name, cls in sorted(WORKLOADS.items()):
        table: dict = {}
        for variant in range(common.VARIANTS):
            workload = cls(variant)
            indices = range(common.TRACES) if name == "online-dag" else [0]
            for index in indices:
                output, _ = workload.op(index)
                table[workload.golden_key(index)] = output
        golden[name] = table
        print(f"{name}: {len(table)} outputs pinned")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
