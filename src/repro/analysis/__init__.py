"""repro.analysis — invariant linter, runtime sanitizers, boundary hook.

Static half (``python -m repro.analysis`` / ``repro lint``): six
AST-level rules encoding the invariants the plan/sweep/serve stack is
built on — exact undo (RPA001), compiled-plan immutability (RPA002),
hot-path determinism (RPA004), exception discipline (RPA005), pickle
hygiene (RPA006) and fault-site registry discipline for
``schedule_point`` labels (RPA009).  RPA002 is interprocedural: each
file's :class:`~repro.analysis.callgraph.ModuleCallGraph` closes
return-alias taint transitively within the module.  Diagnostics print
as ``file:line: RPAxxx message`` (or as GitHub workflow annotations with
``--format=github``); suppression is inline
(``# repro: noqa RPA004 - reason``) or via a committed baseline file.

Runtime half (:mod:`repro.analysis.sanitize`, enabled with
``REPRO_SANITIZE=1``): array freezing for the reachability caches, a
worker leak check asserted when the sweep executor closes, and an
undo-integrity checker that fingerprints policy state around the plan
compiler's undo-DFS.

The boundary hook (:mod:`repro.analysis.schedule`):
:func:`~repro.analysis.schedule.schedule_point` marks the stack's
operation boundaries, where :mod:`repro.faults` injects failures.

The linter proves what is provable from source; the sanitizers and the
fault plans catch the path-sensitive remainder in tests.
"""

from repro.analysis.callgraph import ModuleCallGraph
from repro.analysis.diagnostics import (
    Diagnostic,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import PROFILES, RULES, check_source, lint_paths

__all__ = [
    "Diagnostic",
    "ModuleCallGraph",
    "PROFILES",
    "RULES",
    "check_source",
    "lint_paths",
    "load_baseline",
    "write_baseline",
]
