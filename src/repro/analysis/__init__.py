"""repro.analysis — invariant linter, protocol checker, schedule explorer.

Static half (``python -m repro.analysis`` / ``repro lint``): nine
AST-level rules encoding the invariants the plan/sweep/serve stack is
built on — exact undo (RPA001), compiled-plan immutability (RPA002),
shared-memory lifecycle (RPA003), hot-path determinism (RPA004),
process-boundary exception discipline (RPA005), pickle hygiene
(RPA006), the cross-process message-tag protocol (RPA007),
acquire/release resource pairing (RPA008) and fault-site registry
discipline for ``schedule_point`` labels (RPA009).  RPA002/RPA005/RPA007/RPA008
are interprocedural: each file's :class:`~repro.analysis.callgraph.
ModuleCallGraph` closes call edges and return-alias taint transitively
within the module.  Diagnostics print as ``file:line: RPAxxx message``
(or as GitHub workflow annotations with ``--format=github``);
suppression is inline (``# repro: noqa RPA003 - reason``) or via a
committed baseline file.

Runtime half, part one (:mod:`repro.analysis.sanitize`, enabled with
``REPRO_SANITIZE=1``): array freezing for the reachability caches, a
worker leak check asserted when the sweep executor closes, and an
undo-integrity checker that fingerprints policy state around the plan
compiler's undo-DFS.

Runtime half, part two (:mod:`repro.analysis.schedule`, enabled with
``REPRO_SCHEDULE=1``): a deterministic-schedule concurrency explorer —
cooperative tasks yield at instrumented :func:`~repro.analysis.schedule.
schedule_point` sites and a virtual scheduler enumerates interleavings
(bounded DFS) or samples them (seeded PCT-style random priorities),
replaying any failing schedule from its printed trace or seed.

The linter proves what is provable from source; the sanitizers and the
schedule explorer catch the path- and interleaving-sensitive remainder
in tests.
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
