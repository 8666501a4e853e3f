"""Compile-once / execute-many plans for deterministic search policies.

The public surface of the compile/execute split:

* :func:`compile_policy` — freeze a policy's whole interactive behaviour
  into an immutable, picklable :class:`CompiledPlan`;
* :meth:`CompiledPlan.start` — a tiny per-session :class:`SearchCursor`
  (``propose/observe/done/result`` plus exact ``undo``), any number of which
  execute one shared plan concurrently;
* :class:`LazyPlan` — the memoizing variant for serve-while-compiling loops
  (online labelling, interactive consoles);
* :meth:`CompiledPlan.save` / :meth:`CompiledPlan.load` — explicit plan
  files; :func:`plan_key` — the configuration content hash that keys the
  engine-result cache (:mod:`repro.engine.cache`).
"""

from repro.plan.compile import compile_policy, plan_key
from repro.plan.lazy import LazyPlan
from repro.plan.plan import NO_PATH, ROOT, CompiledPlan, SearchCursor

__all__ = [
    "NO_PATH",
    "ROOT",
    "CompiledPlan",
    "LazyPlan",
    "SearchCursor",
    "compile_policy",
    "plan_key",
]
