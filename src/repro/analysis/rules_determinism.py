"""RPA004 — determinism inside the plan/engine/serve hot paths.

Everything downstream of ``repro.plan``, ``repro.engine`` and
``repro.serve`` is gated on **bit-identity**: the same configuration must
produce byte-identical arrays whether descended in one pass, walked per
node, run per session, or (noisy sweeps) sharded over ``jobs=N`` on a
cold or warm executor — the hypothesis suites in
``tests/test_bit_identity.py`` and ``tests/test_belief.py`` diff them
literally.  Three
classes of nondeterminism keep sneaking into such code:

* **wall-clock reads** — ``time.*``, ``datetime.now``/``utcnow``/
  ``today``: any value derived from them differs per run and per shard;
* **global RNG** — stdlib ``random`` module-level calls and numpy's
  legacy ``np.random.*`` global functions: hidden mutable state that
  interleaves differently under any concurrency (seeded
  ``np.random.default_rng`` generators are fine — the seed travels with
  the call site);
* **unordered-set iteration feeding array construction** —
  ``np.array(set(...))``, ``np.fromiter((f(x) for x in {...}), ...)``:
  set order depends on insertion history and hash seed, so two processes
  can build differently-ordered arrays from equal sets.  ``sorted(...)``
  around the set restores a canonical order and is accepted.

The rule only applies to files under ``repro/plan/``, ``repro/engine/``
and ``repro/serve/``; experiment drivers and benchmarks are free to read
clocks.  Scheduling-only uses inside the scoped packages (liveness-poll
timeouts, backoff sleeps — they affect *when* results arrive, never what
they contain) are acknowledged inline with ``# repro: noqa RPA004``.

Under the ``tests`` lint profile the package gate is dropped — every
analyzed file is in scope, which is how ``tests/`` and ``benchmarks/``
are linted — but wall-clock verdicts are suppressed there: timing code
legitimately reads clocks, while global-RNG use and set-fed array
construction are exactly as nondeterministic in a test as in the
library (a flaky fixture is a flaky suite).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import resolve
from repro.analysis.diagnostics import Diagnostic

CODES = {
    "RPA004": (
        "determinism: no wall-clock, global-RNG, or unordered-set-fed "
        "array construction inside repro/plan, repro/engine, repro/serve"
    ),
}

#: numpy constructors whose element order is the iteration order of their
#: input — feeding them a set bakes nondeterministic order into an array.
_ARRAY_BUILDERS = frozenset(
    {
        "numpy.array",
        "numpy.asarray",
        "numpy.ascontiguousarray",
        "numpy.fromiter",
        "numpy.concatenate",
        "numpy.stack",
        "numpy.hstack",
        "numpy.vstack",
    }
)

#: Explicitly allowed numpy.random entry points (construction of *seeded*
#: generators; determinism is the call site's seed discipline).
_NP_RANDOM_ALLOWED = frozenset(
    {"numpy.random.default_rng", "numpy.random.Generator",
     "numpy.random.PCG64", "numpy.random.SeedSequence"}
)

_DATETIME_NOW = ("datetime.now", "datetime.utcnow", "datetime.today",
                 "date.today")


def _call_verdict(resolved: str, *, clocks: bool = True) -> str | None:
    if not clocks and (
        resolved.startswith(("time.", "datetime."))
        or any(resolved.endswith(suffix) for suffix in _DATETIME_NOW)
    ):
        return None
    if resolved.startswith("time."):
        return (
            f"wall-clock call {resolved}() in a bit-identity code path — "
            "clock values differ per run/shard; thread timing through "
            "arguments or move it out of plan/engine/serve"
        )
    if resolved.startswith("datetime.") or resolved.endswith(_DATETIME_NOW):
        if any(resolved.endswith(suffix) for suffix in _DATETIME_NOW):
            return (
                f"{resolved}() reads the wall clock — nondeterministic in "
                "a bit-identity code path"
            )
        return None
    if resolved.startswith("random."):
        return (
            f"global-RNG call {resolved}() — stdlib random shares hidden "
            "mutable state across call sites; pass a seeded "
            "np.random.Generator instead"
        )
    if (
        resolved.startswith("numpy.random.")
        and resolved not in _NP_RANDOM_ALLOWED
    ):
        return (
            f"legacy global-RNG call {resolved}() — the numpy global "
            "generator interleaves nondeterministically; use a seeded "
            "default_rng generator"
        )
    return None


def _set_feed(node: ast.expr) -> ast.expr | None:
    """A set-typed subexpression whose iteration order reaches the array.

    Scans the argument subtree, skipping anything wrapped in ``sorted()``
    (canonical order restored).  Returns the offending node, if any.
    """
    stack = [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Call):
            callee = sub.func
            if isinstance(callee, ast.Name) and callee.id == "sorted":
                continue  # order normalized below here
            if isinstance(callee, ast.Name) and callee.id in (
                "set",
                "frozenset",
            ):
                return sub
        if isinstance(sub, (ast.Set, ast.SetComp)):
            return sub
        stack.extend(ast.iter_child_nodes(sub))
    return None


def check(ctx) -> Iterator[Diagnostic]:
    tests_profile = getattr(ctx, "profile", "repro") == "tests"
    if not tests_profile and not ctx.in_package("plan", "engine", "serve"):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = resolve(node.func, ctx.imports)
        if resolved is not None:
            message = _call_verdict(resolved, clocks=not tests_profile)
            if message is not None:
                yield ctx.diagnostic(node, "RPA004", message)
                continue
            if resolved in _ARRAY_BUILDERS:
                for arg in node.args:
                    offender = _set_feed(arg)
                    if offender is not None:
                        yield ctx.diagnostic(
                            node,
                            "RPA004",
                            "array built from unordered-set iteration — "
                            "set order is insertion- and hash-dependent; "
                            "sort (or index) before building the array",
                        )
                        break
