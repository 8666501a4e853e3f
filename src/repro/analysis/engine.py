"""The analyzer driver: walk files, parse, dispatch rules, filter, report.

One :class:`FileContext` is built per analyzed source file (AST, import
map, source lines); each registered rule receives it and yields
:class:`~repro.analysis.diagnostics.Diagnostic` findings.  Suppression is
layered afterwards — inline ``# repro: noqa RPAxxx`` first, then the
optional baseline file — so a rule never needs to know about either.

Rules are registered in :data:`RULES`; ``--select``/``--ignore`` narrow
the active set by code.  Adding a rule means adding a module under
:mod:`repro.analysis` with a ``CODES`` tuple and a ``check(ctx)``
generator, and listing it here.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.analysis import (
    astutil,
    callgraph,
    rules_determinism,
    rules_faults,
    rules_plan,
    rules_process,
    rules_undo,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    apply_baseline,
    apply_noqa,
    load_baseline,
    noqa_codes,
)
from repro.exceptions import AnalysisError

#: Registered rule modules, in code order.  Each exposes ``CODES``
#: (the diagnostic codes it may emit) and ``check(ctx)``.
RULE_MODULES = (
    rules_undo,
    rules_plan,
    rules_determinism,
    rules_process,
    rules_faults,
)

#: Lint profiles scope rules to the kind of tree being analyzed.
#: ``repro`` (the default) is the full ruleset with package scoping as
#: each rule defines it; ``tests`` is the subset that makes sense on
#: test/benchmark code — every analyzed file is in scope (no
#: ``repro/<pkg>`` gate), but wall-clock verdicts are suppressed (timing
#: tests legitimately read clocks; global-RNG and set-fed-array findings
#: still apply).
PROFILES = ("repro", "tests")

#: Code -> one-line description, for ``--list-rules`` and the README.
RULES: dict[str, str] = {}
for _mod in RULE_MODULES:
    RULES.update(_mod.CODES)


class FileContext:
    """Everything a rule needs about one source file."""

    def __init__(
        self, path: Path, source: str, *, profile: str = "repro"
    ) -> None:
        self.path = path
        #: Display path (as given on the command line, posix separators).
        self.display = path.as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.imports = astutil.import_map(self.tree)
        #: Active lint profile (see :data:`PROFILES`).
        self.profile = profile
        self._callgraph: callgraph.ModuleCallGraph | None = None
        #: Path parts after the last ``repro`` component (empty when the
        #: file is outside a ``repro`` package checkout) — rules scoped to
        #: repo subpackages (RPA004) key off this.
        parts = path.parts
        self.repro_parts: tuple[str, ...] = ()
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == "repro":
                self.repro_parts = parts[i + 1 :]
                break

    @property
    def callgraph(self) -> callgraph.ModuleCallGraph:
        """The file's module call graph, built on first use and shared by
        every rule that needs interprocedural facts."""
        if self._callgraph is None:
            self._callgraph = callgraph.ModuleCallGraph(self.tree)
        return self._callgraph

    def in_package(self, *packages: str) -> bool:
        """True when the file lives under ``repro/<one of packages>/``."""
        return len(self.repro_parts) >= 2 and self.repro_parts[0] in packages

    def diagnostic(self, node: ast.AST, code: str, message: str) -> Diagnostic:
        line = getattr(node, "lineno", 1)
        text = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        return Diagnostic(self.display, line, code, message, text)


def _iter_py_files(paths: Iterable) -> Iterator[Path]:
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise AnalysisError(f"no such file or directory: {path}")
        candidates = (
            sorted(path.rglob("*.py")) if path.is_dir() else [path]
        )
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _active_codes(
    select: Iterable[str] | None, ignore: Iterable[str] | None
) -> frozenset[str]:
    def normalize(codes: Iterable[str]) -> frozenset[str]:
        out = set()
        for chunk in codes:
            for code in str(chunk).replace(",", " ").split():
                code = code.upper()
                if code not in RULES:
                    raise AnalysisError(
                        f"unknown rule code {code!r} "
                        f"(known: {', '.join(sorted(RULES))})"
                    )
                out.add(code)
        return frozenset(out)

    active = normalize(select) if select else frozenset(RULES)
    if ignore:
        active -= normalize(ignore)
    return active


def _check_profile(profile: str) -> str:
    if profile not in PROFILES:
        raise AnalysisError(
            f"unknown lint profile {profile!r} "
            f"(known: {', '.join(PROFILES)})"
        )
    return profile


def _sort_key(diag: Diagnostic) -> tuple[str, int, str, str]:
    """The canonical diagnostic order: (file, line, code, message).

    Explicit — not the dataclass field order — so output and baselines
    stay byte-identical across runs, shuffled input paths, and any future
    ``--jobs``-style parallel analysis that merges per-file results.
    """
    return (diag.path, diag.line, diag.code, diag.message)


def check_source(
    source: str,
    path: Path | str = "<string>",
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    profile: str = "repro",
) -> list[Diagnostic]:
    """Analyze one source string; the unit the fixture tests drive."""
    active = _active_codes(select, ignore)
    try:
        ctx = FileContext(Path(path), source, profile=_check_profile(profile))
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    findings: list[Diagnostic] = []
    for module in RULE_MODULES:
        if active.isdisjoint(module.CODES):
            continue
        findings.extend(
            d for d in module.check(ctx) if d.code in active
        )
    findings = apply_noqa(findings, noqa_codes(ctx.lines))
    findings.sort(key=_sort_key)
    return findings


def lint_paths(
    paths: Iterable,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    baseline: str | None = None,
    profile: str = "repro",
) -> list[Diagnostic]:
    """Analyze files/directories; returns surviving diagnostics, sorted."""
    findings: list[Diagnostic] = []
    for path in _iter_py_files(paths):
        try:
            source = path.read_text()
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        findings.extend(
            check_source(
                source, path, select=select, ignore=ignore, profile=profile
            )
        )
    if baseline is not None:
        findings = apply_baseline(findings, load_baseline(baseline))
    findings.sort(key=_sort_key)
    return findings
