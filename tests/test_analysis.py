"""The invariant linter (``repro.analysis``) and the runtime sanitizers.

Each RPA rule gets a fixture pair — source that must be flagged and the
closest conforming variant that must stay clean — plus the suppression
layers (inline noqa, baseline round-trip) and the ``REPRO_SANITIZE=1``
runtime checks (frozen caches, worker leak detection, undo integrity).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.analysis import (
    RULES,
    check_source,
    lint_paths,
    load_baseline,
    write_baseline,
)
from repro.analysis import sanitize
from repro.analysis.__main__ import main as lint_main
from repro.engine import (
    belief,
    close_sweep_executor,
    simulate_all_targets,
    simulate_noisy,
)
from repro.engine.belief import sweep_workers
from repro.exceptions import AnalysisError, SanitizerError
from repro.plan import compile_policy
from repro.policies import GreedyTreePolicy
from repro.testing import make_random_tree


def codes_of(findings):
    return sorted({d.code for d in findings})


def check(source, path="src/repro/mod.py", **kw):
    return check_source(source, path, **kw)


# ----------------------------------------------------------------------
# RPA001 — exact-undo conformance
# ----------------------------------------------------------------------
class TestUndoRule:
    def test_missing_revert_flagged(self):
        src = """
class P:
    supports_undo = True
    def _apply_answer(self, query, answer):
        self._undo_log.append((query, answer, None))
"""
        findings = check(src, select=["RPA001"])
        assert codes_of(findings) == ["RPA001"]
        assert "_revert_answer" in findings[0].message

    def test_unjournaled_apply_flagged(self):
        src = """
class P:
    supports_undo = True
    def _apply_answer(self, query, answer):
        self.state += 1
    def _revert_answer(self, query, answer, payload):
        self.state -= 1
"""
        findings = check(src, select=["RPA001"])
        assert any("_undo_log" in d.message for d in findings)

    def test_conforming_policy_clean(self):
        src = """
class P:
    supports_undo = True
    def _apply_answer(self, query, answer):
        self._undo_log.append((query, answer, self.state))
        self.state += 1
    def _revert_answer(self, query, answer, payload):
        self.state = payload
"""
        assert check(src, select=["RPA001"]) == []

    def test_discarded_journal_flagged(self):
        src = """
class Walker:
    def step(self, cg, label, answer):
        cg.apply_journaled(label, answer)
    def back(self, cg, journal):
        cg.restore(*journal)
"""
        findings = check(src, select=["RPA001"])
        assert any("discarded" in d.message for d in findings)

    def test_apply_without_restore_flagged(self):
        src = """
class Walker:
    def step(self, cg, label, answer):
        self.journal = cg.apply_journaled(label, answer)
"""
        findings = check(src, select=["RPA001"])
        assert any("restore" in d.message for d in findings)

    def test_paired_journal_clean(self):
        src = """
class Walker:
    def step(self, cg, label, answer):
        eliminated, old_root = cg.apply_journaled(label, answer)
        self.journal.append((eliminated, old_root))
    def back(self, cg):
        cg.restore(*self.journal.pop())
"""
        assert check(src, select=["RPA001"]) == []


# ----------------------------------------------------------------------
# RPA002 — compiled-plan immutability
# ----------------------------------------------------------------------
class TestPlanImmutabilityRule:
    def test_attribute_rebinding_flagged(self):
        src = "def hack(plan, arr):\n    plan._query = arr\n"
        findings = check(src, select=["RPA002"])
        assert codes_of(findings) == ["RPA002"]

    def test_item_store_flagged(self):
        src = "def hack(plan):\n    plan.query_ix[0] = 3\n"
        assert codes_of(check(src, select=["RPA002"])) == ["RPA002"]

    def test_aliased_item_store_flagged(self):
        src = """
def hack(plan):
    arrays = plan.payload_arrays()
    arrays["query"][0] = 3
"""
        assert codes_of(check(src, select=["RPA002"])) == ["RPA002"]

    def test_closure_alias_item_store_flagged(self):
        src = """
def hack(hierarchy):
    indptr, members = hierarchy.reachability_closure()
    members[0] = 3
"""
        assert codes_of(check(src, select=["RPA002"])) == ["RPA002"]

    def test_setflags_write_true_flagged(self):
        src = "def hack(arr):\n    arr.setflags(write=True)\n"
        findings = check(src, select=["RPA002"])
        assert any("setflags" in d.message for d in findings)

    def test_reads_and_copies_clean(self):
        src = """
import numpy as np

def walk(plan, nodes, answers):
    children = np.where(answers, plan.yes_child[nodes], plan.no_child[nodes])
    children[0] = 0  # fresh array from np.where, not a view
    return plan.query_ix[children]
"""
        assert check(src, select=["RPA002"]) == []

    def test_own_init_binding_clean(self):
        src = """
class WalkResult:
    def __init__(self, target_ix):
        self.target_ix = target_ix
"""
        assert check(src, select=["RPA002"]) == []

    def test_plan_constructor_module_exempt(self):
        src = "class CompiledPlan:\n    def _bind(self, q):\n        self._query = q\n"
        assert check(src, path="src/repro/plan/plan.py", select=["RPA002"]) == []
        assert check(src, path="src/repro/engine/x.py", select=["RPA002"]) != []


# ----------------------------------------------------------------------
# RPA004 — determinism in plan/engine/serve
# ----------------------------------------------------------------------
class TestDeterminismRule:
    ENGINE = "src/repro/engine/mod.py"

    def test_wall_clock_flagged_in_scope(self):
        src = "import time\n\ndef stamp():\n    return time.time()\n"
        assert codes_of(check(src, path=self.ENGINE, select=["RPA004"])) == ["RPA004"]

    def test_out_of_scope_module_clean(self):
        src = "import time\n\ndef stamp():\n    return time.time()\n"
        clean = check(src, path="src/repro/experiments/mod.py", select=["RPA004"])
        assert clean == []

    def test_global_rng_flagged(self):
        src = "import random\n\ndef pick(xs):\n    return random.choice(xs)\n"
        assert check(src, path=self.ENGINE, select=["RPA004"]) != []

    def test_legacy_numpy_rng_flagged_default_rng_clean(self):
        bad = "import numpy as np\n\ndef noise(n):\n    return np.random.rand(n)\n"
        good = (
            "import numpy as np\n\n"
            "def noise(n, seed):\n"
            "    return np.random.default_rng(seed).random(n)\n"
        )
        assert check(bad, path=self.ENGINE, select=["RPA004"]) != []
        assert check(good, path=self.ENGINE, select=["RPA004"]) == []

    def test_set_fed_array_flagged_sorted_clean(self):
        bad = (
            "import numpy as np\n\n"
            "def ids(labels, index):\n"
            "    return np.array({index[l] for l in labels})\n"
        )
        good = (
            "import numpy as np\n\n"
            "def ids(labels, index):\n"
            "    return np.array(sorted({index[l] for l in labels}))\n"
        )
        assert check(bad, path=self.ENGINE, select=["RPA004"]) != []
        assert check(good, path=self.ENGINE, select=["RPA004"]) == []


# ----------------------------------------------------------------------
# RPA005 — exception discipline
# ----------------------------------------------------------------------
class TestProcessExceptionRule:
    def test_bare_except_flagged(self):
        src = "def f(x):\n    try:\n        return x()\n    except:\n        return None\n"
        findings = check(src, select=["RPA005"])
        assert any("bare" in d.message for d in findings)

    def test_swallowed_broad_except_flagged(self):
        src = """
def f(walk, batch):
    try:
        frames = batch.split()
        results = [walk(f) for f in frames]
        return merge(results)
    except Exception:
        pass
"""
        assert check(src, select=["RPA005"]) != []

    def test_best_effort_teardown_clean(self):
        src = """
def drain(q):
    try:
        q.close()
    except Exception:
        pass
"""
        assert check(src, select=["RPA005"]) == []

# ----------------------------------------------------------------------
# RPA006 — pickle hygiene
# ----------------------------------------------------------------------
class TestPickleHygieneRule:
    def test_lambda_target_flagged(self):
        src = "def start(ctx, q):\n    return ctx.Process(target=lambda: q.put(1))\n"
        assert codes_of(check(src, select=["RPA006"])) == ["RPA006"]

    def test_nested_function_target_flagged(self):
        src = """
def start(ctx, q):
    def run():
        q.put(1)
    return ctx.Process(target=run)
"""
        assert codes_of(check(src, select=["RPA006"])) == ["RPA006"]

    def test_lambda_submit_flagged(self):
        src = "def go(pool, x):\n    return pool.submit(lambda: x + 1)\n"
        assert codes_of(check(src, select=["RPA006"])) == ["RPA006"]

    def test_module_level_target_clean(self):
        src = """
def _worker(q):
    q.put(1)

def start(ctx, q):
    return ctx.Process(target=_worker, args=(q,))
"""
        assert check(src, select=["RPA006"]) == []


# ----------------------------------------------------------------------
# RPA009 — fault-site registry discipline
# ----------------------------------------------------------------------
class TestFaultSiteRule:
    def test_registered_literal_clean(self):
        src = """
from repro.analysis.schedule import schedule_point

def collect():
    schedule_point("pool.collect")
"""
        assert check(src, select=["RPA009"]) == []

    def test_unregistered_label_flagged(self):
        src = """
from repro.analysis.schedule import schedule_point

def collect():
    schedule_point("pool.not_a_site")
"""
        findings = check(src, select=["RPA009"])
        assert len(findings) == 1
        assert "FAULT_SITES" in findings[0].message

    def test_computed_label_flagged(self):
        src = """
from repro.analysis.schedule import schedule_point

def collect(name):
    schedule_point("pool." + name)
"""
        findings = check(src, select=["RPA009"])
        assert len(findings) == 1
        assert "literal" in findings[0].message

    def test_unregistered_label_outside_repo_tree_tolerated(self):
        # Registration is only enforced for repo source; test helpers
        # with their own labels fall back to FaultInjectedError.
        src = """
from repro.analysis.schedule import schedule_point

def probe():
    schedule_point("scratch.site")
"""
        assert check(src, path="tests/helper.py", select=["RPA009"]) == []

    def test_registry_maps_every_site_to_repro_errors(self):
        from repro.exceptions import ReproError
        from repro.faults.sites import FAULT_SITES

        for label, exc in FAULT_SITES.items():
            assert isinstance(exc, type) and issubclass(exc, ReproError), label


# ----------------------------------------------------------------------
# Interprocedural alias taint (the call-graph layer under RPA002)
# ----------------------------------------------------------------------
class TestInterprocedural:
    def test_two_hop_alias_laundering_flagged(self):
        src = """
def _arrays(plan):
    return plan.query_ix

def _query(plan):
    return _arrays(plan)

def hack(plan):
    arr = _query(plan)
    arr[0] = 3
"""
        assert codes_of(check(src, select=["RPA002"])) == ["RPA002"]

    def test_copy_returning_helper_clean(self):
        src = """
def _snapshot(plan):
    return plan.query_ix.copy()

def fine(plan):
    arr = _snapshot(plan)
    arr[0] = 3
"""
        assert check(src, select=["RPA002"]) == []

# ----------------------------------------------------------------------
# Suppression: noqa and baseline
# ----------------------------------------------------------------------
class TestSuppression:
    BAD = "def hack(plan):\n    plan.query_ix[0] = 3{comment}\n"

    def test_noqa_with_matching_code_suppresses(self):
        src = self.BAD.format(
            comment="  # repro: noqa RPA002 - fixture justification"
        )
        assert check(src, select=["RPA002"]) == []

    def test_noqa_with_other_code_does_not_suppress(self):
        src = self.BAD.format(comment="  # repro: noqa RPA001 - wrong code")
        assert check(src, select=["RPA002"]) != []

    def test_blanket_noqa_without_codes_does_not_suppress(self):
        src = self.BAD.format(comment="  # repro: noqa")
        assert check(src, select=["RPA002"]) != []

    def test_baseline_round_trip(self, tmp_path):
        bad = tmp_path / "repro" / "engine" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        findings = lint_paths([bad])
        assert codes_of(findings) == ["RPA004"]

        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, findings)
        assert lint_paths([bad], baseline=str(baseline)) == []

        # A *new* finding is not covered by the old baseline.
        bad.write_text(
            "import time\n\n"
            "def stamp():\n    return time.time()\n\n"
            "def stamp2():\n    return time.monotonic()\n"
        )
        survivors = lint_paths([bad], baseline=str(baseline))
        assert len(survivors) == 1 and "monotonic" in survivors[0].message

    def test_corrupt_baseline_raises(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("{not json")
        with pytest.raises(AnalysisError):
            load_baseline(target)
        target.write_text('{"version": 99, "entries": []}')
        with pytest.raises(AnalysisError):
            load_baseline(target)

    def test_unknown_rule_code_raises(self):
        with pytest.raises(AnalysisError):
            check_source("x = 1\n", select=["RPA999"])


# ----------------------------------------------------------------------
# Driver and CLI
# ----------------------------------------------------------------------
class TestDriver:
    def test_rule_registry_complete(self):
        assert sorted(RULES) == [
            "RPA001", "RPA002", "RPA004", "RPA005", "RPA006", "RPA009",
        ]

    def test_repo_tree_is_clean(self):
        assert lint_paths(["src/repro"]) == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean), "-q"]) == 0

        bad = tmp_path / "bad.py"
        bad.write_text("def hack(plan):\n    plan.query_ix[0] = 3\n")
        assert lint_main([str(bad), "-q"]) == 1
        out = capsys.readouterr().out
        assert f"{bad.as_posix()}:2: RPA002" in out

        assert lint_main([str(tmp_path / "missing.py")]) == 2
        assert lint_main(["--select", "NOPE", str(clean)]) == 2

    def test_cli_write_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def hack(plan):\n    plan.query_ix[0] = 3\n")
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(bad), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert lint_main([str(bad), "--baseline", str(baseline), "-q"]) == 0

    def test_cli_command_delegation(self):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "src/repro", "-q"]) == 0

    def test_cli_github_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def hack(plan):\n    plan.query_ix[0] = 3\n")
        assert lint_main([str(bad), "--format=github"]) == 1
        out = capsys.readouterr().out
        assert (
            f"::error file={bad.as_posix()},line=2,title=RPA002::" in out
        )

    def test_cli_unknown_ignore_code_fails_loudly(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main(["--ignore", "RPA999", str(clean)]) == 2
        assert "RPA999" in capsys.readouterr().err

    def test_diagnostics_order_is_input_order_independent(self, tmp_path):
        one = tmp_path / "a_mod.py"
        one.write_text(
            "def hack(plan):\n"
            "    plan.query_ix[0] = 3\n"
            "    plan.yes_child[0] = 1\n"
        )
        two = tmp_path / "z_mod.py"
        two.write_text("def hack(plan):\n    plan.no_child[0] = 7\n")
        forward = lint_paths([one, two])
        backward = lint_paths([two, one])
        assert forward == backward
        keys = [(d.path, d.line, d.code, d.message) for d in forward]
        assert keys == sorted(keys)


# ----------------------------------------------------------------------
# Lint profiles (tests/benchmarks trees)
# ----------------------------------------------------------------------
class TestLintProfiles:
    def test_unknown_profile_rejected(self):
        with pytest.raises(AnalysisError, match="profile"):
            check("x = 1\n", profile="nope")

    def test_tests_profile_scopes_rpa004_everywhere(self):
        # Outside the repro package RPA004 is normally silent; the tests
        # profile drops the package gate so test/bench code is audited.
        src = "import numpy as np\n\ndef seed():\n    np.random.seed(0)\n"
        assert check(src, path="tests/test_x.py", select=["RPA004"]) == []
        findings = check(
            src, path="tests/test_x.py", select=["RPA004"], profile="tests"
        )
        assert codes_of(findings) == ["RPA004"]

    def test_tests_profile_tolerates_wall_clock(self):
        # Tests time things legitimately; the determinism rule keeps its
        # RNG checks but drops wall-clock verdicts under this profile.
        src = "import time\n\ndef elapsed(t0):\n    return time.time() - t0\n"
        assert (
            check(
                src, path="tests/test_x.py", select=["RPA004"],
                profile="tests",
            )
            == []
        )

    def test_cli_profile_flag(self, tmp_path, capsys):
        bad = tmp_path / "test_timing.py"
        bad.write_text("import numpy as np\n\ndef s():\n    np.random.seed(0)\n")
        assert lint_main([str(bad), "-q"]) == 0  # out of scope by default
        assert lint_main([str(bad), "--profile", "tests", "-q"]) == 1

    def test_repo_test_and_bench_trees_clean_under_tests_profile(self):
        findings = lint_paths(
            ["tests", "benchmarks"],
            select=["RPA004", "RPA006"],
            profile="tests",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Baseline drift
# ----------------------------------------------------------------------
class TestBaselineDrift:
    SRC = (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
    )

    def _baselined(self, tmp_path):
        mod = tmp_path / "repro" / "engine" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(self.SRC)
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, lint_paths([mod]))
        return mod, baseline

    def test_line_move_stays_suppressed(self, tmp_path):
        mod, baseline = self._baselined(tmp_path)
        mod.write_text("# one\n# two\n# three\n" + self.SRC)
        assert lint_paths([mod], baseline=str(baseline)) == []

    def test_content_change_resurfaces(self, tmp_path):
        mod, baseline = self._baselined(tmp_path)
        mod.write_text(self.SRC.replace("time.time()", "time.time() + 1"))
        survivors = lint_paths([mod], baseline=str(baseline))
        assert codes_of(survivors) == ["RPA004"]


# ----------------------------------------------------------------------
# Runtime sanitizers (REPRO_SANITIZE=1)
# ----------------------------------------------------------------------
@pytest.fixture
def sanitizing(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


class TestSanitizers:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()
        for value in ("0", "false", "off", ""):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()

    def test_plan_arrays_reject_writes(self, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        with pytest.raises(ValueError):
            plan.query_ix[0] = 7
        with pytest.raises(ValueError):
            plan.payload_arrays()["target"][0] = 7

    def test_reachability_caches_frozen_when_sanitizing(
        self, sanitizing, vehicle_hierarchy
    ):
        matrix = vehicle_hierarchy.reachability_matrix()
        with pytest.raises(ValueError):
            matrix[0, 0] = False
        tin, tout = vehicle_hierarchy.tree_intervals()
        with pytest.raises(ValueError):
            tin[0] = 99
        with pytest.raises(ValueError):
            tout[0] = 99
        indptr, members = vehicle_hierarchy.reachability_closure()
        with pytest.raises(ValueError):
            indptr[0] = 99
        with pytest.raises(ValueError):
            members[0] = 99

    def test_reachability_caches_writable_without_sanitize(
        self, monkeypatch, vehicle_hierarchy
    ):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        matrix = vehicle_hierarchy.reachability_matrix()
        assert matrix.flags.writeable

    def test_leaked_worker_detected(self, sanitizing):
        worker = multiprocessing.get_context("spawn").Process(
            target=time.sleep, args=(60.0,)
        )
        worker.start()
        try:
            with pytest.raises(SanitizerError, match="still alive"):
                sanitize.check_workers_exited([worker], "test-owner")
        finally:
            worker.kill()
            worker.join(10.0)
        # Gone now: the same check passes.
        sanitize.check_workers_exited([worker], "test-owner")

    def test_pool_close_catches_worker_leak(
        self, sanitizing, monkeypatch, vehicle_hierarchy
    ):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        close_sweep_executor()
        simulate_noisy(plan, error_model=0.1, jobs=2)
        executor = belief._WARM.executor
        workers = list(sweep_workers())
        assert len(workers) == 2
        # Simulate the leak shape: close runs but its kills and the
        # executor's shutdown are lost.
        monkeypatch.setattr(
            ProcessPoolExecutor, "shutdown", lambda self, *a, **k: None
        )
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "kill", lambda self: None
        )
        try:
            with pytest.raises(SanitizerError, match="still alive"):
                close_sweep_executor()
        finally:
            monkeypatch.undo()
            executor.shutdown(wait=True)
        assert not any(worker.is_alive() for worker in workers)

    def test_pool_close_clean_under_sanitize(self, sanitizing, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        simulate_noisy(plan, error_model=0.1, jobs=2)
        assert sweep_workers()
        close_sweep_executor()
        # close() ran the leak check without raising.
        assert not sweep_workers()

    @pytest.mark.parametrize("entry", ["compile_policy", "simulate_all_targets"])
    def test_inexact_undo_caught(self, sanitizing, vehicle_hierarchy, entry):
        class BrokenUndo(GreedyTreePolicy):
            name = "BrokenUndo"

            def _revert_answer(self, query, answer, payload):
                super()._revert_answer(query, answer, payload)
                self._tilde_p[0] += 0.125  # drift the restored state

        with pytest.raises(SanitizerError, match="_tilde_p"):
            if entry == "compile_policy":
                compile_policy(BrokenUndo(), vehicle_hierarchy)
            else:
                # A small sample compiles only what it reaches ("vector"),
                # through the same checked DFS.
                hierarchy = make_random_tree(40, seed=41)
                simulate_all_targets(
                    BrokenUndo(), hierarchy, targets=hierarchy.nodes[5:9],
                    result_cache=False,
                )

    def test_exact_undo_passes(self, sanitizing, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        assert plan.policy_name == "GreedyTree"

    def test_cache_exclusions_respected(self, sanitizing, vehicle_hierarchy):
        # heap_children maintains a lazily-rebuilt cache that undo clears
        # instead of restoring; its declared exclusion keeps the checker
        # focused on logical state.
        plan = compile_policy(
            GreedyTreePolicy(heap_children=True), vehicle_hierarchy
        )
        assert plan.policy_name == "GreedyTree"

    def test_broken_undo_unnoticed_without_sanitize(
        self, monkeypatch, vehicle_hierarchy
    ):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

        class QuietlyBroken(GreedyTreePolicy):
            name = "QuietlyBroken"
            plan_cacheable = False

            def _revert_answer(self, query, answer, payload):
                super()._revert_answer(query, answer, payload)
                self._last_path = list(self._last_path)  # same values, new list

        # Identical *values* still compile fine without the checker; the
        # point is that the checker is opt-in, not a behaviour change.
        plan = compile_policy(QuietlyBroken(), vehicle_hierarchy)
        assert plan.policy_name == "QuietlyBroken"
