"""Deterministic-schedule concurrency explorer (``REPRO_SCHEDULE=1``).

The serving layer is a concurrent system whose bugs live in
*interleavings* — a drain racing a late admission, a release racing a
pin — and the ordinary test suite only ever observes the one
interleaving the OS scheduler happens to produce.  This module runs such
components under a **virtual scheduler** instead, the way loom (Rust) and
PCT/Coyote (Microsoft) de-risk concurrent runtimes:

* Code under test is instrumented with :func:`schedule_point` calls at
  its interesting operation boundaries.  Outside exploration the hook is
  a near-no-op (one global load and a ``None`` check — effectively
  compiled out), so the instrumentation ships in production code.

* During :func:`explore`, each logical task runs on its own thread but
  **exactly one is runnable at a time**; every ``schedule_point`` parks
  the task and hands control back to the scheduler, which picks the next
  task to run.  The sequence of picks *is* the schedule.

* Schedules are enumerated systematically (bounded depth-first over
  decision prefixes, ``mode="dfs"``) or sampled with seeded PCT-style
  random priorities (``mode="pct"``).  Either way every executed
  schedule is a deterministic decision string — when one fails, the
  raised :class:`~repro.exceptions.ScheduleError` carries the trace and
  (for pct) the seed, and :func:`replay` re-executes exactly that
  interleaving.

The explorer is opt-in twice over: ``schedule_point`` does nothing
unless an exploration is active, and :func:`explore` refuses to run
unless the ``REPRO_SCHEDULE=1`` environment variable is set (checked at
call time), so an accidental import can never slow or perturb a
production run.

Tasks must cooperate: between two schedule points a task runs to
completion without blocking on anything another *managed* task must
progress to release (a real lock held across a yield would deadlock the
virtual scheduler; a watchdog converts that into a loud
:class:`~repro.exceptions.ScheduleError` instead of a hang).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from repro.exceptions import ScheduleError

__all__ = [
    "Scenario",
    "ExplorationReport",
    "enabled",
    "explore",
    "replay",
    "schedule_point",
    "set_fault_hook",
]

#: Hard ceiling on scheduler grants in one schedule; a loop that polls
#: forever (a result poll with nothing arriving) is
#: truncated, not spun on — truncated schedules skip the invariant (they
#: are partial executions, not counterexamples).
_DEFAULT_MAX_STEPS = 400

#: How long the controller waits for a parked/granted task to reach its
#: next schedule point before declaring it blocked outside one.
_WATCHDOG_SECONDS = 10.0


def enabled() -> bool:
    """True when schedule exploration is switched on (``REPRO_SCHEDULE=1``).

    Read from the environment at every call so test fixtures can flip it
    with ``monkeypatch.setenv`` without reimporting the module.
    """
    return os.environ.get("REPRO_SCHEDULE") == "1"


# ----------------------------------------------------------------------
# The instrumentation hook
# ----------------------------------------------------------------------
#: The active exploration, or None.  Module-global on purpose: the hook
#: must cost one load + one comparison when idle.
_ACTIVE: "_Controller | None" = None

#: The armed fault-injection hook (:mod:`repro.faults`), or None.  Same
#: zero-cost-off contract as :data:`_ACTIVE`: one load + one comparison
#: when nothing is armed.  Kept here (not in repro.faults) so the
#: instrumented packages never import the faults layer.
_FAULT_HOOK = None


def set_fault_hook(hook) -> None:
    """Install (or clear, with ``None``) the fault-injection callback.

    Called with each :func:`schedule_point` label *before* the scheduler
    yield, so an injected crash surfaces at the boundary it targets even
    under combined fault + schedule exploration.
    """
    global _FAULT_HOOK
    _FAULT_HOOK = hook


def schedule_point(label: str) -> None:
    """A potential context switch in instrumented code.

    No-op unless a schedule exploration is active *and* the calling
    thread is one of its managed tasks (worker processes and unrelated
    threads fall through instantly), or a fault plan is armed
    (``repro.faults``, which injects failures at these same boundaries).
    """
    hook = _FAULT_HOOK
    if hook is not None:
        hook(label)
    active = _ACTIVE
    if active is None:
        return
    active._yield(label)


class _StopTask(BaseException):
    """Unwinds a managed task when its schedule is abandoned (truncation
    or an earlier failure).  Derives from BaseException so ordinary
    ``except Exception`` handlers in code under test cannot swallow it."""


@dataclass
class Scenario:
    """One explorable situation: tasks, an invariant, optional teardown.

    ``tasks`` maps task names to zero-argument callables; the explorer
    interleaves them at their schedule points.  ``invariant`` (if given)
    runs after every non-truncated schedule completes — raise (or let an
    assertion fail) to flag the interleaving.  ``teardown`` always runs,
    even for failing or truncated schedules.
    """

    tasks: dict[str, object] = field(default_factory=dict)
    invariant: object | None = None
    teardown: object | None = None


@dataclass
class ExplorationReport:
    """What :func:`explore` did: sizes for logs and benchmark counters."""

    mode: str
    schedules: int = 0
    steps: int = 0
    truncated: int = 0
    seed: int | None = None


class _Task:
    __slots__ = ("name", "fn", "thread", "gate", "done", "exc", "label")

    def __init__(self, name: str, fn, controller: "_Controller") -> None:
        self.name = name
        self.fn = fn
        self.gate = threading.Event()
        self.done = False
        self.exc: BaseException | None = None
        self.label = "start"
        self.thread = threading.Thread(
            target=self._run, args=(controller,), daemon=True,
            name=f"schedule-task-{name}",
        )

    def _run(self, controller: "_Controller") -> None:
        self.gate.wait()
        try:
            if not controller._abandoned:
                self.fn()
        except _StopTask:
            pass
        except BaseException as exc:
            self.exc = exc
        finally:
            self.done = True
            controller._control.set()


class _Controller:
    """Runs ONE schedule: grants control task-by-task per a decision list.

    Decisions index into the *sorted-by-name runnable set* at each step,
    so a decision string means the same interleaving on every run — that
    is what makes traces replayable.
    """

    def __init__(self, scenario: Scenario, max_steps: int) -> None:
        self.scenario = scenario
        self.max_steps = max_steps
        self.tasks = [
            _Task(name, fn, self) for name, fn in sorted(scenario.tasks.items())
        ]
        self._by_thread = {t.thread: t for t in self.tasks}
        self._control = threading.Event()
        self._abandoned = False
        self.decisions: list[int] = []
        self.labels: list[str] = []
        self.branching: list[int] = []  # |runnable| at each decision
        self.truncated = False

    # -- task side ------------------------------------------------------
    def _yield(self, label: str) -> None:
        task = self._by_thread.get(threading.current_thread())
        if task is None:
            return  # not one of ours (main thread, worker process, ...)
        if self._abandoned:
            raise _StopTask()
        task.label = label
        task.gate.clear()
        self._control.set()
        task.gate.wait()
        if self._abandoned:
            raise _StopTask()

    # -- controller side ------------------------------------------------
    def _grant(self, task: _Task) -> None:
        self._control.clear()
        task.gate.set()
        if not self._control.wait(timeout=_WATCHDOG_SECONDS):
            self._abandoned = True
            raise ScheduleError(
                f"task {task.name!r} blocked outside a schedule point "
                f"(last point: {task.label!r}) — tasks must only wait at "
                "schedule_point() so the virtual scheduler stays in charge"
            )

    def _runnable(self) -> list[_Task]:
        return [t for t in self.tasks if not t.done]

    def run(self, choose) -> None:
        """Drive the schedule; ``choose(step, runnable) -> index``."""
        for task in self.tasks:
            task.thread.start()
        try:
            step = 0
            while True:
                runnable = self._runnable()
                if not runnable:
                    break
                if step >= self.max_steps:
                    self.truncated = True
                    break
                index = choose(step, runnable)
                if not 0 <= index < len(runnable):
                    raise ScheduleError(
                        f"replay diverged at step {step}: decision {index} "
                        f"but only {len(runnable)} task(s) runnable — the "
                        "trace was recorded against different code or "
                        "scenario state"
                    )
                picked = runnable[index]
                self.decisions.append(index)
                self.branching.append(len(runnable))
                self.labels.append(f"{picked.name}@{picked.label}")
                self._grant(picked)
                step += 1
        finally:
            self._abandon()

    def _abandon(self) -> None:
        """Release every parked task so its thread can unwind and exit."""
        self._abandoned = True
        for task in self.tasks:
            task.gate.set()
        for task in self.tasks:
            task.thread.join(timeout=_WATCHDOG_SECONDS)

    def failure(self) -> BaseException | None:
        for task in self.tasks:
            if task.exc is not None:
                return task.exc
        return None


def _format_trace(controller: _Controller) -> str:
    decisions = ",".join(str(d) for d in controller.decisions)
    steps = " -> ".join(controller.labels[-12:])
    suffix = " (last 12 steps)" if len(controller.labels) > 12 else ""
    return f"decisions=[{decisions}] schedule{suffix}: {steps}"


def _run_one(
    scenario_factory,
    choose,
    max_steps: int,
    *,
    check_invariant: bool = True,
) -> _Controller:
    """Build a fresh scenario, run one schedule, enforce its invariant."""
    scenario = scenario_factory()
    if not isinstance(scenario, Scenario):
        raise ScheduleError(
            "scenario factory must return a repro.analysis.schedule."
            f"Scenario, got {type(scenario).__name__}"
        )
    if not scenario.tasks:
        raise ScheduleError("scenario has no tasks to schedule")
    global _ACTIVE
    controller = _Controller(scenario, max_steps)
    _ACTIVE = controller
    try:
        controller.run(choose)
    finally:
        _ACTIVE = None
        if scenario.teardown is not None:
            scenario.teardown()
    exc = controller.failure()
    if exc is not None:
        raise ScheduleError(
            f"schedule failed: {type(exc).__name__}: {exc}\n"
            f"  {_format_trace(controller)}"
        ) from exc
    if (
        check_invariant
        and not controller.truncated
        and scenario.invariant is not None
    ):
        try:
            scenario.invariant()
        except Exception as exc:
            raise ScheduleError(
                f"invariant violated: {type(exc).__name__}: {exc}\n"
                f"  {_format_trace(controller)}"
            ) from exc
    return controller


def _require_enabled() -> None:
    if not enabled():
        raise ScheduleError(
            "schedule exploration is disabled — set REPRO_SCHEDULE=1 to "
            "opt in (the hooks are no-ops otherwise)"
        )


def explore(
    scenario_factory,
    *,
    mode: str = "dfs",
    max_schedules: int = 200,
    max_steps: int = _DEFAULT_MAX_STEPS,
    seed: int | None = None,
    depth_changes: int = 3,
) -> ExplorationReport:
    """Explore interleavings of a scenario; raise on the first bad one.

    ``scenario_factory`` is called once per schedule and must build a
    *fresh* :class:`Scenario` (state is never reused across schedules).

    ``mode="dfs"`` enumerates decision prefixes depth-first — complete up
    to ``max_schedules``/``max_steps`` bounds, deterministic, no seed.
    ``mode="pct"`` samples ``max_schedules`` interleavings with random
    task priorities and ``depth_changes`` random demotion points per
    schedule (a PCT-style bug-depth prior), driven by ``seed``.

    On failure the raised :class:`~repro.exceptions.ScheduleError`
    message contains the decision trace (and the seed in pct mode);
    feed the decisions to :func:`replay` to re-run that interleaving
    under a debugger.
    """
    _require_enabled()
    if mode == "dfs":
        return _explore_dfs(scenario_factory, max_schedules, max_steps)
    if mode == "pct":
        return _explore_pct(
            scenario_factory, max_schedules, max_steps, seed, depth_changes
        )
    raise ScheduleError(f"unknown exploration mode {mode!r} (dfs, pct)")


def _explore_dfs(
    scenario_factory, max_schedules: int, max_steps: int
) -> ExplorationReport:
    report = ExplorationReport(mode="dfs")
    # Each stack entry is a forced decision prefix; running it reveals
    # the branching degree at every step, from which the next unexplored
    # sibling prefixes are derived (classic stateless-model-checker DFS).
    stack: list[list[int]] = [[]]
    while stack and report.schedules < max_schedules:
        prefix = stack.pop()

        def choose(step: int, runnable, _prefix=prefix) -> int:
            return _prefix[step] if step < len(_prefix) else 0

        controller = _run_one(scenario_factory, choose, max_steps)
        report.schedules += 1
        report.steps += len(controller.decisions)
        report.truncated += int(controller.truncated)
        # Beyond the forced prefix this run took branch 0 everywhere;
        # queue the siblings (deepest first → true DFS order).
        for step in range(
            len(controller.decisions) - 1, len(prefix) - 1, -1
        ):
            for branch in range(1, controller.branching[step]):
                stack.append(controller.decisions[:step] + [branch])
    return report


def _explore_pct(
    scenario_factory,
    max_schedules: int,
    max_steps: int,
    seed: int | None,
    depth_changes: int,
) -> ExplorationReport:
    import random as random_mod

    if seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
    report = ExplorationReport(mode="pct", seed=seed)
    rng = random_mod.Random(seed)
    # PCT samples its priority-change points over the schedule *length*;
    # that length is only known after a run, so adapt from the previous
    # schedule (seeded default for the first).
    horizon = 16
    for _ in range(max_schedules):
        priorities: dict[str, float] = {}
        change_at = sorted(
            rng.randrange(1, max(2, min(horizon, max_steps)))
            for _ in range(depth_changes)
        )

        def choose(step: int, runnable) -> int:
            for task in runnable:
                if task.name not in priorities:
                    priorities[task.name] = rng.random()
            ranked = max(
                range(len(runnable)),
                key=lambda i: priorities[runnable[i].name],
            )
            if change_at and step >= change_at[0]:
                change_at.pop(0)
                # Demote the currently-highest task below everyone.
                low = min(priorities.values())
                priorities[runnable[ranked].name] = low - 1.0
                ranked = max(
                    range(len(runnable)),
                    key=lambda i: priorities[runnable[i].name],
                )
            return ranked

        try:
            controller = _run_one(scenario_factory, choose, max_steps)
        except ScheduleError as exc:
            raise ScheduleError(f"{exc}\n  pct seed={seed}") from exc
        priorities.clear()
        report.schedules += 1
        report.steps += len(controller.decisions)
        report.truncated += int(controller.truncated)
        horizon = max(2, len(controller.decisions))
    return report


def replay(
    scenario_factory,
    decisions: str | list[int] | tuple[int, ...],
    *,
    max_steps: int = _DEFAULT_MAX_STEPS,
) -> None:
    """Re-execute one exact interleaving from a recorded decision trace.

    ``decisions`` is the ``decisions=[...]`` list printed in a failing
    :class:`~repro.exceptions.ScheduleError` — as a list or the
    comma-separated string.  Past the end of the trace the first
    runnable task is chosen (the trace covers the prefix that matters).
    Raises :class:`~repro.exceptions.ScheduleError` exactly like the
    original failing run — or on divergence, if code or scenario drifted
    since the trace was recorded.
    """
    _require_enabled()
    if isinstance(decisions, str):
        text = decisions.strip().strip("[]")
        trace = [int(part) for part in text.split(",") if part.strip()]
    else:
        trace = [int(d) for d in decisions]

    def choose(step: int, runnable) -> int:
        return trace[step] if step < len(trace) else 0

    _run_one(scenario_factory, choose, max_steps)
