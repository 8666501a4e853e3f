"""The deterministic-schedule explorer (``repro.analysis.schedule``).

Three layers:

1. **Explorer mechanics** on toy scenarios — the REPRO_SCHEDULE gate,
   DFS determinism, truncation, teardown-always-runs, replay divergence.
2. **The injected lost-release race** — a pin/release counter with a
   deliberate read-modify-write window.  DFS must find it and produce a
   deterministic decision trace; replaying that trace must reproduce the
   failure; seeded PCT must find it too and be reproducible by seed; the
   atomically-fixed variant must survive full exploration.
3. **Real server code** — drain racing a late admission, interleaved at
   the server's ``schedule_point`` sites.
"""

from __future__ import annotations

import re

import pytest

from repro.analysis import schedule as schedule_mod
from repro.analysis.schedule import (
    Scenario,
    enabled,
    explore,
    replay,
    schedule_point,
)
from repro.exceptions import ScheduleError
from repro.plan import compile_policy
from repro.policies import GreedyTreePolicy
from repro.serve import Server, SessionRequest


@pytest.fixture
def scheduling(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULE", "1")


def _decisions_of(error: ScheduleError) -> str:
    match = re.search(r"decisions=\[([\d,]*)\]", str(error))
    assert match, f"no decision trace in: {error}"
    return match.group(1)


# ----------------------------------------------------------------------
# The injected lost-release race
# ----------------------------------------------------------------------
class BrokenPins:
    """A refcount with a deliberate read-modify-write window.

    ``schedule_point`` sits between the read and the write, so two tasks
    interleaved exactly there lose one update — the classic lost-release
    shape the explorer exists to catch.
    """

    def __init__(self, atomic: bool = False) -> None:
        self.pins = 0
        self._atomic = atomic

    def pin(self) -> None:
        if self._atomic:
            schedule_point("pins.pin")
            self.pins += 1
            return
        held = self.pins
        schedule_point("pins.pin")
        self.pins = held + 1

    def release(self) -> None:
        if self._atomic:
            schedule_point("pins.release")
            self.pins -= 1
            return
        held = self.pins
        schedule_point("pins.release")
        self.pins = held - 1


def _pins_scenario(atomic: bool = False):
    def factory() -> Scenario:
        counter = BrokenPins(atomic)

        def holder_a() -> None:
            counter.pin()
            counter.release()

        def holder_b() -> None:
            counter.pin()
            counter.release()

        def invariant() -> None:
            assert counter.pins == 0, f"leaked/lost pins: {counter.pins}"

        return Scenario(
            tasks={"a": holder_a, "b": holder_b}, invariant=invariant
        )

    return factory


# ----------------------------------------------------------------------
# Gate and mechanics
# ----------------------------------------------------------------------
class TestGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCHEDULE", raising=False)
        assert not enabled()
        schedule_point("noop")  # must be a silent no-op when idle
        with pytest.raises(ScheduleError, match="REPRO_SCHEDULE=1"):
            explore(_pins_scenario())
        with pytest.raises(ScheduleError, match="REPRO_SCHEDULE=1"):
            replay(_pins_scenario(), [0])

    def test_enabled_reads_env_at_call_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE", "1")
        assert enabled()
        monkeypatch.setenv("REPRO_SCHEDULE", "0")
        assert not enabled()


class TestMechanics:
    def test_single_task_runs_to_completion(self, scheduling):
        log: list[str] = []

        def factory() -> Scenario:
            log.clear()

            def only() -> None:
                log.append("a")
                schedule_point("mid")
                log.append("b")

            return Scenario(tasks={"only": only})

        report = explore(factory, mode="dfs", max_schedules=10)
        assert report.schedules == 1  # one task -> exactly one schedule
        assert log == ["a", "b"]

    def test_dfs_covers_both_orders_of_two_tasks(self, scheduling):
        orders: set[tuple[str, ...]] = set()

        def factory() -> Scenario:
            ran: list[str] = []

            def first() -> None:
                ran.append("first")

            def second() -> None:
                ran.append("second")

            return Scenario(
                tasks={"first": first, "second": second},
                invariant=lambda: orders.add(tuple(ran)),
            )

        explore(factory, mode="dfs", max_schedules=50)
        assert ("first", "second") in orders
        assert ("second", "first") in orders

    def test_truncation_bounds_nonterminating_tasks(self, scheduling):
        def factory() -> Scenario:
            def spinner() -> None:
                while True:
                    schedule_point("spin")

            return Scenario(
                tasks={"spin": spinner},
                invariant=lambda: pytest.fail(
                    "invariant must not run on truncated schedules"
                ),
            )

        report = explore(factory, mode="dfs", max_schedules=3, max_steps=25)
        assert report.truncated == report.schedules > 0

    def test_teardown_runs_even_when_schedule_fails(self, scheduling):
        torn: list[bool] = []

        def factory() -> Scenario:
            def boom() -> None:
                raise RuntimeError("task exploded")

            return Scenario(
                tasks={"boom": boom}, teardown=lambda: torn.append(True)
            )

        with pytest.raises(ScheduleError, match="task exploded"):
            explore(factory, mode="dfs", max_schedules=5)
        assert torn == [True]

    def test_replay_divergence_is_loud(self, scheduling):
        with pytest.raises(ScheduleError, match="diverged"):
            replay(_pins_scenario(), [7])

    def test_blocked_task_hits_watchdog(self, scheduling, monkeypatch):
        import threading

        monkeypatch.setattr(schedule_mod, "_WATCHDOG_SECONDS", 0.4)
        forever = threading.Event()

        def factory() -> Scenario:
            return Scenario(tasks={"stuck": forever.wait})

        with pytest.raises(ScheduleError, match="blocked outside"):
            explore(factory, mode="dfs", max_schedules=1)
        forever.set()  # unblock the leaked daemon thread

    def test_unknown_mode_rejected(self, scheduling):
        with pytest.raises(ScheduleError, match="unknown exploration mode"):
            explore(_pins_scenario(), mode="bfs")


# ----------------------------------------------------------------------
# Injected race: find, trace, replay, fix
# ----------------------------------------------------------------------
class TestLostReleaseRace:
    def test_dfs_finds_race_with_deterministic_trace(self, scheduling):
        with pytest.raises(ScheduleError, match="invariant violated") as one:
            explore(_pins_scenario(), mode="dfs", max_schedules=500)
        with pytest.raises(ScheduleError, match="invariant violated") as two:
            explore(_pins_scenario(), mode="dfs", max_schedules=500)
        # Systematic exploration: same code, same first counterexample.
        assert _decisions_of(one.value) == _decisions_of(two.value)

    def test_failing_trace_replays(self, scheduling):
        with pytest.raises(ScheduleError) as caught:
            explore(_pins_scenario(), mode="dfs", max_schedules=500)
        trace = _decisions_of(caught.value)
        with pytest.raises(ScheduleError, match="invariant violated"):
            replay(_pins_scenario(), trace)

    def test_pct_finds_race_and_reports_seed(self, scheduling):
        with pytest.raises(ScheduleError) as caught:
            explore(_pins_scenario(), mode="pct", max_schedules=60, seed=7)
        assert "seed=7" in str(caught.value)
        # The same seed walks the same schedules: identical counterexample.
        with pytest.raises(ScheduleError) as again:
            explore(_pins_scenario(), mode="pct", max_schedules=60, seed=7)
        assert _decisions_of(caught.value) == _decisions_of(again.value)
        # And the printed trace replays without the seed.
        with pytest.raises(ScheduleError, match="invariant violated"):
            replay(_pins_scenario(), _decisions_of(caught.value))

    def test_atomic_fix_survives_exploration(self, scheduling):
        report = explore(
            _pins_scenario(atomic=True), mode="dfs", max_schedules=500
        )
        assert report.schedules > 1  # interleavings were actually explored
        report = explore(
            _pins_scenario(atomic=True), mode="pct", max_schedules=60, seed=7
        )
        assert report.schedules == 60


# ----------------------------------------------------------------------
# Real server code under the virtual scheduler
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_plan(vehicle_hierarchy):
    return compile_policy(GreedyTreePolicy(), vehicle_hierarchy)


class TestRealPoolSchedules:
    """The real server explored at its schedule points."""

    def test_server_drain_vs_late_admission(self, scheduling, tiny_plan):
        """A submission landing mid-drain is either caught by that drain
        or remains cleanly queued/in-flight for the next one — never
        lost, never double-served."""
        hierarchy = tiny_plan.hierarchy
        early = [
            SessionRequest(f"early-{i}", target=hierarchy.nodes[i])
            for i in range(1, 3)
        ]
        late = SessionRequest("late", target=hierarchy.nodes[3])

        def factory() -> Scenario:
            server = Server(tiny_plan, max_sessions=2)
            outcomes: list = []
            for request in early:
                server.submit(request)

            def drainer() -> None:
                outcomes.extend(server.drain())

            def late_submitter() -> None:
                server.submit(late)

            def teardown() -> None:
                # Teardown runs before the invariant: catch a straggler
                # the drainer missed, then close.
                outcomes.extend(server.drain())
                server.close()

            def invariant() -> None:
                served = sorted(o.session_id for o in outcomes)
                assert served == ["early-1", "early-2", "late"]
                assert all(o.ok for o in outcomes)

            return Scenario(
                tasks={"drainer": drainer, "late": late_submitter},
                invariant=invariant,
                teardown=teardown,
            )

        report = explore(factory, mode="dfs", max_schedules=150)
        assert report.truncated == 0
        assert report.schedules > 1
