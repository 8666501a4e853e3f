"""Deterministic fault injection at the stack's ``schedule_point`` sites.

The sweep/serve/cache stack, the network edge and :class:`FlakyOracle`
call :func:`~repro.analysis.schedule.schedule_point` at every
interesting operation boundary.  This module arms that hook to *inject
failures*: while a :class:`FaultPlan` is armed, every boundary crossing
consults the plan, which may

* raise the boundary's registered typed exception
  (:data:`~repro.faults.sites.FAULT_SITES` — ``kind="crash"``),
* SIGKILL a worker of the noisy sweeps' warm executor
  (``kind="kill_worker"``),
* wedge every such worker with a long sleep task (``kind="stall"``), or
* delay the caller briefly (``kind="slow"``).

Determinism and replay: a scripted plan fires exactly the
:class:`FaultSpec` s it was given, keyed by ``(site, occurrence)``; a
:meth:`FaultPlan.random` plan samples from a seeded generator whose
draws depend only on the sequence of boundary crossings.  Every fired
fault is recorded in :attr:`FaultPlan.trace`, and
:meth:`FaultPlan.from_trace` rebuilds a scripted plan that replays the
recorded decisions — the ``(seed, trace)`` pair travels in soak failure
messages.  (Occurrence counts at high-frequency polling sites
depend on OS timing, so a random seed is only approximately replayable
against live workers; the *trace* is the exact artifact.)

Arming is opt-in twice over, mirroring the sanitizers: constructing
plans is always allowed, but :meth:`FaultPlan.armed` refuses to install
the hook unless ``REPRO_FAULTS=1`` is set, and with no plan armed the
hook adds one global load + ``None`` check per boundary (measured by
``benchmarks/bench_faults.py`` at <1% of serving wall time).
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import connection

from repro.analysis import schedule as _schedule
from repro.exceptions import FaultError, OracleError
from repro.faults.sites import site_exception

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FlakyOracle",
    "enabled",
]

#: Every injectable failure mode.  ``crash`` and ``slow`` work at any
#: boundary; the others act on the sweep executor's workers.
FAULT_KINDS = ("crash", "kill_worker", "stall", "slow")

#: Kinds that need a running sweep executor
#: (:func:`repro.engine.belief.sweep_workers`) to act on.
_WORKER_KINDS = frozenset({"kill_worker", "stall"})

#: Sites excluded from random sampling by default: teardown boundaries,
#: where an injected failure tests the interpreter's exit machinery
#: rather than the resilience layer.
DEFAULT_EXCLUDE = ("serve.close",)

#: Worker-wedge duration for ``stall`` and caller delay for ``slow``.
_STALL_SECONDS = 30.0
_SLOW_SECONDS = 0.005


def enabled() -> bool:
    """True when fault injection is switched on (``REPRO_FAULTS=1``).

    Read from the environment at every call so test fixtures can flip it
    with ``monkeypatch.setenv`` without reimporting the module.
    """
    return os.environ.get("REPRO_FAULTS", "").strip().lower() not in (
        "", "0", "false", "off", "no",
    )


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: fire ``kind`` at the ``nth`` crossing of ``at``.

    ``nth`` is 1-based — ``FaultSpec("crash", at="serve.submit", nth=2)``
    lets the first submit through and fails the second.
    """

    kind: str
    at: str
    nth: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r} "
                f"(known: {', '.join(FAULT_KINDS)})"
            )
        if self.nth < 1:
            raise FaultError(f"nth is 1-based, got {self.nth}")


class FaultPlan:
    """A deterministic schedule of injected faults.

    Scripted: ``FaultPlan([FaultSpec(...), ...])`` fires exactly those
    specs.  Random: :meth:`FaultPlan.random` samples boundaries with a
    seeded generator.  Either way, arm it around the code under test::

        plan = FaultPlan.random(seed=7, rate=0.02)
        with plan.armed():
            ...  # sweep/serve traffic; faults fire at schedule points
        print(plan.trace)  # [(site, occurrence, kind), ...]

    One plan may be armed at a time, and only with ``REPRO_FAULTS=1``.
    The hook ignores crossings in forked worker processes (the armed
    state is inherited under ``fork``): faults act on the parent's view
    of the sweep executor, where kills and stalls are well-defined.
    """

    def __init__(self, specs=()) -> None:
        self._scripted: dict[tuple[str, int], str] = {}
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                spec = FaultSpec(*spec)
            self._scripted[(spec.at, spec.nth)] = spec.kind
        self._rng: random.Random | None = None
        self._rate = 0.0
        self._kinds: tuple[str, ...] = FAULT_KINDS
        self._sites: frozenset[str] | None = None
        self._exclude: frozenset[str] = frozenset(DEFAULT_EXCLUDE)
        self._max_faults: int | None = None
        self.seed: int | None = None
        #: Fired faults, in order: ``(site, occurrence, kind)`` tuples.
        self.trace: list[tuple[str, int, str]] = []
        #: Boundary-crossing counters per site label.
        self.counts: dict[str, int] = {}
        self._armed_pid: int | None = None

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        rate: float = 0.02,
        kinds=None,
        sites=None,
        exclude=DEFAULT_EXCLUDE,
        max_faults: int | None = 8,
    ) -> "FaultPlan":
        """A seeded random plan: each eligible crossing fires with ``rate``.

        ``kinds`` restricts the failure modes (default: all of
        :data:`FAULT_KINDS`); ``sites`` whitelists boundary labels
        (default: all); ``exclude`` blacklists labels on top;
        ``max_faults`` caps total injections so a long soak run
        terminates (``None`` = unbounded).
        """
        if not 0.0 <= rate <= 1.0:
            raise FaultError(f"rate must be in [0, 1], got {rate}")
        plan = cls()
        plan._rng = random.Random(seed)
        plan._rate = float(rate)
        if kinds is not None:
            for kind in kinds:
                if kind not in FAULT_KINDS:
                    raise FaultError(f"unknown fault kind {kind!r}")
            plan._kinds = tuple(kinds)
        plan._sites = frozenset(sites) if sites is not None else None
        plan._exclude = frozenset(exclude or ())
        plan._max_faults = max_faults
        plan.seed = int(seed)
        return plan

    @classmethod
    def from_trace(cls, trace) -> "FaultPlan":
        """Rebuild a scripted plan replaying a recorded :attr:`trace`."""
        return cls(
            FaultSpec(kind, at=site, nth=occurrence)
            for site, occurrence, kind in trace
        )

    @property
    def fired(self) -> int:
        """Number of faults injected so far."""
        return len(self.trace)

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    @contextmanager
    def armed(self):
        """Install this plan as the process-wide fault hook.

        ``kill_worker`` and ``stall`` act on the workers of the noisy
        sweeps' warm executor; while none runs, random plans skip those
        kinds when drawn and scripted ones fire as no-ops.  Raises
        :class:`~repro.exceptions.FaultError` without ``REPRO_FAULTS=1``
        or when another plan is already armed.
        """
        if not enabled():
            raise FaultError(
                "fault injection is disabled; set REPRO_FAULTS=1 to arm a "
                "FaultPlan (the hook is compiled out otherwise)"
            )
        if _schedule._FAULT_HOOK is not None:
            raise FaultError("another FaultPlan is already armed")
        self._armed_pid = os.getpid()
        _schedule.set_fault_hook(self._on_point)
        try:
            yield self
        finally:
            _schedule.set_fault_hook(None)
            self._armed_pid = None

    # ------------------------------------------------------------------
    # The hook
    # ------------------------------------------------------------------
    def _on_point(self, label: str) -> None:
        if os.getpid() != self._armed_pid:
            return  # forked worker inherited the hook; faults act parent-side
        occurrence = self.counts.get(label, 0) + 1
        self.counts[label] = occurrence
        kind = self._decide(label, occurrence)
        if kind is None:
            return
        self.trace.append((label, occurrence, kind))
        self._perform(kind, label, occurrence)

    def _decide(self, label: str, occurrence: int) -> str | None:
        kind = self._scripted.get((label, occurrence))
        if kind is not None:
            return kind
        if self._rng is None or self._rate == 0.0:
            return None
        if self._sites is not None and label not in self._sites:
            return None
        if label in self._exclude:
            return None
        if (
            self._max_faults is not None
            and len(self.trace) >= self._max_faults
        ):
            return None
        # One draw per eligible crossing keeps the stream aligned with
        # the crossing sequence, which is what seeded replay relies on.
        if self._rng.random() >= self._rate:
            return None
        kinds = self._kinds
        from repro.engine import belief  # the engine imports this package

        if not belief.sweep_workers():
            kinds = tuple(k for k in kinds if k not in _WORKER_KINDS)
            if not kinds:
                return None
        return kinds[self._rng.randrange(len(kinds))]

    def _perform(self, kind: str, label: str, occurrence: int) -> None:
        if kind == "crash":
            raise site_exception(label)(
                f"injected fault at {label!r} (occurrence {occurrence})"
            )
        if kind == "slow":
            time.sleep(_SLOW_SECONDS)
            return
        from repro.engine import belief  # the engine imports this package

        if kind == "kill_worker":
            alive = [p for p in belief.sweep_workers() if p.is_alive()]
            if alive:
                victim = alive[occurrence % len(alive)]
                victim.kill()
                # Dead before the stack goes on.  Waiting on the sentinel
                # leaves reaping to the executor, which joins its workers.
                connection.wait([victim.sentinel], 1.0)
        elif kind == "stall":
            belief._stall_workers(_STALL_SECONDS)

    def __repr__(self) -> str:
        mode = (
            f"random(seed={self.seed}, rate={self._rate})"
            if self._rng is not None
            else f"scripted({len(self._scripted)} spec(s))"
        )
        return f"FaultPlan({mode}, fired={self.fired})"


class FlakyOracle:
    """Wrap any oracle so its answers cross the ``oracle.answer`` boundary.

    An injected ``crash`` there raises the registered
    :class:`~repro.exceptions.OracleError` — the shape of a crowd worker
    abandoning a question — which the serving layer must surface as a
    per-session typed outcome, never a wedged server.
    """

    def __init__(self, oracle) -> None:
        if not hasattr(oracle, "answer"):
            raise OracleError(
                f"{type(oracle).__name__} has no answer(); FlakyOracle "
                "wraps oracle-shaped objects"
            )
        self._oracle = oracle

    def answer(self, query) -> bool:
        _schedule.schedule_point("oracle.answer")
        return self._oracle.answer(query)

    def __repr__(self) -> str:
        return f"FlakyOracle({self._oracle!r})"
