"""Open-loop load generation against the network transport.

The closed-loop numbers in ``benchmarks/bench_serve.py`` answer "how
fast can the server go when the client never lets it idle" — which is
exactly the measurement that *hides queueing*: a closed-loop client
slows down with the server, so latency looks flat right up to collapse.
This module measures the thing production cares about: **arrivals do
not wait**.  Sessions arrive on a seeded Poisson process at a fixed
offered rate whether or not earlier sessions finished, so queueing
delay shows up in the recorded latencies instead of being absorbed by
the generator.

The workload mixes the two wire shapes:

* **target sessions** ride the server's leaf-table path and measure
  per-session latency (open -> result), the number production SLOs are
  written against;
* **interactive sessions** measure true per-question round-trip
  latency (ask -> answer -> next ask), with seeded per-answer *think
  time* — and the adversarial clients live here: *slow* clients
  stretch their think time, *abandoning* clients walk away mid-session
  (close frame), exactly the traffic that leaks state out of a
  transport that forgets a ``finally``.

Everything random is drawn from seeded generators (the arrival
schedule up front, per-session behaviour from a per-session stream
keyed by the session index), so a load profile replays the same
schedule regardless of completion interleaving.  Wall-clock reads are
measurement, not inputs to results — each is annotated for the
determinism lint rule.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.oracle import ExactOracle
from repro.exceptions import ReproError, ServeError
from repro.faults.resilience import RetryPolicy
from repro.serve.transport import ServeClient

__all__ = ["LoadProfile", "LoadReport", "percentile", "run_load"]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


@dataclass(frozen=True)
class LoadProfile:
    """One open-loop traffic mix.

    ``rate`` is the *offered* arrival rate (sessions/second, Poisson);
    ``sessions`` the total arrivals.  ``interactive_fraction`` splits
    the shapes; ``think_time`` is the mean per-answer pause of an
    interactive client (exponential, seeded).  ``slow_fraction`` of
    interactive clients think ``slow_factor`` times longer, and
    ``abandon_fraction`` of all clients walk away mid-session.
    """

    rate: float = 200.0
    sessions: int = 200
    interactive_fraction: float = 0.25
    think_time: float = 0.0
    slow_fraction: float = 0.0
    slow_factor: float = 10.0
    abandon_fraction: float = 0.0
    connections: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ServeError(f"rate must be positive, got {self.rate}")
        if self.sessions < 1:
            raise ServeError(f"sessions must be >= 1, got {self.sessions}")
        for name in (
            "interactive_fraction",
            "slow_fraction",
            "abandon_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ServeError(f"{name} must be in [0, 1], got {value}")
        if self.think_time < 0:
            raise ServeError(
                f"think_time must be >= 0, got {self.think_time}"
            )
        if self.connections < 1:
            raise ServeError(
                f"connections must be >= 1, got {self.connections}"
            )


@dataclass
class LoadReport:
    """What one open-loop run measured."""

    profile: LoadProfile
    #: Wall-clock seconds from the first arrival to the last completion.
    wall_s: float = 0.0
    completed: int = 0
    abandoned: int = 0
    errored: int = 0
    #: Open -> result, seconds, one per completed session (both shapes).
    session_latencies: list = field(default_factory=list)
    #: Ask -> next ask round-trip, seconds (interactive sessions).
    question_latencies: list = field(default_factory=list)

    @property
    def arrivals(self) -> int:
        return self.completed + self.abandoned + self.errored

    @property
    def sessions_per_second(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.completed / self.wall_s

    def summary(self) -> dict:
        """Flat SLO metrics (milliseconds), ready for ``BENCH_*.json``."""
        return {
            "offered_rate": self.profile.rate,
            "sessions": self.profile.sessions,
            "completed": self.completed,
            "abandoned": self.abandoned,
            "errored": self.errored,
            "wall_s": round(self.wall_s, 4),
            "sessions_per_second": round(self.sessions_per_second, 2),
            "question_p50_ms": round(
                percentile(self.question_latencies, 50) * 1e3, 3
            ),
            "question_p99_ms": round(
                percentile(self.question_latencies, 99) * 1e3, 3
            ),
            "session_p50_ms": round(
                percentile(self.session_latencies, 50) * 1e3, 3
            ),
            "session_p99_ms": round(
                percentile(self.session_latencies, 99) * 1e3, 3
            ),
        }

    def __str__(self) -> str:
        s = self.summary()
        return (
            f"offered {s['offered_rate']:g}/s -> "
            f"{s['sessions_per_second']:g} completed/s "
            f"({self.completed}/{self.arrivals} sessions, "
            f"{self.abandoned} abandoned, {self.errored} errored) | "
            f"question p50 {s['question_p50_ms']:g}ms "
            f"p99 {s['question_p99_ms']:g}ms | "
            f"session p50 {s['session_p50_ms']:g}ms "
            f"p99 {s['session_p99_ms']:g}ms"
        )


@dataclass(frozen=True)
class _SessionScript:
    """Everything one arrival will do, drawn before traffic starts."""

    index: int
    at: float  # arrival offset from t0, seconds
    interactive: bool
    target: object
    slow: bool
    abandon_after: int | None  # answers before walking away (None = never)


def _draw_schedule(profile: LoadProfile, targets) -> list[_SessionScript]:
    rng = np.random.default_rng(profile.seed)
    scripts = []
    at = 0.0
    for index in range(profile.sessions):
        at += float(rng.exponential(1.0 / profile.rate))
        interactive = bool(rng.random() < profile.interactive_fraction)
        abandon = bool(rng.random() < profile.abandon_fraction)
        scripts.append(
            _SessionScript(
                index=index,
                at=at,
                interactive=interactive,
                target=targets[int(rng.integers(len(targets)))],
                slow=interactive
                and bool(rng.random() < profile.slow_fraction),
                abandon_after=(
                    1 + int(rng.integers(3)) if abandon else None
                ),
            )
        )
    return scripts


async def _run_interactive(
    client: ServeClient,
    script: _SessionScript,
    profile: LoadProfile,
    hierarchy,
    report: LoadReport,
    deadline: float,
) -> None:
    oracle = ExactOracle(hierarchy, script.target)
    rng = np.random.default_rng(profile.seed * 1_000_003 + script.index)
    think_mean = profile.think_time * (
        profile.slow_factor if script.slow else 1.0
    )
    opened = time.monotonic()  # repro: noqa RPA004 - latency measurement only
    session = await client.open_interactive(
        f"lg-{script.index}", deadline=deadline
    )
    answers = 0
    while not session.done:
        if script.abandon_after is not None and answers >= script.abandon_after:
            await session.close()
            report.abandoned += 1
            return
        if think_mean > 0:
            await asyncio.sleep(float(rng.exponential(think_mean)))
        answer = bool(oracle.answer(session.query))
        asked = time.monotonic()  # repro: noqa RPA004 - latency measurement only
        await session.answer(answer, deadline=deadline)
        report.question_latencies.append(
            time.monotonic() - asked  # repro: noqa RPA004 - latency measurement only
        )
        answers += 1
    report.session_latencies.append(
        time.monotonic() - opened  # repro: noqa RPA004 - latency measurement only
    )
    report.completed += 1


async def _run_target(
    client: ServeClient,
    script: _SessionScript,
    report: LoadReport,
    deadline: float,
) -> None:
    session_id = f"lg-{script.index}"
    if script.abandon_after is not None:
        # Adversarial walk-away: open the session and close it without
        # reading the result (the transport settles it at open; the
        # client drops the reply, and nothing may stay live).
        await client._post(
            {"op": "open", "id": session_id, "target": script.target}
        )
        await client._post({"op": "close", "id": session_id})
        report.abandoned += 1
        return
    opened = time.monotonic()  # repro: noqa RPA004 - latency measurement only
    await client.serve_target(session_id, script.target, deadline=deadline)
    report.session_latencies.append(
        time.monotonic() - opened  # repro: noqa RPA004 - latency measurement only
    )
    report.completed += 1


async def run_load(
    host: str,
    port: int,
    profile: LoadProfile,
    hierarchy,
    *,
    targets=None,
    deadline: float = 30.0,
) -> LoadReport:
    """Drive one open-loop profile against a live transport.

    ``hierarchy`` answers the interactive questions locally (the load
    generator plays the crowd); ``targets`` restricts which labels the
    sessions search for (default: every node).  Returns the filled
    :class:`LoadReport`.
    """
    if targets is None:
        targets = list(hierarchy.nodes)
    if not targets:
        raise ServeError("run_load needs at least one target")
    scripts = _draw_schedule(profile, targets)
    report = LoadReport(profile)
    clients = []
    try:
        for i in range(profile.connections):
            clients.append(
                await ServeClient.connect(
                    host,
                    port,
                    deadline=deadline,
                    retry=RetryPolicy(attempts=4, seed=profile.seed + i),
                )
            )

        async def one(script: _SessionScript) -> None:
            client = clients[script.index % len(clients)]
            try:
                if script.interactive:
                    await _run_interactive(
                        client, script, profile, hierarchy, report, deadline
                    )
                else:
                    await _run_target(client, script, report, deadline)
            except (ReproError, ConnectionError, OSError):
                report.errored += 1

        # The open loop: arrivals fire on schedule, never waiting for
        # earlier sessions — that is the whole point.
        t0 = time.monotonic()  # repro: noqa RPA004 - arrival pacing only
        tasks = []
        for script in scripts:
            delay = t0 + script.at - time.monotonic()  # repro: noqa RPA004 - arrival pacing only
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(script)))
        await asyncio.gather(*tasks)
        report.wall_s = time.monotonic() - t0  # repro: noqa RPA004 - latency measurement only
    finally:
        for client in clients:
            await client.close()
    return report
