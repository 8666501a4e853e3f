"""Chaos soak: seeded fault schedules against a server and noisy sweeps.

The resilience layer's acceptance gate.  Hundreds of seeded random
:class:`~repro.faults.FaultPlan` schedules (worker kills, injected typed
crashes, slow boundaries) each run a :class:`~repro.serve.Server` feed
and then one ``jobs=2`` noisy sweep on the warm sweep executor under the
same armed plan; three scripted schedules put a worker kill mid-sweep, a
kill while the workers sit idle between two sweeps, and a crash inside
the rebuild that follows a kill; and seeded schedules hit
the **network edge** — crashes and slowdowns at the ``transport.*``
boundaries of a real localhost :class:`~repro.serve.ServeTransport`,
absorbed by the client's retry policy, per-request deadlines, and
per-backend circuit breaker.  For every schedule the soak asserts:

* **termination** — each schedule finishes within a wall-clock bound
  (deadlines and bounded respawns make a hang a bug, not load);
* **typed errors only** — every failed session carries a
  :class:`~repro.exceptions.ReproError` subclass, and anything escaping
  the serve loop or the sweep is typed too; any other exception is a
  violation recorded with its replayable ``(seed, trace)``;
* **bit-identity** — every session that *completed* returns exactly the
  fault-free result (count, price, transcript), and every sweep that
  completed returns the fault-free sweep's arrays (labels, question and
  vote counts, prices, outcomes), no matter how many faults its schedule
  fired;
* **<1% overhead with faults off** — the per-crossing cost of the
  disarmed ``schedule_point`` hook, projected over a serve run's
  measured crossing count, stays under 1% of the fault-free wall time.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_faults.py           # full soak
    PYTHONPATH=src python benchmarks/bench_faults.py --smoke   # CI gate

or as part of the benchmark suite (``pytest benchmarks/bench_faults.py``).
Both entry points write ``BENCH_faults.json`` at the repo root.
Environment knobs:

``REPRO_BENCH_FAULTS_SCHEDULES``
    Number of seeded random schedules (default 200, 60 with ``--smoke``;
    CI runs the smoke under both fork and spawn).
``REPRO_BENCH_FAULTS_SESSIONS``
    Sessions per schedule (default 24).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401  (already importable: installed or pythonpath)
except ImportError:  # standalone `python benchmarks/bench_faults.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from bench_json import write_bench_json
from repro.analysis.schedule import schedule_point
from repro.core.oracle import ExactOracle
from repro.core.session import run_search
from repro.engine import close_sweep_executor, simulate_noisy
from repro.exceptions import ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.plan import compile_policy
from repro.policies import GreedyTreePolicy
from repro.serve import Server, SessionRequest
from repro.testing import make_random_tree, random_distribution

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Wall-clock bound per schedule: a schedule exceeding this hung.
_SCHEDULE_BOUND_S = 60.0


def _config(n=60, seed=0):
    hierarchy = make_random_tree(n, seed=seed)
    distribution = random_distribution(hierarchy, seed)
    plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
    return plan, hierarchy


def _serve_once(server, targets):
    outcomes = {}
    escaped = None
    try:
        for o in server.serve(
            SessionRequest(t, target=t) for t in targets
        ):
            outcomes[o.session_id] = o
    except ReproError as exc:
        escaped = exc  # typed: the schedule cut the feed short, legally
    return outcomes, escaped


def _sweep(plan, jobs=2):
    """One noisy sweep over every target; ``jobs=1`` runs it inline."""
    return simulate_noisy(
        plan, error_model=0.1, replications=2, seed=7, votes=3, jobs=jobs
    )


def _sweep_once(plan):
    try:
        return _sweep(plan), None
    except ReproError as exc:
        return None, exc  # typed: the schedule cut the sweep short, legally


def _check_sweep(sweep, reference, seed, trace, violations):
    if sweep is None:
        return
    if not all(
        np.array_equal(getattr(sweep, name), getattr(reference, name))
        for name in (
            "labels", "queries", "vote_queries", "prices",
            "run_labels", "run_outcomes", "run_queries",
        )
    ):
        violations.append(
            f"seed {seed}: the jobs=2 sweep diverged from the fault-free "
            f"sweep (trace {trace})"
        )


def _check_outcomes(outcomes, reference, seed, trace, violations):
    for sid, outcome in outcomes.items():
        if outcome.ok:
            if outcome.result != reference[sid]:
                violations.append(
                    f"seed {seed}: session {sid!r} diverged from the "
                    f"fault-free result (trace {trace})"
                )
        elif not isinstance(outcome.error, ReproError):
            violations.append(
                f"seed {seed}: session {sid!r} failed untyped "
                f"({type(outcome.error).__name__}; trace {trace})"
            )


def _count_crossings(plan, targets):
    """Boundary crossings in one serve run (armed zero-rate counter)."""
    counter = FaultPlan.random(seed=0, rate=0.0)
    with counter.armed():
        with Server(plan) as server:
            _serve_once(server, targets)
    return sum(counter.counts.values())


def _overhead_fraction(crossings, fault_free_wall):
    """Disarmed-hook cost projected over one serve run's crossings."""
    reps = 200_000
    start = time.perf_counter()
    for _ in range(reps):
        schedule_point("serve.step")
    per_call = (time.perf_counter() - start) / reps
    projected = per_call * crossings
    return projected / fault_free_wall if fault_free_wall else 0.0


def run_soak(schedules=200, sessions=24, rate=0.04) -> dict:
    plan, hierarchy = _config()
    targets = list(hierarchy.nodes)[:sessions]
    reference = {
        t: run_search(plan, ExactOracle(hierarchy, t), hierarchy)
        for t in targets
    }

    sweep_reference = _sweep(plan, jobs=1)

    # Fault-free wall time (hook installed but nothing armed) — the
    # baseline for both bit-identity and the overhead projection.
    with Server(plan) as server:
        start = time.perf_counter()
        clean, escaped = _serve_once(server, targets)
        fault_free_wall = time.perf_counter() - start
    assert escaped is None and all(o.ok for o in clean.values())

    violations: list[str] = []
    faults_fired = 0
    sessions_completed = 0
    sessions_errored = 0
    escaped_typed = 0
    sweeps_cut_short = 0

    previous = os.environ.get("REPRO_FAULTS")
    os.environ["REPRO_FAULTS"] = "1"
    soak_start = time.perf_counter()
    try:
        # Phase 0: crossings per run, for the disarmed-overhead gate.
        crossings = _count_crossings(plan, targets)

        # Phase 1: seeded random schedules, each a serve run plus one
        # jobs=2 noisy sweep on the warm executor.  Kills break the
        # executor, which the next sweep (or this one) rebuilds.
        for seed in range(schedules):
            fault = FaultPlan.random(
                seed,
                rate=rate,
                kinds=("crash", "kill_worker", "slow"),
                max_faults=4,
            )
            begin = time.perf_counter()
            with Server(plan) as server:
                with fault.armed():
                    outcomes, escaped = _serve_once(server, targets)
                    sweep, sweep_escaped = _sweep_once(plan)
            elapsed = time.perf_counter() - begin
            if elapsed > _SCHEDULE_BOUND_S:
                violations.append(
                    f"seed {seed}: schedule took {elapsed:.1f}s "
                    f"(bound {_SCHEDULE_BOUND_S}s) — hang (trace "
                    f"{fault.trace})"
                )
            _check_outcomes(
                outcomes, reference, seed, fault.trace, violations
            )
            _check_sweep(
                sweep, sweep_reference, seed, fault.trace, violations
            )
            faults_fired += fault.fired
            escaped_typed += escaped is not None
            sweeps_cut_short += sweep_escaped is not None
            sessions_completed += sum(
                1 for o in outcomes.values() if o.ok
            )
            sessions_errored += sum(
                1 for o in outcomes.values() if not o.ok
            )

        # Phase 2: scripted schedules, each two rounds of a serve run and
        # a jobs=2 sweep.  The first serve run's submit stalls the warm
        # workers where a kill must land mid-sweep (no shard can finish
        # before it), or kills one while it idles between two sweeps.
        stall = FaultSpec("stall", at="serve.submit", nth=1)
        kill_mid_sweep = FaultSpec("kill_worker", at="pool.collect", nth=1)
        scripted = {
            "kill-mid-sweep": [stall, kill_mid_sweep],
            "kill-while-idle": [
                FaultSpec("kill_worker", at="serve.submit", nth=1)
            ],
            "crash-at-rebuild": [
                stall,
                kill_mid_sweep,
                FaultSpec("crash", at="pool.restart.rebuild", nth=1),
            ],
        }
        for name, specs in scripted.items():
            fault = FaultPlan(specs)
            begin = time.perf_counter()
            with fault.armed():
                for _ in range(2):
                    with Server(plan) as server:
                        outcomes, escaped = _serve_once(server, targets)
                    sweep, sweep_escaped = _sweep_once(plan)
                    _check_outcomes(
                        outcomes, reference, name, fault.trace, violations
                    )
                    _check_sweep(
                        sweep, sweep_reference, name, fault.trace, violations
                    )
                    escaped_typed += escaped is not None
                    sweeps_cut_short += sweep_escaped is not None
            elapsed = time.perf_counter() - begin
            if elapsed > _SCHEDULE_BOUND_S:
                violations.append(
                    f"{name}: schedule took {elapsed:.1f}s (bound "
                    f"{_SCHEDULE_BOUND_S}s) — hang (trace {fault.trace})"
                )
            if fault.fired != len(specs):
                violations.append(
                    f"{name}: fired {fault.trace}, scripted {specs}"
                )
            faults_fired += fault.fired
        close_sweep_executor()

        # Phase 3: the network edge — seeded transport.* fault schedules
        # over a real localhost transport (fewer schedules: each one
        # binds a listener and dials real sockets).
        transport_counters = _transport_soak(
            plan,
            hierarchy,
            targets[: max(4, len(targets) // 3)],
            reference,
            violations,
            schedules=max(2, schedules // 20),
        )
        faults_fired += transport_counters["fired"]
        sessions_completed += transport_counters["completed"]
        sessions_errored += transport_counters["errored"]
    finally:
        if previous is None:
            os.environ.pop("REPRO_FAULTS", None)
        else:
            os.environ["REPRO_FAULTS"] = previous
    soak_wall = time.perf_counter() - soak_start

    overhead = _overhead_fraction(crossings, fault_free_wall)
    if overhead >= 0.01:
        violations.append(
            f"disarmed-hook overhead {overhead:.2%} of serve wall time "
            f"(floor 1%; {crossings} crossings per run)"
        )

    payload = {
        "benchmark": "bench_faults",
        "n": hierarchy.n,
        "schedules": schedules,
        "sessions_per_schedule": len(targets),
        "faults_fired": faults_fired,
        "sessions_completed": sessions_completed,
        "sessions_errored": sessions_errored,
        "schedules_cut_short_typed": escaped_typed,
        "sweeps_cut_short_typed": sweeps_cut_short,
        "breaker_trips": transport_counters["trips"],
        "breaker_restores": transport_counters["restores"],
        "transport_faults_fired": transport_counters["fired"],
        "transport_sessions_completed": transport_counters["completed"],
        "transport_sessions_errored": transport_counters["errored"],
        "hook_overhead_fraction": round(overhead, 6),
        "crossings_per_run": crossings,
        "soak_seconds": round(soak_wall, 3),
        "violations": violations,
        "ok": not violations,
    }
    write_bench_json(
        "faults",
        n_nodes=hierarchy.n,
        wall_s=soak_wall,
        speedup=1.0,  # a robustness gate, not a performance claim
        schedules=schedules,
        faults_fired=faults_fired,
        sessions_completed=sessions_completed,
        breaker_trips=transport_counters["trips"],
        breaker_restores=transport_counters["restores"],
        transport_faults_fired=transport_counters["fired"],
        hook_overhead_fraction=round(overhead, 6),
        violations=len(violations),
        ok=not violations,
    )
    return payload


def _transport_soak(plan, hierarchy, targets, reference, violations, schedules):
    """Phase 3: seeded fault schedules against the network edge.

    Runs target sessions over a real localhost transport
    (:mod:`repro.serve.transport`) with crashes and slowdowns injected
    at the ``transport.*`` boundaries.  Same invariants as the sweep
    phases: typed errors only, bit-identical completions, no hangs —
    the client's retry policy and per-request deadlines must absorb
    the chaos.
    """
    import asyncio

    from repro.faults.resilience import CircuitBreaker, RetryPolicy
    from repro.serve import ServeClient, ServeTransport

    counters = {
        "fired": 0, "completed": 0, "errored": 0, "trips": 0, "restores": 0,
    }
    wire_sites = (
        "transport.open",
        "transport.read",
        "transport.write",
        "transport.connect",
        "transport.request",
    )

    async def one_schedule(seed, fault):
        breaker = CircuitBreaker(cooldown=2)
        with Server(plan) as server:
            transport = ServeTransport(server)
            host, port = await transport.start()
            with fault.armed():
                for t in targets:
                    try:
                        client = await ServeClient.connect(
                            host,
                            port,
                            deadline=5.0,
                            retry=RetryPolicy(attempts=2, base_delay=0.01),
                            breaker=breaker,
                        )
                    except ReproError:
                        counters["errored"] += 1
                        continue
                    try:
                        result = await client.serve_target(f"wire-{t}", t)
                    except ReproError:
                        counters["errored"] += 1
                        continue
                    finally:
                        await client.close()
                    if result != reference[t]:
                        violations.append(
                            f"transport seed {seed}: session {t!r} diverged "
                            f"over the wire (trace {fault.trace})"
                        )
                    counters["completed"] += 1
            try:
                await transport.shutdown(timeout=10.0)
            except ReproError:
                pass  # injected drain fault: typed, acceptable
        counters["trips"] += breaker.trips
        counters["restores"] += breaker.restores

    async def phase():
        for seed in range(schedules):
            fault = FaultPlan.random(
                seed,
                rate=0.05,
                kinds=("crash", "slow"),
                sites=wire_sites,
                max_faults=4,
            )
            begin = time.perf_counter()
            await one_schedule(seed, fault)
            elapsed = time.perf_counter() - begin
            if elapsed > _SCHEDULE_BOUND_S:
                violations.append(
                    f"transport seed {seed}: schedule took {elapsed:.1f}s "
                    f"(bound {_SCHEDULE_BOUND_S}s) — hang (trace "
                    f"{fault.trace})"
                )
            counters["fired"] += fault.fired
        # Scripted: the listener refuses one connection (accept fault);
        # the client must fail typed and the next connect must succeed.
        fault = FaultPlan([FaultSpec("crash", at="transport.accept", nth=1)])
        with Server(plan) as server:
            transport = ServeTransport(server)
            host, port = await transport.start()
            with fault.armed():
                try:
                    client = await ServeClient.connect(
                        host,
                        port,
                        deadline=2.0,
                        retry=RetryPolicy(attempts=1),
                    )
                    try:
                        await client.ping()
                        violations.append(
                            "transport accept fault: the refused connection "
                            "answered a ping"
                        )
                    except ReproError:
                        pass
                    finally:
                        await client.close()
                except ReproError:
                    pass  # connect itself may surface the refusal — typed
                retry_client = await ServeClient.connect(
                    host, port, deadline=5.0
                )
                try:
                    result = await retry_client.serve_target(
                        "wire-retry", targets[0]
                    )
                finally:
                    await retry_client.close()
                if result != reference[targets[0]]:
                    violations.append(
                        "transport accept fault: post-fault session diverged"
                    )
                else:
                    counters["completed"] += 1
            await transport.shutdown(timeout=10.0)
        counters["fired"] += fault.fired
        if not counters["fired"]:
            violations.append(
                "transport phase injected zero faults — the wire sites "
                "are not armed"
            )

    asyncio.run(phase())
    return counters


def _default_schedules(smoke: bool) -> int:
    return int(
        os.environ.get(
            "REPRO_BENCH_FAULTS_SCHEDULES", "60" if smoke else "200"
        )
    )


def test_chaos_soak_holds_all_invariants(report):
    """Acceptance: seeded fault schedules — no hangs, typed errors only,
    bit-identical completions and sweeps, <1% disarmed overhead."""
    payload = run_soak(
        schedules=_default_schedules(smoke=True),
        sessions=int(os.environ.get("REPRO_BENCH_FAULTS_SESSIONS", "24")),
    )
    report("bench_faults", json.dumps(payload, indent=2))
    assert payload["ok"], "\n".join(payload["violations"])
    assert payload["faults_fired"] > 0  # the soak actually injected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer schedules; exit nonzero on any violation",
    )
    args = parser.parse_args()
    payload = run_soak(
        schedules=_default_schedules(args.smoke),
        sessions=int(os.environ.get("REPRO_BENCH_FAULTS_SESSIONS", "24")),
    )
    text = json.dumps(payload, indent=2)
    print(text)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "bench_faults.txt").write_text(text + "\n")
    if payload["violations"]:
        print(
            f"FAIL: {len(payload['violations'])} soak violation(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
