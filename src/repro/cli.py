"""Command-line entry point: ``python -m repro <experiment>``.

Three modes:

* experiment mode — regenerate any paper table/figure at a chosen scale and
  print the paper-style output (``all`` runs the full suite).  With
  ``--plan-cache DIR``, compiled decision plans are content-addressed on
  disk so repeated runs skip identical compilations; ``--result-cache
  DIR`` persists the per-target cost arrays so re-running an unchanged
  evaluation skips it entirely; ``--jobs N`` shards the noise
  experiment's sweeps over N worker processes, started once and kept
  warm across the experiment's sweeps;
* interactive mode — ``python -m repro interactive --edges hierarchy.tsv``
  categorises one object by asking *you* the reachability questions, i.e.
  the paper's crowdsourcing workflow with a human-in-the-terminal oracle
  (answers are taken back with ``undo``);
* compile mode — ``python -m repro compile --edges hierarchy.tsv --out
  plan.bin`` freezes a policy into a :class:`repro.plan.CompiledPlan` file
  that later interactive sessions load instantly (``interactive --plan
  plan.bin``);
* serve mode — ``python -m repro serve --edges hierarchy.tsv --sessions
  1000`` pushes N concurrent target sessions through the session server
  (:mod:`repro.serve`) under admission control and reports throughput
  plus per-session question percentiles (``--faults SEED`` arms a seeded
  random fault schedule against the live server and prints the fired
  trace — a one-line chaos drill);
* loadgen mode — ``python -m repro loadgen --rate 500 --sessions 1000``
  drives *open-loop* Poisson traffic (arrivals never wait) against the
  network transport (:mod:`repro.serve.transport`) — self-hosted on
  localhost, or a running backend via ``--connect HOST:PORT`` — mixing
  target sessions with interactive propose/observe clients
  (``--think``, ``--slow-fraction``, ``--abandon-fraction``) and
  reporting per-question and per-session latency percentiles.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import EXPERIMENTS, get_scale


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-aigs",
        description=(
            "Reproduction of 'Cost-Effective Algorithms for Average-Case "
            "Interactive Graph Search' (ICDE 2022)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", "interactive", "compile", "serve",
                 "loadgen"],
        help="paper table/figure to regenerate, 'interactive', 'compile', "
        "'serve' (session serving demo), or 'loadgen' "
        "(open-loop Poisson traffic against the network transport)",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=("tiny", "small", "paper"),
        help="experiment scale preset (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master random seed (default: 0)"
    )
    parser.add_argument(
        "--edges",
        help="interactive/compile mode: tab-separated parent<TAB>child edges",
    )
    parser.add_argument(
        "--policy",
        default="greedy-tree",
        help=(
            "interactive/compile mode: policy registry name, or 'auto' for "
            "the paper's recommended greedy (default: greedy-tree)"
        ),
    )
    parser.add_argument(
        "--plan",
        metavar="FILE",
        help="interactive mode: serve from a compiled plan file instead of "
        "a policy (see the 'compile' mode)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default="plan.bin",
        help="compile mode: output plan file (default: plan.bin)",
    )
    parser.add_argument(
        "--plan-cache",
        metavar="DIR",
        help="experiment mode: cache compiled plans under DIR (e.g. "
        "results/plancache) so repeated runs skip identical compilations",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="noise experiment: shard the noisy sweeps over N worker "
        "processes, started once and kept warm across the experiment's "
        "sweeps (0 or negative = all cores); results are identical for "
        "every N",
    )
    parser.add_argument(
        "--result-cache",
        metavar="DIR",
        help="experiment mode: cache engine results (per-target cost "
        "arrays) under DIR (e.g. results/enginecache) so re-running an "
        "unchanged evaluation skips it entirely",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=1000,
        metavar="N",
        help="serve mode: number of concurrent sessions to simulate "
        "(default: 1000)",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=256,
        metavar="N",
        help="serve mode: admission-control cap on in-flight sessions "
        "(default: 256); excess sessions wait in the bounded queue",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=1024,
        metavar="N",
        help="serve mode: waiting-queue bound before typed rejection "
        "(default: 1024)",
    )
    parser.add_argument(
        "--faults",
        type=int,
        metavar="SEED",
        help="serve mode: arm a seeded random FaultPlan (implies "
        "REPRO_FAULTS=1) and report the fired fault trace — a one-line "
        "chaos drill against the live server",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.02,
        metavar="P",
        help="serve mode: per-boundary-crossing fault probability for "
        "--faults (default: 0.02)",
    )
    parser.add_argument(
        "--error-rate",
        type=float,
        default=0.1,
        metavar="P",
        help="noise experiment: crowd flip probability in [0, 0.5) "
        "(default: 0.1); every strategy row of the noise table is one "
        "vectorized belief-engine sweep at this rate",
    )
    parser.add_argument(
        "--replications",
        type=int,
        default=3,
        metavar="R",
        help="noise experiment: independent noisy searches per sampled "
        "target (default: 3); seeded per (target, replication), so "
        "results are identical for every --jobs setting",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=200.0,
        metavar="R",
        help="loadgen mode: offered arrival rate, sessions/second "
        "(Poisson; default: 200)",
    )
    parser.add_argument(
        "--interactive-fraction",
        type=float,
        default=0.25,
        metavar="F",
        help="loadgen mode: fraction of sessions driven propose/observe "
        "over the wire instead of as target sessions (default: 0.25)",
    )
    parser.add_argument(
        "--think",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="loadgen mode: mean per-answer think time of interactive "
        "clients (exponential, seeded; default: 0)",
    )
    parser.add_argument(
        "--slow-fraction",
        type=float,
        default=0.0,
        metavar="F",
        help="loadgen mode: fraction of interactive clients thinking 10x "
        "longer (adversarial slow consumers; default: 0)",
    )
    parser.add_argument(
        "--abandon-fraction",
        type=float,
        default=0.0,
        metavar="F",
        help="loadgen mode: fraction of clients that walk away "
        "mid-session (default: 0)",
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=4,
        metavar="N",
        help="loadgen mode: client connections to multiplex sessions "
        "over (default: 4)",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="loadgen mode: drive an already-running transport instead "
        "of self-hosting one (needs --edges or --plan for the oracle "
        "side)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=500,
        metavar="N",
        help="loadgen mode: size of the synthetic hierarchy when no "
        "--edges/--plan is given (default: 500)",
    )
    return parser


def _load_hierarchy_or_fail(args) -> "object | None":
    from repro.taxonomy import load_edge_list

    if not args.edges:
        print(f"{args.experiment} mode needs --edges <file>", file=sys.stderr)
        return None
    return load_edge_list(args.edges)


def _make_policy(args, hierarchy):
    from repro.policies import greedy_for, make_policy

    if args.policy == "auto":
        return greedy_for(hierarchy)
    return make_policy(args.policy)


def _run_interactive(args) -> int:
    from repro.interactive import console_search
    from repro.plan import CompiledPlan

    if args.plan:
        plan = CompiledPlan.load(args.plan)
        console_search(plan)
        return 0
    hierarchy = _load_hierarchy_or_fail(args)
    if hierarchy is None:
        return 2
    console_search(_make_policy(args, hierarchy), hierarchy)
    return 0


def _run_compile(args) -> int:
    from repro.plan import compile_policy

    hierarchy = _load_hierarchy_or_fail(args)
    if hierarchy is None:
        return 2
    policy = _make_policy(args, hierarchy)
    start = time.perf_counter()
    plan = compile_policy(policy, hierarchy)
    elapsed = time.perf_counter() - start
    plan.save(args.out)
    print(
        f"compiled {plan.policy_name!r} over {hierarchy.n} categories in "
        f"{elapsed:.2f}s: {plan.num_questions} questions, "
        f"{plan.num_leaves} leaves -> {args.out} "
        f"(key {plan.config_key[:12]}...)"
    )
    return 0


def _run_serve(args) -> int:
    """Serving demo: N target sessions through ``repro.serve``."""
    import contextlib
    import os

    import numpy as np

    from repro.exceptions import ReproError
    from repro.plan import CompiledPlan, compile_policy
    from repro.serve import Server, SessionRequest

    if args.plan:
        plan = CompiledPlan.load(args.plan)
        hierarchy = plan.hierarchy
    else:
        hierarchy = _load_hierarchy_or_fail(args)
        if hierarchy is None:
            return 2
        plan = compile_policy(_make_policy(args, hierarchy), hierarchy)

    rng = np.random.default_rng(args.seed)
    picks = rng.integers(0, hierarchy.n, size=args.sessions)
    feed = (
        SessionRequest(i, target=hierarchy.nodes[int(p)])
        for i, p in enumerate(picks)
    )

    server = Server(
        plan, max_sessions=args.max_sessions, queue_limit=args.queue_limit
    )
    fault = None
    armed = contextlib.nullcontext()
    if args.faults is not None:
        from repro.faults import FaultPlan

        os.environ["REPRO_FAULTS"] = "1"
        fault = FaultPlan.random(args.faults, rate=args.fault_rate)
        armed = fault.armed()
    cut_short = None
    start = time.perf_counter()
    with server:
        outcomes = []
        with armed:
            try:
                outcomes = list(server.serve(feed))
            except ReproError as exc:
                if fault is None:
                    raise
                cut_short = exc  # typed, replayable from the trace
    elapsed = time.perf_counter() - start

    counts = np.array(
        [o.result.num_queries for o in outcomes if o.ok], dtype=float
    )
    stats = server.stats
    print(
        f"served {stats.completed} session(s) over {hierarchy.n} categories "
        f"with plan {plan.policy_name!r} in {elapsed:.3f}s "
        f"({stats.completed / elapsed:,.0f} sessions/s)"
    )
    print(
        f"  in-flight peak {stats.peak_in_flight} "
        f"(cap {args.max_sessions}), {stats.rejected} rejected, "
        f"{stats.errored} errored, {stats.steps} steps"
    )
    if counts.size:
        p50, p90, p99 = np.percentile(counts, [50, 90, 99])
        print(
            f"  questions/session: mean {counts.mean():.2f}, p50 {p50:.0f}, "
            f"p90 {p90:.0f}, p99 {p99:.0f}, max {int(counts.max())}"
        )
    if fault is not None:
        print(
            f"  faults: seed {fault.seed}, rate {args.fault_rate}, "
            f"{fault.fired} fired; trace {fault.trace}"
        )
        if cut_short is not None:
            print(
                f"  feed cut short (typed): "
                f"{type(cut_short).__name__}: {cut_short}"
            )
    return 0


def _run_loadgen(args) -> int:
    """Open-loop Poisson traffic against the network transport."""
    import asyncio

    from repro.plan import CompiledPlan, compile_policy
    from repro.serve import LoadProfile, ServeTransport, Server, run_load
    from repro.testing import make_random_tree

    if args.plan:
        plan = CompiledPlan.load(args.plan)
        hierarchy = plan.hierarchy
    elif args.edges:
        hierarchy = _load_hierarchy_or_fail(args)
        if hierarchy is None:
            return 2
        plan = compile_policy(_make_policy(args, hierarchy), hierarchy)
    elif args.connect:
        print(
            "loadgen --connect needs --edges or --plan (the generator "
            "answers interactive questions locally)",
            file=sys.stderr,
        )
        return 2
    else:
        hierarchy = make_random_tree(args.nodes, seed=args.seed)
        plan = compile_policy(_make_policy(args, hierarchy), hierarchy)

    profile = LoadProfile(
        rate=args.rate,
        sessions=args.sessions,
        interactive_fraction=args.interactive_fraction,
        think_time=args.think,
        slow_fraction=args.slow_fraction,
        abandon_fraction=args.abandon_fraction,
        connections=args.connections,
        seed=args.seed,
    )

    async def drive() -> "object":
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            return await run_load(
                host or "127.0.0.1", int(port), profile, hierarchy
            )
        with Server(plan) as server:
            async with ServeTransport(server) as transport:
                host, port = transport.address
                return await run_load(host, port, profile, hierarchy)

    report = asyncio.run(drive())
    where = args.connect or "self-hosted localhost transport"
    print(
        f"open-loop load over {hierarchy.n} categories against {where} "
        f"({profile.sessions} arrivals, {profile.connections} connections)"
    )
    print(f"  {report}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Static invariant checks live in their own argument namespace;
        # delegate before the experiment parser sees (and rejects) them.
        from repro.analysis.__main__ import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "interactive":
        return _run_interactive(args)
    if args.experiment == "compile":
        return _run_compile(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "loadgen":
        return _run_loadgen(args)
    if args.plan_cache:
        from repro.plan import set_default_cache

        set_default_cache(args.plan_cache)
    if args.jobs is not None:
        from repro.engine import set_default_jobs

        set_default_jobs(args.jobs)
    if args.result_cache:
        from repro.engine import set_default_result_cache

        set_default_result_cache(args.result_cache)
    scale = get_scale(args.scale)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        if name == "noise":
            # The noise experiment grew belief-engine knobs beyond the
            # uniform (scale, seed) signature; jobs flows through the
            # ambient default installed above.
            from repro.experiments import noise as noise_experiment

            noise_experiment.main(
                scale,
                args.seed,
                error_rate=args.error_rate,
                replications=args.replications,
            )
        else:
            EXPERIMENTS[name](scale, args.seed)
        elapsed = time.perf_counter() - start
        print(f"[{name} finished in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
