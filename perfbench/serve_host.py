"""The server process of a serving round (``serve-target``, ``serve-interactive``).

Builds the paper-size Amazon-like tree and its catalog distribution,
compiles a GreedyTree plan, and serves it with ``Server`` and
``ServeTransport`` at their defaults on a localhost port.  ``setup_s`` runs
from the hierarchy build until the transport accepts connections.  Then it
prints ``{"ready": ..., "port": ...}``, saves the plan for the load
generator, and serves until SIGTERM.  SIGUSR1 and SIGUSR2 mark the start
and end of the measured window (CPU accounting, and with ``--trace 1``
span recording plus an event-loop lag probe).  On exit it prints one JSON
line with its counters and measurements.  With ``--setup-only`` it
reports the set-up and exits.

Started by ``run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import time
from dataclasses import asdict

import common

#: Event-loop lag probe period (traced runs only).
PROBE_S = 0.005


async def serve(args, tracer) -> dict:
    from repro.experiments.scale import PAPER
    from repro.plan import compile_policy
    from repro.policies import GreedyTreePolicy
    from repro.serve import Server, ServeTransport
    from repro.taxonomy import amazon_catalog, amazon_like

    loop = asyncio.get_running_loop()
    t0 = time.perf_counter()
    hierarchy = amazon_like(PAPER.amazon_nodes, seed=common.SERVE_TREE_SEED)
    catalog = amazon_catalog(
        hierarchy, seed=common.SERVE_TREE_SEED, num_objects=PAPER.num_objects
    )
    plan = compile_policy(
        GreedyTreePolicy(), hierarchy, catalog.to_distribution()
    )
    server = Server(plan)
    transport = ServeTransport(server)
    _, port = await transport.start()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        await transport.shutdown(timeout=10)
        server.close()
        return {"setup_s": setup_s}
    plan.save(args.plan_out)

    state: dict = {}
    lags: list[float] = []
    done = asyncio.Event()

    async def probe() -> None:
        while True:
            due = loop.time() + PROBE_S
            await asyncio.sleep(PROBE_S)
            lags.append(loop.time() - due)

    def begin() -> None:
        state["cpu"] = common.CpuWindow()
        state["transport0"] = asdict(transport.stats)
        if tracer is not None:
            tracer.enabled = True
            state["probe"] = loop.create_task(probe())

    def end() -> None:
        if "cpu" not in state or "transport1" in state:
            return
        state["cpu"].stop()
        state["transport1"] = asdict(transport.stats)
        if tracer is not None:
            tracer.enabled = False
            state["probe"].cancel()

    loop.add_signal_handler(signal.SIGUSR1, begin)
    loop.add_signal_handler(signal.SIGUSR2, end)
    loop.add_signal_handler(signal.SIGTERM, done.set)
    common.emit({"ready": True, "port": port, "setup_s": setup_s})
    await done.wait()
    end()
    if "probe" in state:
        await asyncio.gather(state["probe"], return_exceptions=True)
    await transport.shutdown(timeout=10)
    server.close()

    stats = asdict(server.stats)
    stats.pop("tenants")
    report = {
        "setup_s": setup_s,
        "peak_rss_mb": common.peak_rss_mb(),
        "server_stats": stats,
        "transport_stats": asdict(transport.stats),
    }
    if "cpu" not in state:
        return report
    report["cpu_per_wall"] = state["cpu"].ratio
    if tracer is not None:
        import tracing

        before, after = state["transport0"], state["transport1"]
        opened = sum(
            after[k] - before[k] for k in ("opened_target", "opened_interactive")
        )
        per = 1.0 / opened if opened else 0.0
        lag_ms = [lag * 1e3 for lag in lags]
        extra = {
            "process.cpu_per_wall": report["cpu_per_wall"],
            "serve.transport.frames_in": (
                after["frames_in"] - before["frames_in"]
            ) * per,
            "serve.transport.frames_out": (
                after["frames_out"] - before["frames_out"]
            ) * per,
            "serve.transport.loop_lag_p50_ms": common.percentile(lag_ms, 50),
            "serve.transport.loop_lag_p99_ms": common.percentile(lag_ms, 99),
        }
        for key in (
            "connections",
            "rejected",
            "protocol_errors",
            "orphaned",
            "slow_disconnects",
        ):
            extra[f"serve.transport.{key}"] = float(after[key])
        for key in ("completed", "errored", "rejected", "peak_in_flight"):
            extra[f"serve.server.stats.{key}"] = float(stats[key])
        report["per_layer"] = tracing.per_layer(tracer, opened, extra)
        if args.spans_out:
            tracer.dump(args.spans_out)
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plan-out", default=None)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    common.pin_to(args.cpu)

    import repro.serve  # noqa: F401  (imports are not set-up)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    common.emit(asyncio.run(serve(args, tracer)))


if __name__ == "__main__":
    main()
