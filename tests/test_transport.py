"""Tests for the network edge (``repro.serve.transport``) and loadgen.

Five contracts:

1. **Wire fidelity** — target and interactive sessions served over a real
   localhost socket return byte-identical :class:`SearchResult`s to local
   ``run_search``; typed errors cross the wire as their original classes.

2. **Stickiness & backpressure** — a live session id is refused on a
   second open (same or other connection) with a typed error; the
   per-connection cap, the interactive cap, and a slow consumer's outbox
   overflow all degrade typed, never hang.

3. **Adversarial clients** — mid-session disconnects orphan (not crash)
   in-flight work, abandoned interactive runtimes are reclaimed, and the
   transport keeps serving everyone else.

4. **Event-loop liveness** — the regression test for the ``aserve``
   stall bug: while one connection's session is inside a blocking
   ``step()`` (a blocking oracle, emulated with a deterministic sleep),
   a second connection's pings keep round-tripping, proving the step
   runs off-loop (``asyncio.to_thread``).

5. **Abandoned-generator hygiene** — breaking out of ``serve()`` /
   ``aserve()`` mid-flight reclaims every in-flight session; runs under
   ``REPRO_SANITIZE=1`` so any accounting drift raises
   :class:`SanitizerError`.

Plus the open-loop load generator: deterministic schedules for a seed,
sane percentile math, and a short end-to-end run over the real wire.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time

import pytest

from repro.core.oracle import ExactOracle
from repro.core.session import run_search
from repro.exceptions import (
    AdmissionError,
    QuotaExceededError,
    ServeError,
    ServeTimeoutError,
    TransportError,
)
from repro.faults import RetryPolicy
from repro.plan import compile_policy
from repro.policies import GreedyTreePolicy
from repro.serve import (
    LoadProfile,
    Server,
    ServeClient,
    ServeTransport,
    SessionRequest,
    run_load,
)
from repro.serve.loadgen import _draw_schedule, percentile
from repro.serve.transport import MAX_FRAME_BYTES, _encode
from repro.testing import make_random_tree, random_distribution


def _config(n=40, seed=7):
    hierarchy = make_random_tree(n, seed=seed)
    distribution = random_distribution(hierarchy, seed)
    plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
    return plan, hierarchy, distribution


def _references(plan, hierarchy, targets):
    return {
        t: run_search(plan, ExactOracle(hierarchy, t), hierarchy)
        for t in targets
    }


async def _raw_connect(host, port):
    """A bare socket speaking the wire protocol, no client smarts."""
    return await asyncio.open_connection(host, port, limit=MAX_FRAME_BYTES)


async def _poll(predicate, *, timeout=5.0, interval=0.005):
    """Await a condition the event loop settles asynchronously."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(interval)


# ----------------------------------------------------------------------
# 1. Wire fidelity
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_target_sessions_bit_identical(self):
        plan, hierarchy, _ = _config()
        targets = list(hierarchy.nodes)[:12]
        reference = _references(plan, hierarchy, targets)

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    clients = [
                        await ServeClient.connect(host, port)
                        for _ in range(3)
                    ]
                    try:
                        results = await asyncio.gather(
                            *(
                                clients[i % 3].serve_target(f"s-{i}", t)
                                for i, t in enumerate(targets)
                            )
                        )
                    finally:
                        for client in clients:
                            await client.close()
                    assert transport.stats.opened_target == len(targets)
                    assert transport.stats.orphaned == 0
                    return results

        results = asyncio.run(main())
        for target, result in zip(targets, results):
            assert result == reference[target], target

    def test_interactive_session_matches_local(self):
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[5]
        reference = run_search(
            plan, ExactOracle(hierarchy, target), hierarchy
        )

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    async with await ServeClient.connect(
                        host, port
                    ) as client:
                        oracle = ExactOracle(hierarchy, target)
                        result = await client.run_target_session(
                            "live", oracle
                        )
                    assert transport.stats.opened_interactive == 1
                    return result

        assert asyncio.run(main()) == reference

    def test_ping_reports_server_state(self):
        plan, _, _ = _config()

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    async with await ServeClient.connect(
                        host, port
                    ) as client:
                        return await client.ping()

        pong = asyncio.run(main())
        assert pong["op"] == "pong"
        assert pong["in_flight"] == 0
        assert pong["draining"] is False

    def test_typed_errors_cross_the_wire(self):
        """An unknown target comes back as the original HierarchyError
        (not a flattened string), and protocol misuse is TransportError."""
        plan, _, _ = _config()

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    async with await ServeClient.connect(
                        host, port
                    ) as client:
                        errors = []
                        try:
                            await client.serve_target("bad", "no-such-node")
                        except Exception as exc:  # noqa: BLE001 - recording type
                            errors.append(exc)
                        # open frame with neither target nor interactive
                        inbox = client._inbox["half"] = asyncio.Queue()
                        await client._post({"op": "open", "id": "half"})
                        errors.append(await inbox.get())
                        return errors, transport.stats.rejected

        (search_error, frame), rejected = asyncio.run(main())
        from repro.exceptions import HierarchyError

        assert isinstance(search_error, HierarchyError)
        assert frame["error"] == "TransportError"
        assert rejected == 1

    def test_malformed_json_is_protocol_error_not_crash(self):
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[1]
        reference = run_search(
            plan, ExactOracle(hierarchy, target), hierarchy
        )

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    reader, writer = await _raw_connect(host, port)
                    writer.write(b"this is not json\n")
                    await writer.drain()
                    line = await reader.readline()
                    frame = json.loads(line)
                    writer.close()
                    await writer.wait_closed()
                    # The transport survives and serves the next client.
                    async with await ServeClient.connect(
                        host, port
                    ) as client:
                        result = await client.serve_target("ok", target)
                    return frame, transport.stats.protocol_errors, result

        frame, protocol_errors, result = asyncio.run(main())
        assert frame["error"] == "TransportError"
        assert protocol_errors == 1
        assert result == reference


# ----------------------------------------------------------------------
# 2. Stickiness and backpressure
# ----------------------------------------------------------------------
class TestStickiness:
    def test_live_id_refused_on_second_connection(self):
        plan, _, _ = _config()

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    a = await ServeClient.connect(host, port)
                    b = await ServeClient.connect(host, port)
                    try:
                        session = await a.open_interactive("shared")
                        with pytest.raises(TransportError, match="sticky"):
                            await b.open_interactive("shared")
                        # Finishing on A releases the id for B.
                        while not session.done:
                            await session.answer(True)
                        again = await b.open_interactive("shared")
                        await again.close()
                    finally:
                        await a.close()
                        await b.close()
                    return transport.stats.rejected

        assert asyncio.run(main()) == 1

    def test_completed_target_id_is_reusable(self):
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[2]

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    async with await ServeClient.connect(
                        host, port
                    ) as client:
                        first = await client.serve_target("same", target)
                        second = await client.serve_target("same", target)
                        return first, second

        first, second = asyncio.run(main())
        assert first == second


class TestBackpressure:
    def test_per_connection_cap_is_typed(self):
        plan, _, _ = _config()

        async def main():
            with Server(plan) as server:
                async with ServeTransport(
                    server, max_sessions_per_conn=1
                ) as transport:
                    host, port = transport.address
                    async with await ServeClient.connect(
                        host,
                        port,
                        retry=RetryPolicy(attempts=1),
                    ) as client:
                        held = await client.open_interactive("held")
                        with pytest.raises(AdmissionError, match="cap"):
                            await client.open_interactive("overflow")
                        await held.close()

        asyncio.run(main())

    def test_interactive_cap_is_typed(self):
        plan, _, _ = _config()

        async def main():
            with Server(plan) as server:
                async with ServeTransport(
                    server, max_interactive=0
                ) as transport:
                    host, port = transport.address
                    async with await ServeClient.connect(
                        host, port
                    ) as client:
                        with pytest.raises(AdmissionError, match="cap"):
                            await client.open_interactive("nope")

        asyncio.run(main())

    def test_slow_consumer_is_disconnected_not_buffered(self):
        """A reader that never drains its replies is dropped once its
        outbox fills; everyone else keeps being served."""
        plan, hierarchy, _ = _config()
        targets = list(hierarchy.nodes)[:8]
        reference = _references(plan, hierarchy, targets)

        async def main():
            with Server(plan) as server:
                async with ServeTransport(
                    server, outbox_limit=1
                ) as transport:
                    host, port = transport.address
                    _, writer = await _raw_connect(host, port)
                    for i, t in enumerate(targets):
                        writer.write(
                            _encode(
                                {"op": "open", "id": f"slow-{i}", "target": t}
                            )
                        )
                    await writer.drain()
                    await _poll(
                        lambda: transport.stats.slow_disconnects == 1
                    )
                    # The healthy client is unaffected.
                    async with await ServeClient.connect(
                        host, port
                    ) as client:
                        result = await client.serve_target(
                            "healthy", targets[0]
                        )
                    writer.close()
                    return result

        assert asyncio.run(main()) == reference[targets[0]]


# ----------------------------------------------------------------------
# 3. Adversarial clients
# ----------------------------------------------------------------------
class TestDisconnects:
    def test_mid_session_disconnect_orphans_not_crashes(self):
        plan, hierarchy, _ = _config()
        targets = list(hierarchy.nodes)[:6]
        survivor = list(hierarchy.nodes)[10]
        reference = run_search(
            plan, ExactOracle(hierarchy, survivor), hierarchy
        )

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    _, writer = await _raw_connect(host, port)
                    for i, t in enumerate(targets):
                        writer.write(
                            _encode(
                                {"op": "open", "id": f"gone-{i}", "target": t}
                            )
                        )
                    await writer.drain()
                    writer.close()  # hang up mid-flight
                    async with await ServeClient.connect(
                        host, port
                    ) as client:
                        result = await client.serve_target("live", survivor)
                    await _poll(
                        lambda: transport.stats.orphaned == len(targets)
                    )
                    return result, server.stats

        result, stats = asyncio.run(main())
        assert result == reference
        # The server finished the orphans (vectorized cohorts run to
        # completion); nothing leaked.
        assert stats.completed == len(targets) + 1

    def test_close_frame_abandons_target_session(self):
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[4]

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    async with await ServeClient.connect(
                        host, port
                    ) as client:
                        await client._post(
                            {"op": "open", "id": "walk", "target": target}
                        )
                        await client._post({"op": "close", "id": "walk"})
                        await _poll(lambda: transport.stats.orphaned == 1)
                        # The id is free again immediately after the close.
                        return await client.serve_target("walk", target)

        result = asyncio.run(main())
        assert result == run_search(
            plan, ExactOracle(hierarchy, target), hierarchy
        )

    def test_interactive_dies_with_its_connection(self):
        plan, _, _ = _config()

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    a = await ServeClient.connect(host, port)
                    await a.open_interactive("mine")
                    await a.close()  # vanish without finishing
                    await _poll(
                        lambda: transport._interactive_count == 0
                    )
                    async with await ServeClient.connect(
                        host, port
                    ) as b:
                        # Sticky key released with the connection.
                        session = await b.open_interactive("mine")
                        await session.close()
                    return transport._interactive_count

        assert asyncio.run(main()) == 0


# ----------------------------------------------------------------------
# 4. Drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_graceful_drain_delivers_inflight_results(self):
        plan, hierarchy, _ = _config()
        targets = list(hierarchy.nodes)[:6]
        reference = _references(plan, hierarchy, targets)

        async def main():
            with Server(plan) as server:
                transport = ServeTransport(server)
                host, port = await transport.start()
                client = await ServeClient.connect(host, port)
                tasks = [
                    asyncio.ensure_future(
                        client.serve_target(f"d-{i}", t)
                    )
                    for i, t in enumerate(targets)
                ]
                await _poll(
                    lambda: transport.stats.opened_target == len(targets)
                )
                await transport.shutdown()
                results = await asyncio.gather(*tasks)
                await client.close()
                return results

        results = asyncio.run(main())
        for target, result in zip(targets, results):
            assert result == reference[target]

    def test_drain_past_deadline_raises_typed(self, monkeypatch):
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[3]

        async def main():
            with Server(plan) as server:
                def stuck_step():
                    time.sleep(0.25)
                    return []  # finishes nobody: the session stays in flight

                monkeypatch.setattr(server, "step", stuck_step)
                transport = ServeTransport(server)
                host, port = await transport.start()
                client = await ServeClient.connect(host, port)
                task = asyncio.ensure_future(
                    client.serve_target("slow", target, deadline=5.0)
                )
                await asyncio.sleep(0.05)  # the open is in flight
                with pytest.raises(ServeTimeoutError, match="deadline"):
                    await transport.shutdown(timeout=0.05)
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
                await client.close()
                return server.stats.abandoned

        assert asyncio.run(main()) >= 1

    def test_connect_after_shutdown_fails_typed(self):
        plan, _, _ = _config()

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                with pytest.raises((ConnectionError, OSError)):
                    await ServeClient.connect(
                        host, port, retry=RetryPolicy(attempts=1)
                    )

        asyncio.run(main())

    def test_double_start_refused(self):
        plan, _, _ = _config()

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    with pytest.raises(ServeError, match="already started"):
                        await transport.start()

        asyncio.run(main())


# ----------------------------------------------------------------------
# 5. Event-loop liveness: the aserve stall regression
# ----------------------------------------------------------------------
class TestEventLoopLiveness:
    def test_second_connection_progresses_during_blocking_collect(
        self, monkeypatch
    ):
        """The regression: ``aserve`` used to run the blocking ``step()``
        directly on the event loop, so while one step was blocked (on an
        oracle, say) *every other connection froze*.  With the step in
        ``asyncio.to_thread``, connection B's pings must round-trip while
        connection A's session is pinned inside a 0.5s step."""
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[7]

        async def main():
            with Server(plan) as server:
                real_step = server.step

                def blocking_step():
                    # Stand-in for a blocking oracle: deterministic, long,
                    # and genuinely blocking the calling thread.
                    time.sleep(0.5)
                    return real_step()

                monkeypatch.setattr(server, "step", blocking_step)
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    a = await ServeClient.connect(host, port)
                    b = await ServeClient.connect(host, port)
                    try:
                        pinned = asyncio.ensure_future(
                            a.serve_target("cohort", target, deadline=30.0)
                        )
                        await asyncio.sleep(0.1)  # A is inside step()
                        rtts = []
                        for _ in range(3):
                            t0 = time.monotonic()
                            await b.ping(deadline=5.0)
                            rtts.append(time.monotonic() - t0)
                        result = await pinned
                    finally:
                        await a.close()
                        await b.close()
                    return rtts, result

        rtts, result = asyncio.run(main())
        # Un-fixed, each ping waits out at least one full 0.5s step.
        assert max(rtts) < 0.4, rtts
        assert result == run_search(
            plan, ExactOracle(hierarchy, target), hierarchy
        )


# ----------------------------------------------------------------------
# 6. Abandoned-generator hygiene (REPRO_SANITIZE=1)
# ----------------------------------------------------------------------
class TestAbandonedFeeds:
    @pytest.fixture
    def sanitized(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")

    @staticmethod
    def _oracle_feed(plan, hierarchy):
        """Oracle-driven sessions of differing depths, shallowest first:
        each answers one question per step, so the first outcome leaves
        the deeper sessions in flight."""
        depths = plan.leaf_depths()
        by_depth = sorted(hierarchy.nodes, key=lambda t: (depths[t], str(t)))
        chosen = [by_depth[0], *by_depth[-9:]]
        assert depths[chosen[0]] < depths[chosen[1]]
        return [
            SessionRequest(i, oracle=ExactOracle(hierarchy, t))
            for i, t in enumerate(chosen)
        ], chosen

    def test_serve_abandoned_midflight_reclaims(self, sanitized):
        plan, hierarchy, _ = _config()
        requests, targets = self._oracle_feed(plan, hierarchy)

        with Server(plan, max_sessions=4) as server:
            gen = server.serve(iter(requests))
            first = next(gen)  # one outcome out, the rest in flight
            assert first.session_id == 0
            assert server.in_flight > 0
            gen.close()  # consumer walks away
            assert server.in_flight == 0
            assert server.queued == 0
            assert server.stats.abandoned > 0
            # The server is still usable after the reclaim.
            outcomes = list(
                server.serve(iter([SessionRequest("again", target=targets[0])]))
            )
            assert outcomes[0].ok
        # close() ran its sanitizer pin audit without tripping.

    def test_aserve_abandoned_midflight_reclaims(self, sanitized):
        plan, hierarchy, _ = _config()
        requests, _ = self._oracle_feed(plan, hierarchy)

        async def feed():
            for request in requests:
                yield request

        async def main():
            with Server(plan, max_sessions=4) as server:
                gen = server.aserve(feed())
                first = await gen.__anext__()
                assert first.session_id == 0
                assert server.in_flight > 0
                await gen.aclose()
                assert server.in_flight == 0
                assert server.queued == 0
                return server.stats.abandoned

        assert asyncio.run(main()) > 0

    def test_abandoned_transport_client_leaves_zero_pin_drift(
        self, sanitized
    ):
        """The acceptance scenario: a client that abandons its sessions
        while they are in flight, then a clean drain — the sessions are
        orphaned over the wire, not leaked, and the accounting audits
        pass."""
        plan, hierarchy, _ = _config(n=60, seed=13)
        targets = list(hierarchy.nodes)[:12]
        hung_up = threading.Event()

        async def main():
            with Server(plan, max_sessions=16) as server:
                real_step = server.step

                def held_step():
                    # Nobody finishes until the client has hung up.
                    if not hung_up.is_set():
                        time.sleep(0.005)
                        return []
                    return real_step()

                server.step = held_step
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    _, writer = await _raw_connect(host, port)
                    for i, t in enumerate(targets):
                        writer.write(
                            _encode({"op": "open", "id": f"x-{i}", "target": t})
                        )
                    await writer.drain()
                    await _poll(
                        lambda: transport.stats.opened_target == len(targets)
                    )
                    writer.close()  # abandon every session
                    await _poll(lambda: not transport._conns)
                    hung_up.set()
                    await _poll(lambda: server.stats.completed == len(targets))
                assert server.in_flight == 0
                return transport.stats.orphaned

        assert asyncio.run(main()) == len(targets)


# ----------------------------------------------------------------------
# 7. The open-loop load generator
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5
        assert math.isnan(percentile([], 99))

    def test_profile_validation(self):
        with pytest.raises(ServeError):
            LoadProfile(rate=0)
        with pytest.raises(ServeError):
            LoadProfile(interactive_fraction=1.5)
        with pytest.raises(ServeError):
            LoadProfile(connections=0)

    def test_schedule_is_deterministic_for_a_seed(self):
        _, hierarchy, _ = _config()
        targets = list(hierarchy.nodes)
        profile = LoadProfile(
            sessions=50, abandon_fraction=0.2, slow_fraction=0.2, seed=11
        )
        a = _draw_schedule(profile, targets)
        b = _draw_schedule(profile, targets)
        assert a == b
        assert any(s.abandon_after for s in a)
        assert any(s.slow for s in a)
        # Arrivals are sorted (cumulative exponential gaps).
        assert all(x.at <= y.at for x, y in zip(a, a[1:]))

    def test_end_to_end_over_the_wire(self):
        plan, hierarchy, _ = _config()
        profile = LoadProfile(
            rate=500.0,
            sessions=40,
            interactive_fraction=0.5,
            abandon_fraction=0.1,
            connections=2,
            seed=3,
        )

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    return await run_load(
                        host, port, profile, hierarchy, deadline=30.0
                    )

        report = asyncio.run(main())
        summary = report.summary()
        assert report.completed + report.abandoned + report.errored == 40
        assert report.errored == 0
        assert report.completed > 0
        assert summary["sessions_per_second"] > 0
        assert summary["question_p99_ms"] >= summary["question_p50_ms"]
        assert "->" in str(report)


# ----------------------------------------------------------------------
# 8. aserve-vs-serve parity on seeded feeds
# ----------------------------------------------------------------------
class TestAsyncSyncParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_feed_outcomes_identical(self, seed):
        """The same seeded request mix (good targets, unknown targets,
        quota-limited tenants) through ``serve()`` and ``aserve()``
        yields identical outcomes: same results byte-for-byte, same
        typed error classes, same stats."""
        import numpy as _np

        plan, hierarchy, _ = _config(n=50, seed=9)
        rng = _np.random.default_rng(seed)
        nodes = list(hierarchy.nodes)
        requests = []
        for i in range(30):
            roll = float(rng.random())
            if roll < 0.15:
                target = f"missing-{i}"  # unknown node -> typed error
            else:
                target = nodes[int(rng.integers(len(nodes)))]
            tenant = ["default", "acme"][int(rng.integers(2))]
            requests.append(
                SessionRequest(i, target=target, tenant=tenant)
            )

        def run_sync():
            with Server(plan, max_sessions=4) as server:
                outcomes = {
                    o.session_id: o for o in server.serve(iter(requests))
                }
                return outcomes, server.stats

        def run_async():
            async def feed():
                for request in requests:
                    yield request

            async def main():
                with Server(plan, max_sessions=4) as server:
                    outcomes = {}
                    async for o in server.aserve(feed()):
                        outcomes[o.session_id] = o
                    return outcomes, server.stats

            return asyncio.run(main())

        sync_out, sync_stats = run_sync()
        async_out, async_stats = run_async()
        assert set(sync_out) == set(async_out) == set(range(30))
        for i in range(30):
            s, a = sync_out[i], async_out[i]
            assert s.result == a.result, i
            assert type(s.error) is type(a.error), i
            assert s.tenant == a.tenant, i
        assert sync_stats.completed == async_stats.completed
        assert sync_stats.errored == async_stats.errored
        assert sync_stats.submitted == async_stats.submitted

    def test_quota_rejections_identical(self):
        """Per-tenant plan quotas reject identically on both paths."""
        base_plan, hierarchy, _ = _config(n=30, seed=5)
        h2 = make_random_tree(22, seed=2)
        other = compile_policy(
            GreedyTreePolicy(), h2, random_distribution(h2, 2)
        )
        requests = [
            SessionRequest(0, target=hierarchy.nodes[1], tenant="t"),
            SessionRequest(1, target=h2.root, plan=other, tenant="t"),
        ]

        def outcomes_sync():
            with Server(base_plan, plan_quota=1) as server:
                return [
                    (o.session_id, type(o.error))
                    for o in server.serve(iter(requests))
                ]

        def outcomes_async():
            async def feed():
                for request in requests:
                    yield request

            async def main():
                with Server(base_plan, plan_quota=1) as server:
                    return [
                        (o.session_id, type(o.error))
                        async for o in server.aserve(feed())
                    ]

            return asyncio.run(main())

        sync_view = sorted(outcomes_sync(), key=str)
        async_view = sorted(outcomes_async(), key=str)
        assert sync_view == async_view
        assert (1, QuotaExceededError) in sync_view
