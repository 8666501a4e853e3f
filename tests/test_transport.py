"""Tests for the network edge (``repro.serve.transport``) and loadgen.

Five contracts:

1. **Wire fidelity** — target and interactive sessions served over a real
   localhost socket return byte-identical :class:`SearchResult`s to local
   ``run_search``; result frames encode to fixed reference bytes; typed
   errors cross the wire as their original classes.

2. **Stickiness & backpressure** — a live session id is refused on a
   second open (same or other connection) with a typed error; the
   per-connection cap and the interactive cap degrade typed, never hang;
   a peer that does not drain its replies is paused, not disconnected;
   a client pipelining more opens than the outbox holds gets every
   result; replies queued behind a write leave in one write, in order.

3. **Adversarial clients** — clients that hang up with sessions open, or
   close ids, leave nothing live (no runtime, no sticky id), and the
   transport keeps serving everyone else.  Under ``REPRO_SANITIZE=1``,
   an abandoned ``serve()`` feed reclaims every in-flight session.

4. **Settle-vs-serve parity** — :meth:`Server.settle`, which the wire
   calls as each target ``open`` is read, gives the same outcomes (results
   byte for byte, error types and texts) and counters as ``serve()``.

5. **Frame fuzzing** — arbitrary NDJSON frames, split and coalesced,
   oversized, undecodable or deeply nested, get typed replies only; the
   transport stays live and leaks no session.

Plus the open-loop load generator: deterministic schedules for a seed,
sane percentile math, and a short end-to-end run over the real wire.
"""

from __future__ import annotations

import asyncio
import json
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import exceptions
from repro.core.costs import TableCost
from repro.core.hierarchy import Hierarchy
from repro.core.oracle import ExactOracle
from repro.core.session import run_search
from repro.exceptions import (
    AdmissionError,
    BudgetExceededError,
    QuotaExceededError,
    ReproError,
    SearchError,
    ServeError,
    ServeTimeoutError,
    TransportError,
)
from repro.faults import RetryPolicy
from repro.plan import CompiledPlan, compile_policy
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
from repro.serve.runtime import SessionRuntime
from repro.serve.transport import (
    MAX_FRAME_BYTES,
    _decode_result,
    _encode,
    _result_frame,
)
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


async def _read_frames(reader, count, *, timeout=5.0):
    """The next ``count`` reply frames; fails, not hangs, past ``timeout``."""

    async def read():
        return [json.loads(await reader.readline()) for _ in range(count)]

    return await asyncio.wait_for(read(), timeout)


def _assert_nothing_live(transport, server):
    """No interactive runtime, sticky id or server session is left."""
    assert transport._interactive_count == 0
    assert not transport._sticky
    assert server.in_flight == 0
    assert server.queued == 0


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

    def test_non_boolean_answer_is_refused_typed(self):
        """An ``answer`` frame whose answer is missing, a string, a number,
        an array or an object gets a TransportError frame, and its session
        keeps the pending question: answered with real booleans, it
        finishes with the result of ``run_search``."""
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[5]
        oracle = ExactOracle(hierarchy, target)
        reference = run_search(plan, oracle, hierarchy)
        bad = [
            {},
            {"answer": "false"},
            {"answer": 0},
            {"answer": [True]},
            {"answer": {"x": 1}},
        ]

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    reader, writer = await _raw_connect(*transport.address)
                    writer.write(
                        _encode({"op": "open", "id": "q", "interactive": True})
                    )
                    await writer.drain()
                    (frame,) = await _read_frames(reader, 1)
                    assert frame["op"] == "ask"
                    writer.write(
                        b"".join(
                            _encode({"op": "answer", "id": "q", **fields})
                            for fields in bad
                        )
                    )
                    await writer.drain()
                    errors = await _read_frames(reader, len(bad))
                    while frame["op"] == "ask":
                        answer = bool(oracle.answer(frame["query"]))
                        writer.write(
                            _encode(
                                {"op": "answer", "id": "q", "answer": answer}
                            )
                        )
                        await writer.drain()
                        (frame,) = await _read_frames(reader, 1)
                    _assert_nothing_live(transport, server)
                    writer.close()
                    await writer.wait_closed()
                    return errors, frame

        errors, frame = asyncio.run(main())
        names = [error.get("error") for error in errors]
        assert names == ["TransportError"] * len(bad)
        for error in errors:
            assert error["id"] == "q"
            assert error["message"] == "answer must be true or false"
        assert frame["op"] == "result", frame
        assert _decode_result(frame) == reference

    def test_result_frames_encode_to_reference_bytes(self):
        """Result frames from the leaf table (``Server.settle``) and from a
        per-session ``SessionRuntime`` encode, for every node of a tree
        with non-ASCII labels and non-integer prices, to the bytes of a
        plain ``json.dumps`` of the frame with list transcripts."""
        hierarchy = Hierarchy(
            [
                ("root", "café"),
                ("root", "Hund"),
                ("café", "crème brûlée"),
                ("café", "naïve"),
                ("naïve", "ü"),
                ("Hund", "Dackel \N{DOG}"),
                ("Hund", "Pudel"),
                ("Pudel", "pudel-2"),
            ]
        )
        cost = TableCost(
            {node: 0.1 * (i + 1) for i, node in enumerate(hierarchy.nodes)}
        )
        plan = compile_policy(
            GreedyTreePolicy(),
            hierarchy,
            random_distribution(hierarchy, 3),
            cost,
        )

        def reference_bytes(session_id, result):
            frame = {
                "op": "result",
                "id": session_id,
                "returned": result.returned,
                "num_queries": result.num_queries,
                "total_price": result.total_price,
                "transcript": [[q, bool(a)] for q, a in result.transcript],
            }
            return json.dumps(
                frame, separators=(",", ":"), sort_keys=True
            ).encode("utf-8") + b"\n"

        prices = set()
        with Server(plan, cost_model=cost) as server:
            for target in hierarchy.nodes:
                outcome = server.settle(
                    SessionRequest(session_id=target, target=target)
                )
                assert outcome.error is None, outcome.error
                walked = SessionRuntime(plan, cost_model=cost).run(
                    ExactOracle(hierarchy, target)
                )
                for result in (outcome.result, walked):
                    wire = _encode(_result_frame(target, result))
                    assert wire == reference_bytes(target, result), target
                    assert _decode_result(json.loads(wire)) == result
                prices.add(walked.total_price)
        assert any(price != int(price) for price in prices)

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

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"op": "ping", "id": "\xff\xfe"}\n',
            b"[" * 100_000 + b"\n",
            b'{"op": "ping", "id": ' + b"9" * 5000 + b"}\n",
        ],
        ids=["invalid-utf8", "deep-nesting", "long-int"],
    )
    def test_undecodable_frame_is_protocol_error(self, payload):
        """A frame that is not valid UTF-8, nests past the recursion limit
        or holds an integer too long to convert is answered like malformed
        JSON: a TransportError frame, then the connection closes."""
        plan, _, _ = _config()

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    reader, writer = await _raw_connect(*transport.address)
                    writer.write(payload)
                    await writer.drain()
                    (frame,) = await _read_frames(reader, 1)
                    rest = await asyncio.wait_for(reader.read(), 5.0)
                    writer.close()
                    await writer.wait_closed()
                    return frame, rest, transport.stats.protocol_errors

        frame, rest, protocol_errors = asyncio.run(main())
        assert frame["error"] == "TransportError"
        assert rest == b""  # closed by the transport
        assert protocol_errors == 1

    @pytest.mark.parametrize("field", ["id", "tenant", "target"])
    def test_non_scalar_field_is_refused_typed(self, field):
        """An ``id``, ``tenant`` or ``target`` that is not a JSON scalar
        is answered like an unknown op — a TransportError frame — and the
        connection keeps serving."""
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[1]
        bad = {"op": "open", "id": "s", "target": target}
        bad[field] = [1] if field == "target" else {"a": [1]}

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    reader, writer = await _raw_connect(*transport.address)
                    writer.write(_encode(bad) + _encode({"op": "ping"}))
                    await writer.drain()
                    replies = await _read_frames(reader, 2)
                    writer.close()
                    await writer.wait_closed()
                    return replies, transport.stats

        (error, pong), stats = asyncio.run(main())
        assert error["error"] == "TransportError"
        assert field in error["message"]
        assert pong["op"] == "pong"
        assert stats.protocol_errors == 1
        assert stats.opened_target == 0


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

    def test_slow_consumer_is_paused_not_disconnected(self):
        """A peer whose replies cannot be flushed — its write drain stalls
        — is no longer read once its outbox is full; it stays connected,
        everyone else keeps being served, and releasing the stall
        delivers every reply in order."""
        plan, hierarchy, _ = _config()
        targets = list(hierarchy.nodes)[:8]
        reference = _references(plan, hierarchy, targets)

        async def main():
            with Server(plan) as server:
                async with ServeTransport(
                    server, outbox_limit=1
                ) as transport:
                    host, port = transport.address
                    reader, writer = await _raw_connect(host, port)
                    await _poll(lambda: transport._conns)
                    (conn,) = transport._conns.values()
                    stall = asyncio.Event()
                    drain = conn.writer.drain

                    async def stalled_drain():
                        await stall.wait()
                        await drain()

                    conn.writer.drain = stalled_drain
                    try:
                        writer.write(
                            b"".join(
                                _encode({"op": "open", "id": i, "target": t})
                                for i, t in enumerate(targets)
                            )
                        )
                        await writer.drain()
                        # One reply is stuck in the stalled drain and one
                        # fills the outbox; the other six opens stay unread.
                        await _poll(lambda: transport.stats.frames_in == 2)
                        await asyncio.sleep(0.05)
                        assert transport.stats.frames_in == 2
                        async with await ServeClient.connect(
                            host, port
                        ) as client:
                            healthy = await client.serve_target(
                                "healthy", targets[0]
                            )
                        assert transport.stats.frames_in == 3
                        assert not conn.closed
                        assert transport.stats.slow_disconnects == 0
                    finally:
                        # Also when a check fails: shutdown flushes
                        # through this drain.
                        stall.set()
                    replies = await _read_frames(reader, len(targets))
                    writer.close()
                    await writer.wait_closed()
                    return healthy, replies

        healthy, replies = asyncio.run(main())
        assert healthy == reference[targets[0]]
        assert [frame["id"] for frame in replies] == list(range(8))
        for frame, target in zip(replies, targets):
            assert _decode_result(frame) == reference[target], frame

    @staticmethod
    def _check_pipelined_opens(count=None):
        """Write ``count`` target opens (default: one past the outbox
        limit) in one write and read the replies as they come: every
        open gets its result and nobody is disconnected."""
        plan, hierarchy, _ = _config()
        nodes = list(hierarchy.nodes)
        reference = _references(plan, hierarchy, nodes)

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    n = count or transport.outbox_limit + 1
                    reader, writer = await _raw_connect(*transport.address)
                    writer.write(
                        b"".join(
                            _encode(
                                {
                                    "op": "open",
                                    "id": i,
                                    "target": nodes[i % len(nodes)],
                                }
                            )
                            for i in range(n)
                        )
                    )
                    await writer.drain()
                    replies = await _read_frames(reader, n)
                    writer.close()
                    await writer.wait_closed()
                    return n, replies, transport.stats

        n, replies, stats = asyncio.run(main())
        assert [frame["id"] for frame in replies] == list(range(n))
        for frame in replies:
            target = nodes[frame["id"] % len(nodes)]
            assert _decode_result(frame) == reference[target], frame
        assert stats.slow_disconnects == 0
        assert stats.rejected == 0
        assert stats.opened_target == n

    def test_pipelined_target_opens_all_settle(self):
        """1,000 target opens in one write, replies read as they come.
        Target sessions hold no state, so no per-connection cap applies
        to them."""
        self._check_pipelined_opens(1000)

    def test_pipelining_past_the_outbox_limit_all_settle(self):
        """One open more than ``outbox_limit`` in one write: the read loop
        pauses while the outbox is full instead of overflowing it."""
        self._check_pipelined_opens()


class TestBatchedWriter:
    def test_replies_queued_behind_a_write_leave_in_one_write(self):
        """While the first reply's write drains, the replies to K - 1
        pipelined opens queue; they leave in one write, in order, and
        ``frames_out`` counts frames, not writes."""
        plan, hierarchy, _ = _config()
        targets = list(hierarchy.nodes)[:9]
        reference = _references(plan, hierarchy, targets)
        k = len(targets)

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    reader, writer = await _raw_connect(*transport.address)
                    await _poll(lambda: transport._conns)
                    (conn,) = transport._conns.values()
                    release = asyncio.Event()
                    drain, write = conn.writer.drain, conn.writer.write
                    writes = []

                    async def held_drain():
                        await release.wait()
                        await drain()

                    def counted_write(data):
                        writes.append(data)
                        write(data)

                    conn.writer.drain = held_drain
                    conn.writer.write = counted_write
                    opens = [
                        _encode({"op": "open", "id": i, "target": t})
                        for i, t in enumerate(targets)
                    ]
                    try:
                        writer.write(opens[0])
                        await writer.drain()
                        await _poll(lambda: writes)  # the first write holds
                        writer.write(b"".join(opens[1:]))
                        await writer.drain()
                        await _poll(lambda: transport.stats.frames_in == k)
                    finally:
                        release.set()
                    replies = await _read_frames(reader, k)
                    await _poll(lambda: transport.stats.frames_out == k)
                    writer.close()
                    await writer.wait_closed()
                    return writes, replies

        writes, replies = asyncio.run(main())
        assert [data.count(b"\n") for data in writes] == [1, k - 1]
        assert [frame["id"] for frame in replies] == list(range(k))
        for frame, target in zip(replies, targets):
            assert _decode_result(frame) == reference[target], frame

    def test_doubled_close_ends_the_writer_cleanly(self):
        """Two closes of one connection (a hang-up during a shutdown) each
        queue an end marker behind a reply: the reply is written, and the
        writer stops at the first marker without error."""
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[3]
        reference = run_search(
            plan, ExactOracle(hierarchy, target), hierarchy
        )

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    reader, writer = await _raw_connect(*transport.address)
                    await _poll(lambda: transport._conns)
                    (conn,) = transport._conns.values()
                    transport._send(conn, _result_frame("r", reference))
                    await asyncio.gather(
                        transport._close_conn(conn),
                        transport._close_conn(conn),
                    )
                    received = await asyncio.wait_for(reader.read(), 5.0)
                    await _poll(lambda: not transport._conns)
                    writer.close()
                    await writer.wait_closed()
                    return received, conn.writer_task

        received, writer_task = asyncio.run(main())
        (line,) = received.splitlines()
        assert _decode_result(json.loads(line)) == reference
        assert writer_task.exception() is None


# ----------------------------------------------------------------------
# 3. Adversarial clients
# ----------------------------------------------------------------------
class TestDisconnects:
    def test_mid_session_disconnect_orphans_not_crashes(self):
        """A client that pipelines opens and hangs up at once: its target
        opens settle as they are read, its interactive sessions die with
        the connection, nothing stays live, and the next client is
        served."""
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
                    for i in range(2):
                        writer.write(
                            _encode(
                                {"op": "open", "id": f"talk-{i}",
                                 "interactive": True}
                            )
                        )
                    await writer.drain()
                    writer.close()  # hang up with sessions open
                    await _poll(lambda: not transport._conns)
                    _assert_nothing_live(transport, server)
                    async with await ServeClient.connect(
                        host, port
                    ) as client:
                        result = await client.serve_target("live", survivor)
                    return result, server.stats, transport.stats

        result, stats, wire = asyncio.run(main())
        assert result == reference
        assert stats.completed == len(targets) + 1
        assert wire.opened_interactive == 2

    def test_close_frame_abandons_target_session(self):
        """``close`` after a target open finds the session settled, and
        after an interactive open drops it: either way nothing stays live
        on the still-open connection, and the id is free for the next
        client."""
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[4]
        reference = run_search(
            plan, ExactOracle(hierarchy, target), hierarchy
        )

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    reader, writer = await _raw_connect(host, port)
                    for frame in (
                        {"op": "open", "id": "walk", "target": target},
                        {"op": "close", "id": "walk"},
                        {"op": "open", "id": "talk", "interactive": True},
                        {"op": "close", "id": "talk"},
                        {"op": "ping"},
                    ):
                        writer.write(_encode(frame))
                    await writer.drain()
                    replies = await _read_frames(reader, 3)
                    _assert_nothing_live(transport, server)
                    async with await ServeClient.connect(
                        host, port
                    ) as client:
                        again = await client.serve_target("walk", target)
                    writer.close()
                    await writer.wait_closed()
                    return replies, again

        replies, again = asyncio.run(main())
        assert [frame["op"] for frame in replies] == ["result", "ask", "pong"]
        assert _decode_result(replies[0]) == reference
        assert again == reference

    def test_write_failure_drops_interactive_sessions(self):
        """A reply that cannot be written (a torn pipe, emulated by a
        failing write drain) closes the connection, and its interactive
        sessions and sticky ids go with it."""
        plan, _, _ = _config()

        async def torn():
            raise ConnectionResetError("peer reset")

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    reader, writer = await _raw_connect(*transport.address)
                    writer.write(
                        _encode({"op": "open", "id": "q", "interactive": True})
                    )
                    await writer.drain()
                    (ask,) = await _read_frames(reader, 1)
                    (conn,) = transport._conns.values()
                    conn.writer.drain = torn
                    writer.write(_encode({"op": "ping"}))
                    await writer.drain()
                    await _poll(lambda: not transport._conns)
                    _assert_nothing_live(transport, server)
                    writer.close()
                    await writer.wait_closed()
                    return ask

        assert asyncio.run(main())["op"] == "ask"

    def test_write_failure_while_paused_closes_the_connection(self):
        """A peer whose reads are paused on a full outbox, and whose pipe
        then tears (a write drain that stalls, then fails), is torn down
        at once, not left paused."""
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[3]

        async def main():
            with Server(plan) as server:
                async with ServeTransport(
                    server, outbox_limit=1
                ) as transport:
                    reader, writer = await _raw_connect(*transport.address)
                    await _poll(lambda: transport._conns)
                    (conn,) = transport._conns.values()
                    tear = asyncio.Event()

                    async def torn_later():
                        await tear.wait()
                        raise ConnectionResetError("peer reset")

                    conn.writer.drain = torn_later
                    writer.write(
                        b"".join(
                            _encode({"op": "open", "id": i, "target": target})
                            for i in range(4)
                        )
                    )
                    await writer.drain()
                    await _poll(lambda: transport.stats.frames_in == 2)
                    tear.set()
                    await _poll(lambda: not transport._conns)
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(main())

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

    def test_drain_past_deadline_raises_typed(self):
        """Replies that cannot be flushed — a peer whose socket never
        drains, emulated by a write drain that never completes — outlast
        the shutdown timeout: a typed ServeTimeoutError, and the
        connection is aborted, not leaked."""
        plan, hierarchy, _ = _config()
        target = list(hierarchy.nodes)[3]

        async def main():
            with Server(plan) as server:
                transport = ServeTransport(server)
                host, port = await transport.start()
                reader, writer = await _raw_connect(host, port)
                await _poll(lambda: transport._conns)
                (conn,) = transport._conns.values()
                conn.writer.drain = asyncio.Event().wait  # never set
                writer.write(
                    _encode({"op": "open", "id": "slow", "target": target})
                )
                await writer.drain()
                # The result reaches the socket before the stall; the pong
                # queues behind the stalled drain.
                first = await asyncio.wait_for(reader.readline(), 5.0)
                writer.write(_encode({"op": "ping"}))
                await writer.drain()
                await _poll(lambda: transport.stats.frames_in == 2)
                with pytest.raises(ServeTimeoutError, match="deadline"):
                    await asyncio.wait_for(
                        transport.shutdown(timeout=0.05), 5.0
                    )
                # The pong never left the outbox.
                received = first + await asyncio.wait_for(reader.read(), 5.0)
                await _poll(lambda: not transport._conns)
                writer.close()
                await writer.wait_closed()
                return received

        lines = asyncio.run(main()).splitlines()
        assert [json.loads(line)["op"] for line in lines] == ["result"]

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
# 5. Abandoned feeds and clients (REPRO_SANITIZE=1)
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

    def test_abandoned_transport_client_leaves_zero_pin_drift(
        self, sanitized
    ):
        """The acceptance scenario: a client that hangs up with sessions
        open — target opens pipelined, interactive sessions waiting on an
        answer — leaves no runtime, sticky id or server session behind,
        and the transport drains clean."""
        plan, hierarchy, _ = _config(n=60, seed=13)
        targets = list(hierarchy.nodes)[:12]

        async def main():
            with Server(plan, max_sessions=16) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    _, writer = await _raw_connect(host, port)
                    for i, t in enumerate(targets):
                        writer.write(
                            _encode({"op": "open", "id": f"x-{i}", "target": t})
                        )
                        writer.write(
                            _encode(
                                {"op": "open", "id": f"y-{i}",
                                 "interactive": True}
                            )
                        )
                    await writer.drain()
                    await _poll(
                        lambda: transport._interactive_count == len(targets)
                    )
                    writer.close()  # abandon every session
                    await _poll(lambda: not transport._conns)
                    _assert_nothing_live(transport, server)
                return server.stats, transport.stats

        stats, wire = asyncio.run(main())
        assert stats.completed == wire.opened_target == len(targets)
        assert wire.opened_interactive == len(targets)


# ----------------------------------------------------------------------
# 6. The open-loop load generator
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
# 7. settle-vs-serve parity
# ----------------------------------------------------------------------
class TestAsyncSyncParity:
    """The wire's path, :meth:`Server.settle` on each request as its
    ``open`` is read, against the sync ``serve()`` feed: the same results
    byte for byte, the same error types and texts, and the same
    ``submitted``/``completed``/``errored``/``rejected`` counts."""

    @staticmethod
    def _assert_parity(requests, **server_kwargs):
        with Server(**server_kwargs) as server:
            served = {o.session_id: o for o in server.serve(iter(requests))}
            serve_stats = server.stats
        with Server(**server_kwargs) as server:
            settled = {r.session_id: server.settle(r) for r in requests}
            settle_stats = server.stats
            assert server.in_flight == 0
        ids = {r.session_id for r in requests}
        assert set(served) == set(settled) == ids
        for sid in ids:
            s, t = served[sid], settled[sid]
            assert s.result == t.result, sid
            assert type(s.error) is type(t.error), sid
            assert str(s.error) == str(t.error), sid
            assert s.tenant == t.tenant, sid
        for counter in ("submitted", "completed", "errored", "rejected"):
            assert getattr(serve_stats, counter) == getattr(
                settle_stats, counter
            ), counter
        return settled

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_feed_outcomes_identical(self, seed):
        """A seeded mix of good targets, unknown and unhashable targets,
        and two tenants."""
        plan, hierarchy, _ = _config(n=50, seed=9)
        rng = np.random.default_rng(seed)
        nodes = list(hierarchy.nodes)
        requests = []
        for i in range(30):
            roll = float(rng.random())
            if roll < 0.1:
                target = f"missing-{i}"  # unknown node -> typed error
            elif roll < 0.15:
                target = [i]  # unhashable -> the same typed error
            else:
                target = nodes[int(rng.integers(len(nodes)))]
            tenant = ["default", "acme"][int(rng.integers(2))]
            requests.append(
                SessionRequest(i, target=target, tenant=tenant)
            )
        self._assert_parity(requests, plan=plan, max_sessions=4)

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
        settled = self._assert_parity(requests, plan=base_plan, plan_quota=1)
        assert type(settled[1].error) is QuotaExceededError

    def test_budget_below_deepest_leaf(self):
        """A budget under the deepest leaf: shallow targets complete, deep
        ones raise the budget error with the same text."""
        plan, hierarchy, _ = _config(n=60, seed=23)
        depths = plan.leaf_depths()
        budget = max(depths.values()) - 1
        requests = [SessionRequest(t, target=t) for t in hierarchy.nodes]
        settled = self._assert_parity(
            requests, plan=plan, max_queries=budget, max_sessions=8
        )
        errors = {type(o.error) for o in settled.values()}
        assert errors == {type(None), BudgetExceededError}

    def test_plan_without_a_leaf(self, vehicle_hierarchy):
        """A plan whose only leaf is the root settles every other target
        as the same typed SearchError."""
        plan = CompiledPlan(
            vehicle_hierarchy,
            np.array([-1]),
            np.array([-1]),
            np.array([-1]),
            np.array([vehicle_hierarchy.index("Vehicle")]),
            policy_name="OneLeaf",
            config_key="",
        )
        requests = [
            SessionRequest(t, target=t) for t in vehicle_hierarchy.nodes
        ]
        settled = self._assert_parity(requests, plan=plan)
        assert settled["Vehicle"].ok
        assert type(settled["Car"].error) is SearchError


# ----------------------------------------------------------------------
# 8. The NDJSON frame fuzzer
# ----------------------------------------------------------------------
#: Any JSON value; every field of a fuzzed frame may take one.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)

#: Ends a connection's part of an example: no fuzzed id is this long.
_FENCE = "fence-id"


def _ping_of_size(size: int) -> bytes:
    """A well-formed ping frame of exactly ``size`` bytes, newline included."""
    head, tail = b'{"op":"ping","pad":"', b'"}\n'
    return head + b"x" * (size - len(head) - len(tail)) + tail


#: Frames drawn by name (a failing example's report stays short).  The
#: ``fatal-*`` ones end their connection: the transport answers with a
#: TransportError frame and closes it.
_SPECIAL_FRAMES = {
    "at-limit": _ping_of_size(MAX_FRAME_BYTES),
    "fatal-empty": b"\n",
    "fatal-not-json": b"this is not json\n",
    "fatal-not-an-object": b"[1, 2, 3]\n",
    "fatal-invalid-utf8": b'{"op": "ping", "id": "\xff\xfe"}\n',
    "fatal-deep": b"[" * 100_000 + b"\n",  # past the recursion limit
    "fatal-long-int": b'{"op": "ping", "id": ' + b"9" * 5000 + b"}\n",
    "fatal-oversized": _ping_of_size(MAX_FRAME_BYTES + 1),
}


#: Run before the generated examples: every special frame, split and
#: whole, and non-scalar fields in each place one could crash the wire.
_EXPLICIT_SCRIPTS = [
    [(0, "at-limit", 0.5), (0, "fatal-oversized", 0.3), (1, "fatal-deep", None)],
    [(0, "fatal-invalid-utf8", None), (1, "fatal-long-int", 0.5)],
    [(0, "fatal-empty", None), (1, "fatal-not-json", 0.9)],
    [
        (0, "fatal-not-an-object", None),
        (1, {"op": "open", "id": [1], "interactive": True}, None),
        (1, {"op": "open", "id": "a", "tenant": {"t": 1}}, None),
        (1, {"op": "open", "id": "a", "target": [1]}, None),
        (1, {"op": "answer", "id": {"a": 1}, "answer": True}, None),
        (1, {"op": "close", "id": [[]]}, None),
    ],
]


@st.composite
def _fuzz_frames(draw, targets):
    """A special frame's name, or a JSON object: mostly usual values (so
    sessions open, answer, collide and close), often any JSON value."""
    roll = draw(st.integers(0, 9))
    if roll == 0:
        return draw(st.sampled_from(sorted(_SPECIAL_FRAMES)))
    usual_only = roll > 4

    def pick(usual):
        if usual_only:
            return draw(st.sampled_from(usual))
        return draw(st.sampled_from(usual) | _JSON_VALUES)

    frame = {"op": pick(["open", "open", "answer", "answer", "close", "ping",
                         "stats"])}
    if draw(st.integers(0, 9)) > 0:
        frame["id"] = pick(["a", "b", 0])
    for field, usual in (
        ("tenant", ["default", "acme"]),
        ("target", [*targets, "missing"]),
        ("interactive", [True]),
        ("answer", [True, False]),
    ):
        if draw(st.booleans()):
            frame[field] = pick(usual)
    return frame


def _fuzz_scripts(targets):
    """Frames for two connections; each step may cut its frame at a drawn
    point and flush (``None``: coalesce it with the next frames)."""
    return st.lists(
        st.tuples(
            st.integers(0, 1),
            _fuzz_frames(targets),
            st.none() | st.floats(0, 1),
        ),
        min_size=1,
        max_size=16,
    )


async def _collect(reader):
    """Replies until EOF, a reset, or the fence's reply."""
    replies = []
    try:
        while True:
            line = await reader.readline()
            if not line:
                return replies, "eof"
            replies.append(json.loads(line))
            if replies[-1].get("id") == _FENCE:
                return replies, "fence"
    except ConnectionResetError:
        return replies, "reset"


def _assert_typed(frame):
    assert frame["op"] in {"result", "ask", "pong", "error"}, frame
    if frame["op"] == "error":
        cls = getattr(exceptions, frame["error"], None)
        assert isinstance(cls, type) and issubclass(cls, ReproError), frame


async def _fuzz_once(transport, steps, probe, reference):
    host, port = transport.address
    conns = [await _raw_connect(host, port) for _ in range(2)]
    try:
        collectors = [
            asyncio.ensure_future(_collect(reader)) for reader, _ in conns
        ]
        pending = [b"", b""]
        fatal = [None, None]

        async def flush(k):
            writer = conns[k][1]
            writer.write(pending[k])
            pending[k] = b""
            try:
                await writer.drain()
            except ConnectionError:
                pass  # the transport closed after a fatal frame
            await asyncio.sleep(0)  # let the transport read a partial frame

        for k, frame, cut in steps:
            if fatal[k] is not None:
                continue  # nothing follows a connection's fatal frame
            if isinstance(frame, str):
                data = _SPECIAL_FRAMES[frame]
                if frame.startswith("fatal-"):
                    fatal[k] = frame
            else:
                data = json.dumps(frame).encode() + b"\n"
            if cut is None:
                pending[k] += data
            else:
                at = int(cut * len(data))
                pending[k] += data[:at]
                await flush(k)
                pending[k] = data[at:]
        for k in (0, 1):
            if fatal[k] is None:
                pending[k] += _encode(
                    {"op": "open", "id": _FENCE, "target": probe}
                )
            await flush(k)
        for k in (0, 1):
            replies, end = await asyncio.wait_for(collectors[k], 5.0)
            for frame in replies:
                _assert_typed(frame)
            if fatal[k] is None:
                assert end == "fence", (end, replies)
                assert _decode_result(replies[-1]) == reference
            elif end == "eof":
                assert replies and replies[-1]["error"] == "TransportError"
            else:  # the rest of an oversized frame reset the socket
                assert fatal[k] == "fatal-oversized", (end, replies)
    finally:
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    await _poll(lambda: not transport._conns)
    assert transport._interactive_count == 0
    assert not transport._sticky
    async with await ServeClient.connect(host, port) as client:
        assert (await client.ping(deadline=5.0))["op"] == "pong"
        assert await client.serve_target(_FENCE, probe) == reference
    await _poll(lambda: not transport._conns)


class TestFrameFuzzer:
    def test_fuzzed_frames_get_typed_replies_and_leak_nothing(self):
        """Against one live transport: fields of every JSON type, unknown
        ops, duplicate ids and answers after close, frames split across
        writes and coalesced into one, frames at and a byte over
        ``MAX_FRAME_BYTES``, invalid UTF-8 and deep nesting.  Every reply
        is a ``result``, ``ask``, ``pong`` or an ``error`` naming a
        ``ReproError`` subclass; a connection closes only after a
        TransportError frame for a frame that does not decode; afterwards
        no interactive session or sticky id is left, and a fresh
        connection pings and serves a target session equal to
        ``run_search``."""
        plan, hierarchy, _ = _config()
        targets = list(hierarchy.nodes)[:6]
        probe = targets[-1]
        reference = run_search(plan, ExactOracle(hierarchy, probe), hierarchy)
        server = Server(plan)
        transport = ServeTransport(server)
        loop = asyncio.new_event_loop()
        loop.run_until_complete(transport.start())

        def run(steps):
            loop.run_until_complete(
                asyncio.wait_for(
                    _fuzz_once(transport, steps, probe, reference), 30.0
                )
            )

        for script in _EXPLICIT_SCRIPTS:
            run = example(steps=script)(run)
        fuzz = settings(
            max_examples=60,
            deadline=None,
            derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )(given(steps=_fuzz_scripts(targets))(run))
        try:
            fuzz()
        finally:
            loop.run_until_complete(transport.shutdown(timeout=5.0))
            server.close()
            loop.close()
