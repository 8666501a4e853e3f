"""Network edge for :class:`~repro.serve.Server`: NDJSON over asyncio.

The typed propose/observe outcome protocol was transport-ready; this
module puts an actual wire on it using nothing beyond the stdlib.  One
frame is one JSON object on one line (newline-delimited JSON), which
keeps the protocol greppable in a packet capture and trivially
implementable from any language:

Client -> server::

    {"op": "open", "id": "s-1", "target": "beagle"}        # batch session
    {"op": "open", "id": "s-2", "interactive": true}       # propose/observe
    {"op": "answer", "id": "s-2", "answer": true}
    {"op": "close", "id": "s-2"}                           # abandon
    {"op": "ping"}

Server -> client::

    {"op": "ask", "id": "s-2", "query": "is it a dog?"}
    {"op": "result", "id": "s-1", "returned": "beagle",
     "num_queries": 4, "total_price": 4.0, "transcript": [...]}
    {"op": "error", "id": "s-1", "error": "AdmissionError", "message": ...}
    {"op": "pong", "in_flight": 12, "queued": 0}

Two session shapes, two serving paths:

* **Target sessions** (``"target"``) settle as their ``open`` frame is
  read, on the event loop, through the server's settle core (the one
  :meth:`Server.settle` wraps): it resolves the plan under the tenant's
  quota, looks the target's leaf up in the plan's leaf table and counts
  the session, and returns the leaf or the typed error.  The result
  frame is written straight from the leaf, with no request, outcome or
  result object: each plan node's ``[query,answer]`` transcript entry is
  encoded once, on first use, and kept beside the node; one walk up the
  parent links joins them, and one format adds the encoded id, label and
  price.  The bytes equal the general encoder's for the same frame, and
  nothing is kept per leaf.  Nothing is left in flight, so the transport
  holds no state for them.  This is the labelling-service hot path.
* **Interactive sessions** (``"interactive"``) are driven by a
  per-session :class:`~repro.serve.SessionRuntime` *at the transport
  layer*.  The server's oracle path answers synchronously inside
  ``step()``; routing a network round-trip through it would stall every
  other session of the step on one slow client.  Holding the runtime on
  the event loop instead means a slow client delays nobody but itself.

Session stickiness: a session id names its session for the connection
that opened it, and ``(tenant, id)`` is *sticky* across the transport —
a second connection opening a live id is refused typed, so a client
pool cannot split one logical session across backends.

Backpressure: per-connection and transport-wide caps on live
interactive sessions, and the server's per-tenant plan quota, all typed
:class:`~repro.exceptions.AdmissionError` at the client (the quota's
rejections flow back as error frames).  Every frame earns at most one
reply, and a connection queues at most ``outbox_limit`` of them: past
that the transport stops reading the peer until the writer catches up,
so a client that pipelines faster than it reads is slowed by TCP, not
disconnected.  The outbox holds encoded replies: every other frame is
encoded as it is queued, by the general encoder, and the writer sends
every reply queued while its last write drained in one write of their
joined bytes, so a connection holds at most ``outbox_limit`` queued
replies plus one batch of at most as many being written.  A reply JSON
cannot carry (a plan label such as a ``frozenset``, in a question,
transcript or result) is replaced by a
:class:`~repro.exceptions.TransportError` frame for its session, which
ends; the connection keeps serving.

Protocol errors are typed too: a frame that does not decode or exceeds
``MAX_FRAME_BYTES`` is answered with a
:class:`~repro.exceptions.TransportError` frame and its connection
closed; a frame whose ``id``, ``tenant`` or ``target`` is not a JSON
scalar, or whose op is unknown, gets the same frame and the connection
stays open.  So does an ``answer`` frame whose ``answer`` is missing or
not ``true``/``false``; its session stays live with its question
pending.

Graceful drain: :meth:`ServeTransport.shutdown` stops accepting, refuses
new opens, and closes every connection once its outbox is flushed —
bounded by ``timeout`` and raising
:class:`~repro.exceptions.ServeTimeoutError` past it, mirroring
``Server.drain(timeout=)``.

The client side (:class:`ServeClient`) wires PR 8's resilience
primitives to the wire: a seeded
:class:`~repro.faults.resilience.RetryPolicy` backs off on admission
rejections, every request carries a deadline, and a per-backend
:class:`~repro.faults.resilience.CircuitBreaker` stops hammering a dead
backend.  Both sides cross ``transport.*`` fault boundaries
(:func:`~repro.analysis.schedule.schedule_point`), so the chaos soak
covers the network edge too.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass

from repro import exceptions as _exceptions
from repro.analysis.schedule import schedule_point
from repro.core.session import SearchResult
from repro.exceptions import (
    AdmissionError,
    ReproError,
    ServeError,
    ServeTimeoutError,
    TransportError,
)
from repro.faults.resilience import CircuitBreaker, RetryPolicy
from repro.serve.runtime import SessionRuntime
from repro.serve.server import Server

__all__ = [
    "RemoteSession",
    "ServeClient",
    "ServeTransport",
    "TransportStats",
]

#: Hard cap on one NDJSON frame (bytes, including the newline).
MAX_FRAME_BYTES = 1 << 20

#: Ends a connection's writer loop once the frames queued before it are out.
_CLOSE = object()

#: The JSON values a frame's ``id``, ``tenant`` and ``target`` may take
#: (``bool`` is an ``int``).
_SCALARS = (str, int, float, type(None))

#: Error names the wire may carry -> typed classes the client re-raises.
#: Built from the exception module so new ReproError subclasses are
#: wire-transparent without touching the transport.
_WIRE_ERRORS: dict[str, type[ReproError]] = {
    name: obj
    for name, obj in vars(_exceptions).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}


#: One encoder for every frame (``json.dumps`` with arguments builds one
#: per call).  sort_keys makes frames byte-stable for a given payload, so
#: wire traces diff cleanly across runs.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def _encode(frame: dict) -> bytes:
    return _ENCODER.encode(frame).encode("utf-8") + b"\n"


def _error_frame(session_id, error: BaseException) -> dict:
    return {
        "op": "error",
        "id": session_id,
        "error": type(error).__name__,
        "message": str(error),
    }


def _result_frame(session_id, result: SearchResult) -> dict:
    return {
        "op": "result",
        "id": session_id,
        "returned": result.returned,
        "num_queries": result.num_queries,
        "total_price": result.total_price,
        # ``(query, bool)`` pairs; JSON writes a tuple as an array.
        "transcript": result.transcript,
    }


#: What encoding a value JSON cannot carry raises: a type it has no form
#: for, an integer past the string-conversion limit, nesting too deep.
_UNENCODABLE = (TypeError, ValueError, RecursionError)

#: ``_encode(_result_frame(...))``'s layout (keys sorted): the encoded
#: id, question count, label, price and transcript entries fill it in.
_RESULT_LAYOUT = (
    b'{"id":%s,"num_queries":%d,"op":"result","returned":%s,'
    b'"total_price":%s,"transcript":[%s]}\n'
)


def _encode_value(value) -> bytes:
    return _ENCODER.encode(value).encode("utf-8")


def _leaf_reply(session_id, index, leaf: int, transcript: bool) -> bytes:
    """The result frame of a target session settled on a plan leaf.

    The bytes ``_encode(_result_frame(...))`` writes for its result, from
    the plan index's per-node encoded transcript entries.
    """
    encode = _ENCODER.encode
    return _RESULT_LAYOUT % (
        encode(session_id).encode("utf-8"),
        index.depth[leaf],
        encode(index.target_label[leaf]).encode("utf-8"),
        encode(index.price[leaf]).encode("utf-8"),
        b",".join(index.encoded_transcript(leaf, _encode_value))
        if transcript
        else b"",
    )


def _unencodable_frame(session_id, exc: Exception) -> bytes:
    return _encode(
        _error_frame(
            session_id,
            TransportError(
                f"the reply to session {session_id!r} cannot be encoded "
                f"as JSON: {type(exc).__name__}: {exc}"
            ),
        )
    )


def _decode_result(frame: dict) -> SearchResult:
    return SearchResult(
        returned=frame["returned"],
        num_queries=int(frame["num_queries"]),
        total_price=float(frame["total_price"]),
        transcript=tuple((q, bool(a)) for q, a in frame.get("transcript", ())),
    )


def _decode_error(frame: dict) -> ReproError:
    cls = _WIRE_ERRORS.get(frame.get("error", ""), TransportError)
    return cls(frame.get("message", "remote error"))


@dataclass
class TransportStats:
    """Counters over a transport's lifetime."""

    connections: int = 0
    frames_in: int = 0
    #: Reply frames written (one write carries a batch of them).
    frames_out: int = 0
    #: Sessions opened by shape.
    opened_target: int = 0
    opened_interactive: int = 0
    #: Opens refused at the transport layer (before the server saw them).
    rejected: int = 0
    #: Connections dropped as slow readers.  The transport stops reading a
    #: peer whose outbox is full instead, so this stays 0.
    slow_disconnects: int = 0
    #: Protocol violations (a frame that does not decode or is oversized,
    #: an unknown op, a non-scalar ``id``, ``tenant`` or ``target``).
    protocol_errors: int = 0
    #: In-flight target sessions whose connection vanished before the
    #: result.  Target sessions settle as their ``open`` frame is read,
    #: so none is ever in flight and this stays 0.
    orphaned: int = 0


class _Connection:
    """Per-connection state: writer, outbox, live interactive sessions."""

    __slots__ = (
        "conn_id",
        "writer",
        "outbox",
        "interactive",
        "writer_task",
        "taken",
        "closed",
    )

    def __init__(self, conn_id: int, writer) -> None:
        self.conn_id = conn_id
        self.writer = writer
        #: Encoded reply frames (and ``_CLOSE``); the read loop keeps at
        #: most ``outbox_limit`` here.
        self.outbox: asyncio.Queue = asyncio.Queue()
        #: Client session id -> (SessionRuntime, sticky-registry key); the
        #: key keeps the tenant the session was opened with.
        self.interactive: dict = {}
        self.writer_task: asyncio.Task | None = None
        #: Set when the writer takes a batch or the connection closes.
        self.taken = asyncio.Event()
        self.closed = False


class ServeTransport:
    """Serve a :class:`~repro.serve.Server` over TCP (NDJSON frames).

    Parameters
    ----------
    server:
        The server to put on the wire.  Target sessions are settled by the
        core of its :meth:`~repro.serve.Server.settle`; interactive
        sessions run on its default plan and cost model.
    host, port:
        Listen address; ``port=0`` (default) picks a free port —
        :attr:`address` reports the bound one.
    max_sessions_per_conn:
        Live interactive sessions per connection; beyond it an
        interactive ``open`` is refused with a typed
        :class:`~repro.exceptions.AdmissionError` frame.
    max_interactive:
        Transport-wide cap on concurrent interactive runtimes (each is
        per-session state on the event loop; target sessions hold none).
    outbox_limit:
        Reply frames queued per connection.  Past it the transport
        stops reading the peer until the writer takes the queue.
    tenant:
        Default tenant attributed to sessions whose ``open`` frame
        names none.
    """

    def __init__(
        self,
        server: Server,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions_per_conn: int = 512,
        max_interactive: int = 1024,
        outbox_limit: int = 1024,
        tenant: str = "default",
    ) -> None:
        if max_sessions_per_conn < 1:
            raise ServeError(
                "max_sessions_per_conn must be >= 1, "
                f"got {max_sessions_per_conn}"
            )
        if max_interactive < 0:
            raise ServeError(
                f"max_interactive must be >= 0, got {max_interactive}"
            )
        if outbox_limit < 1:
            raise ServeError(f"outbox_limit must be >= 1, got {outbox_limit}")
        self.server = server
        self.stats = TransportStats()
        self.tenant = tenant
        self.max_sessions_per_conn = int(max_sessions_per_conn)
        self.max_interactive = int(max_interactive)
        self.outbox_limit = int(outbox_limit)
        self._host = host
        self._port = port
        self._listener: asyncio.base_events.Server | None = None
        #: Every connection whose handler is running, closing ones included.
        self._conns: dict[int, _Connection] = {}
        self._next_conn_id = 0
        #: Sticky registry: (tenant, client id) -> conn_id while live.
        self._sticky: dict = {}
        self._interactive_count = 0
        self._draining = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and return ``(host, port)``."""
        if self._started:
            raise ServeError("the transport is already started")
        if self.server.closed:
            raise ServeError("the server is closed")
        self._started = True
        # The stream limit bounds a line before its newline, so this
        # admits frames of at most MAX_FRAME_BYTES, newline included.
        self._listener = await asyncio.start_server(
            self._accept, self._host, self._port, limit=MAX_FRAME_BYTES - 1
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0``)."""
        if self._listener is None:
            raise ServeError("the transport is not started")
        return self._listener.sockets[0].getsockname()[:2]

    async def __aenter__(self) -> "ServeTransport":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    async def shutdown(self, timeout: float | None = None) -> None:
        """Stop accepting, refuse new opens, flush and close every connection.

        Target sessions settle as their ``open`` frame is read, so what is
        left to finish is each connection's outbox.  Mirrors
        ``Server.drain(timeout=)``: with a ``timeout`` the flush is
        bounded, and past it every connection is aborted and
        :class:`~repro.exceptions.ServeTimeoutError` is raised.
        """
        if not self._started:
            return
        if timeout is not None and timeout <= 0:
            raise ServeError(f"timeout must be positive, got {timeout}")
        self._draining = True
        schedule_point("transport.drain")
        if self._listener is not None:
            self._listener.close()
        conns = list(self._conns.values())
        try:
            await asyncio.wait_for(
                asyncio.gather(*(self._close_conn(conn) for conn in conns)),
                timeout,
            )
        except asyncio.TimeoutError:
            for conn in conns:
                conn.writer.transport.abort()
            raise ServeTimeoutError(
                f"transport drain exceeded its {timeout:g}s deadline "
                f"flushing the replies of {len(conns)} connection(s)"
            ) from None
        if self._listener is not None:
            # Last: from Python 3.12.1 on it waits for every connection.
            await self._listener.wait_closed()

    def _send(self, conn: _Connection, frame: dict) -> bool:
        """Encode a reply and queue it for the connection's writer.

        A frame JSON cannot carry is replaced by a TransportError frame
        for its session; returns False then.
        """
        try:
            data = _encode(frame)
        except _UNENCODABLE as exc:
            self._queue(conn, _unencodable_frame(frame.get("id"), exc))
            return False
        self._queue(conn, data)
        return True

    @staticmethod
    def _queue(conn: _Connection, data: bytes) -> None:
        if not conn.closed:
            conn.outbox.put_nowait(data)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _accept(self, reader, writer) -> None:
        try:
            schedule_point("transport.accept")
        except ReproError:
            writer.close()
            return
        conn = _Connection(self._next_conn_id, writer)
        self._next_conn_id += 1
        if self._draining:
            writer.write(
                _encode(
                    _error_frame(None, ServeError("the transport is draining"))
                )
            )
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        self._conns[conn.conn_id] = conn
        self.stats.connections += 1
        conn.writer_task = asyncio.create_task(self._write_loop(conn))
        try:
            await self._read_loop(conn, reader)
        finally:
            await self._close_conn(conn)

    async def _read_loop(self, conn: _Connection, reader) -> None:
        while not conn.closed:
            if conn.outbox.qsize() >= self.outbox_limit:
                # A frame earns at most one reply: with the outbox full,
                # read nothing more until the writer takes them.
                conn.taken.clear()
                await conn.taken.wait()
                continue
            try:
                line = await reader.readline()
            except (ConnectionError, OSError):
                # Torn connection: protocol over.
                self.stats.protocol_errors += 1
                return
            except ValueError:  # past the stream limit
                self._protocol_error(
                    conn,
                    None,
                    f"frame exceeds the {MAX_FRAME_BYTES}-byte limit",
                )
                return
            if not line:
                return  # EOF: the client hung up
            try:
                schedule_point("transport.read")
            except ReproError as exc:
                self._send(conn, _error_frame(None, exc))
                return
            try:
                frame = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # ValueError: malformed JSON, invalid UTF-8 or an integer
                # too long to convert; RecursionError: nesting too deep.
                self._protocol_error(conn, None, str(exc))
                return
            if not isinstance(frame, dict):
                self._protocol_error(conn, None, "frames must be JSON objects")
                return
            self.stats.frames_in += 1
            self._dispatch(conn, frame)

    def _protocol_error(self, conn: _Connection, session_id, message) -> None:
        """Count a protocol violation; answer it with a TransportError."""
        self.stats.protocol_errors += 1
        self._send(conn, _error_frame(session_id, TransportError(message)))

    def _dispatch(self, conn: _Connection, frame: dict) -> None:
        # Before any lookup: an unhashable id or tenant cannot key the
        # sticky registry, nor a target name a node.
        for field in ("id", "tenant", "target"):
            if not isinstance(frame.get(field), _SCALARS):
                self._protocol_error(
                    conn,
                    None if field == "id" else frame.get("id"),
                    f"frame field {field!r} must be a string, number, "
                    "boolean or null",
                )
                return
        op = frame.get("op")
        if op == "ping":
            self._send(
                conn,
                {
                    "op": "pong",
                    "in_flight": self.server.in_flight,
                    "queued": self.server.queued,
                    "draining": self._draining,
                },
            )
        elif op == "open":
            self._open(conn, frame)
        elif op == "answer":
            self._answer(conn, frame)
        elif op == "close":
            # Abandons an interactive session; a target session has
            # already settled.
            self._drop_interactive(conn, frame.get("id"))
        else:
            self._protocol_error(conn, frame.get("id"), f"unknown op {op!r}")

    def _open(self, conn: _Connection, frame: dict) -> None:
        client_id = frame.get("id")
        tenant = frame.get("tenant", self.tenant)
        try:
            schedule_point("transport.open")
            if client_id is None:
                raise TransportError("open frames need an id")
            if self._draining:
                raise ServeError("the transport is draining")
            sticky_key = (tenant, client_id)
            if sticky_key in self._sticky:
                where = (
                    "this connection"
                    if self._sticky[sticky_key] == conn.conn_id
                    else "another connection"
                )
                raise TransportError(
                    f"session {client_id!r} is already open on {where} "
                    "(ids are sticky while a session is live)"
                )
            if frame.get("interactive"):
                self._open_interactive(conn, client_id, sticky_key)
            else:
                self._open_target(conn, frame, client_id, tenant)
        except ReproError as exc:
            self.stats.rejected += 1
            self._send(conn, _error_frame(client_id, exc))

    def _open_target(
        self, conn: _Connection, frame: dict, client_id, tenant
    ) -> None:
        target = frame.get("target")
        if target is None:
            raise TransportError(
                "open frames need target= (or interactive=true)"
            )
        server = self.server
        settled = server._settle_leaf(
            (conn.conn_id, client_id), target, tenant
        )
        self.stats.opened_target += 1
        if isinstance(settled, ReproError):
            self._send(conn, _error_frame(client_id, settled))
            return
        index, leaf = settled
        try:
            data = _leaf_reply(
                client_id, index, leaf, server.record_transcripts
            )
        except _UNENCODABLE as exc:
            data = _unencodable_frame(client_id, exc)
        self._queue(conn, data)

    def _open_interactive(self, conn: _Connection, client_id, sticky_key):
        if len(conn.interactive) >= self.max_sessions_per_conn:
            raise AdmissionError(
                f"connection at its session cap "
                f"({self.max_sessions_per_conn}); finish or close a "
                "session first"
            )
        if self._interactive_count >= self.max_interactive:
            raise AdmissionError(
                f"transport at its interactive-session cap "
                f"({self.max_interactive}); back off and retry"
            )
        plan = self.server.default_plan
        if plan is None:
            raise ServeError(
                "interactive sessions need a server default plan"
            )
        runtime = SessionRuntime(
            plan,
            cost_model=self.server.model,
            max_queries=self.server.max_queries,
        )
        conn.interactive[client_id] = (runtime, sticky_key)
        self._interactive_count += 1
        self._sticky[sticky_key] = conn.conn_id
        self.stats.opened_interactive += 1
        self._advance_interactive(conn, client_id, runtime)

    def _answer(self, conn: _Connection, frame: dict) -> None:
        client_id = frame.get("id")
        entry = conn.interactive.get(client_id)
        if entry is None:
            self._send(
                conn,
                _error_frame(
                    client_id,
                    TransportError(
                        f"no interactive session {client_id!r} on this "
                        "connection"
                    ),
                ),
            )
            return
        answer = frame.get("answer")
        if not isinstance(answer, bool):
            # Not bool(): "false", [0] and {"x": 1} would each read as yes.
            self._send(
                conn,
                _error_frame(
                    client_id, TransportError("answer must be true or false")
                ),
            )
            return
        runtime = entry[0]
        try:
            runtime.observe(answer)
        except ReproError as exc:  # protocol misuse: typed, session over
            self._drop_interactive(conn, client_id)
            self._send(conn, _error_frame(client_id, exc))
            return
        self._advance_interactive(conn, client_id, runtime)

    def _advance_interactive(
        self, conn: _Connection, client_id, runtime: SessionRuntime
    ) -> None:
        """Send the session's next frame: the next question, or the result."""
        if runtime.done():
            self._drop_interactive(conn, client_id)
            self._send(conn, _result_frame(client_id, runtime.result()))
            return
        try:
            query = runtime.propose()
        except ReproError as exc:  # budget exhausted, typed
            self._drop_interactive(conn, client_id)
            self._send(conn, _error_frame(client_id, exc))
            return
        ask = {"op": "ask", "id": client_id, "query": query}
        if not self._send(conn, ask):
            # The client cannot be asked, so the session is over.
            self._drop_interactive(conn, client_id)

    def _drop_interactive(self, conn: _Connection, client_id) -> None:
        entry = conn.interactive.pop(client_id, None)
        if entry is not None:
            self._interactive_count -= 1
            self._sticky.pop(entry[1], None)

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    async def _write_loop(self, conn: _Connection) -> None:
        outbox = conn.outbox
        try:
            while True:
                # Every reply queued while the last write drained leaves
                # in one write, up to the first _CLOSE (two closes of one
                # connection can each queue one).
                batch = [await outbox.get()]
                while batch[-1] is not _CLOSE and not outbox.empty():
                    batch.append(outbox.get_nowait())
                conn.taken.set()
                closing = batch[-1] is _CLOSE
                if closing:
                    batch.pop()
                if batch:
                    schedule_point("transport.write")
                    conn.writer.write(b"".join(batch))
                    await conn.writer.drain()
                    self.stats.frames_out += len(batch)
                if closing:
                    return
        except (ConnectionError, OSError, ReproError):
            # Torn pipe or injected write fault: close the socket so the
            # peer (and our reader loop) see EOF now, not at their next
            # deadline, and the reader tears the connection down.
            try:
                conn.writer.close()
            except (ConnectionError, OSError):
                pass
        finally:
            # Nothing more is sent, so a read loop paused on the full
            # outbox must not wait for this writer.
            self._abandon_conn(conn)

    def _abandon_conn(self, conn: _Connection) -> None:
        """Mark a connection closed; its interactive sessions die with it."""
        if conn.closed:
            return
        conn.closed = True
        conn.taken.set()  # wakes a read loop paused on a full outbox
        for client_id in list(conn.interactive):
            self._drop_interactive(conn, client_id)

    async def _close_conn(self, conn: _Connection) -> None:
        """Flush the connection's outbox, then close its socket."""
        self._abandon_conn(conn)
        if conn.writer_task is not None and not conn.writer_task.done():
            conn.outbox.put_nowait(_CLOSE)
            await asyncio.gather(conn.writer_task, return_exceptions=True)
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._conns.pop(conn.conn_id, None)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class RemoteSession:
    """One interactive propose/observe session over the wire."""

    __slots__ = ("_client", "id", "query", "result", "done")

    def __init__(self, client: "ServeClient", session_id) -> None:
        self._client = client
        self.id = session_id
        #: The pending question (None once done).
        self.query = None
        #: The finished :class:`SearchResult` (None while open).
        self.result: SearchResult | None = None
        self.done = False

    def _absorb(self, frame: dict) -> None:
        if frame["op"] == "ask":
            self.query = frame["query"]
        elif frame["op"] == "result":
            self.query = None
            self.result = _decode_result(frame)
            self.done = True
        else:
            self.query = None
            self.done = True
            raise _decode_error(frame)

    async def answer(self, answer: bool, *, deadline=None) -> "RemoteSession":
        """Answer the pending question; updates :attr:`query`/:attr:`result`."""
        if self.done:
            raise TransportError(f"session {self.id!r} already finished")
        frame = await self._client._request(
            {"op": "answer", "id": self.id, "answer": bool(answer)},
            self.id,
            deadline=deadline,
        )
        self._absorb(frame)
        return self

    async def close(self) -> None:
        """Abandon the session server-side (fire and forget)."""
        if not self.done:
            self.done = True
            await self._client._post({"op": "close", "id": self.id})


class ServeClient:
    """Session client for a :class:`ServeTransport` backend.

    Multiplexes any number of concurrent sessions over one connection
    (frames are dispatched by session id), with the resilience layer on
    every request path:

    * ``deadline`` — per-request wall-clock bound
      (:class:`~repro.exceptions.TransportError` past it);
    * ``retry`` — a :class:`~repro.faults.resilience.RetryPolicy`
      applied to admission rejections (``AdmissionError``), the one
      failure mode the server *asks* the client to retry;
    * ``breaker`` — a per-backend
      :class:`~repro.faults.resilience.CircuitBreaker`: transport-level
      failures trip it, after which requests fail fast until the
      cooldown's single probe succeeds.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        deadline: float = 30.0,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        tenant: str | None = None,
    ) -> None:
        if deadline <= 0:
            raise ServeError(f"deadline must be positive, got {deadline}")
        self.host = host
        self.port = int(port)
        self.deadline = float(deadline)
        self.retry = retry if retry is not None else RetryPolicy(attempts=3)
        self.breaker = breaker
        self.tenant = tenant
        self._reader = None
        self._writer = None
        self._reader_task: asyncio.Task | None = None
        #: Session id -> inbox of reply frames for that session.
        self._inbox: dict = {}
        #: Futures awaiting a pong (id-less frames).
        self._pongs: list[asyncio.Future] = []
        self._closed = False

    @classmethod
    async def connect(cls, host: str, port: int, **kwargs) -> "ServeClient":
        """Dial the backend (with the retry policy) and start reading."""
        client = cls(host, port, **kwargs)
        await client._connect()
        return client

    async def _connect(self) -> None:
        policy = self.retry
        for attempt in range(policy.attempts):
            try:
                schedule_point("transport.connect")
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port, limit=MAX_FRAME_BYTES
                )
                break
            except (ConnectionError, OSError, ReproError):
                if attempt == policy.attempts - 1:
                    raise
                await asyncio.sleep(policy.delay_for(attempt))
        self._reader_task = asyncio.create_task(self._read_loop())

    async def __aenter__(self) -> "ServeClient":
        if self._writer is None:
            await self._connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            await asyncio.gather(self._reader_task, return_exceptions=True)
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._fail_waiters(TransportError("the client is closed"))

    # ------------------------------------------------------------------
    # Frame plumbing
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    frame = json.loads(line)
                except json.JSONDecodeError:
                    break
                session_id = frame.get("id")
                if frame.get("op") == "pong" or session_id is None:
                    waiters = self._pongs
                    if waiters:
                        waiter = waiters.pop(0)
                        if not waiter.done():
                            waiter.set_result(frame)
                    continue
                inbox = self._inbox.get(session_id)
                if inbox is not None:
                    inbox.put_nowait(frame)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._fail_waiters(
                TransportError(
                    f"connection to {self.host}:{self.port} closed"
                )
            )

    def _fail_waiters(self, error: ReproError) -> None:
        fail = {"op": "error", "error": type(error).__name__,
                "message": str(error)}
        for inbox in self._inbox.values():
            inbox.put_nowait(fail)
        for waiter in self._pongs:
            if not waiter.done():
                waiter.set_result(fail)
        self._pongs.clear()

    async def _post(self, frame: dict) -> None:
        if self._writer is None or self._closed:
            raise TransportError("the client is not connected")
        self._writer.write(_encode(frame))
        await self._writer.drain()

    def _gate(self) -> None:
        """Circuit-breaker admission: fail fast while the backend is out."""
        breaker = self.breaker
        if breaker is None:
            return
        breaker.tick()
        if breaker.state == CircuitBreaker.OPEN:
            raise TransportError(
                f"circuit breaker open for {self.host}:{self.port} "
                f"(cooling down; {breaker.trips} trip(s) so far)"
            )

    async def _request(self, frame: dict, session_id, *, deadline=None):
        """Send one frame and await the next reply for ``session_id``."""
        self._gate()
        bound = self.deadline if deadline is None else deadline
        inbox = self._inbox.get(session_id)
        if inbox is None:
            inbox = self._inbox[session_id] = asyncio.Queue()
        try:
            schedule_point("transport.request")
            await self._post(frame)
            reply = await asyncio.wait_for(inbox.get(), bound)
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise TransportError(
                f"request {frame.get('op')!r} for session {session_id!r} "
                f"failed against {self.host}:{self.port}: "
                f"{type(exc).__name__}: {exc or 'deadline exceeded'}"
            ) from exc
        except TransportError:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return reply

    def _finish(self, session_id) -> None:
        self._inbox.pop(session_id, None)

    # ------------------------------------------------------------------
    # The session API
    # ------------------------------------------------------------------
    async def ping(self, *, deadline=None) -> dict:
        """Round-trip a ping; returns the pong payload."""
        self._gate()
        bound = self.deadline if deadline is None else deadline
        waiter = asyncio.get_running_loop().create_future()
        self._pongs.append(waiter)
        try:
            schedule_point("transport.request")
            await self._post({"op": "ping"})
            frame = await asyncio.wait_for(waiter, bound)
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            if self.breaker is not None:
                self.breaker.record_failure()
            if waiter in self._pongs:
                self._pongs.remove(waiter)
            raise TransportError(
                f"ping against {self.host}:{self.port} failed: "
                f"{type(exc).__name__}: {exc or 'deadline exceeded'}"
            ) from exc
        except TransportError:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        if frame.get("op") == "error":
            raise _decode_error(frame)
        return frame

    async def serve_target(
        self, session_id, target, *, deadline=None
    ) -> SearchResult:
        """Open a target session and await its result.

        Admission rejections (the server asking for backoff) are retried
        under the client's :class:`RetryPolicy`; any other typed error is
        re-raised as its original :class:`~repro.exceptions.ReproError`
        subclass.
        """
        frame = {"op": "open", "id": session_id, "target": target}
        if self.tenant is not None:
            frame["tenant"] = self.tenant
        policy = self.retry
        try:
            for attempt in range(policy.attempts):
                reply = await self._request(
                    frame, session_id, deadline=deadline
                )
                if reply["op"] == "result":
                    return _decode_result(reply)
                error = _decode_error(reply)
                retryable = isinstance(error, AdmissionError) and not (
                    isinstance(error, _exceptions.QuotaExceededError)
                )
                if not retryable or attempt == policy.attempts - 1:
                    raise error
                await asyncio.sleep(policy.delay_for(attempt))
            raise TransportError("retry budget spent")  # unreachable
        finally:
            self._finish(session_id)

    async def open_interactive(
        self, session_id, *, deadline=None
    ) -> RemoteSession:
        """Open a propose/observe session; returns it with the first query."""
        frame = {"op": "open", "id": session_id, "interactive": True}
        if self.tenant is not None:
            frame["tenant"] = self.tenant
        session = RemoteSession(self, session_id)
        reply = await self._request(frame, session_id, deadline=deadline)
        session._absorb(reply)
        return session

    async def run_target_session(
        self, session_id, oracle, *, deadline=None
    ) -> SearchResult:
        """Drive an interactive session against a local oracle until done.

        The network mirror of :meth:`SessionRuntime.run` — each question
        crosses the wire, the ``oracle`` answers locally.
        """
        session = await self.open_interactive(session_id, deadline=deadline)
        try:
            while not session.done:
                answer = bool(oracle.answer(session.query))
                await session.answer(answer, deadline=deadline)
        finally:
            self._finish(session_id)
        return session.result
