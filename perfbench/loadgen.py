"""The load generator of a serving round: a lean client in its own process.

It loads the plan the server saved, draws the round's sessions from the
catalog distribution with the seed, and precomputes every session's
expected path (``plan.start()`` cursor answered by ``ExactOracle``) and
its NDJSON frames before any traffic starts; then it freezes its heap
(``gc.freeze()``) so collection pauses do not land in the measurement.
Traffic goes over at most two raw asyncio connections, without the
``ServeClient`` machinery:

* ``--mode target``: a closed loop keeping ``common.TARGET_OUTSTANDING``
  target sessions open per connection (a batch-labelling client that waits
  for its replies).  Session latency runs from ``open`` to ``result``.
* ``--mode interactive``: an open loop of Poisson arrivals at
  ``common.INTERACTIVE_RATE`` sessions/s.  Each session answers every
  ``ask`` as soon as it arrives.
  Session latency runs from the *scheduled* arrival to ``result``, so a
  stalled generator or server shows; question latency runs from sending
  an ``answer`` to receiving the next ``ask`` or ``result``.

Every reply is checked: a ``result`` must return the session's target
with ``num_queries`` equal to the plan's depth for it, and every ``ask``
must be the next query on the plan's path.  Any other frame fails the
session.  It prints ``MEASURE`` and ``END`` around the measured window,
then one JSON line with the samples.

Started by ``run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import time

import common

#: Closed-loop sessions cycle through this many pre-encoded sessions (ids
#: wrap).  At the ~15k sessions/s the server completes, an id comes round
#: again after about 4 s, far longer than any session stays open.
_TARGET_POOL = 65_536


def _paths(plan, hierarchy, targets):
    """Plan path ``((query, answer), ...)`` per distinct target."""
    from repro.core.oracle import ExactOracle

    paths = {}
    for target in set(targets):
        cursor = plan.start()
        oracle = ExactOracle(hierarchy, target)
        steps = []
        while not cursor.done():
            query = cursor.propose()
            answer = bool(oracle.answer(query))
            steps.append((query, answer))
            cursor.observe(answer)
        paths[target] = tuple(steps)
    return paths


class _Conn(asyncio.Protocol):
    """One connection: splits NDJSON replies, hands them to the generator."""

    def __init__(self, gen) -> None:
        self.gen = gen
        self.buf = b""
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter()
        lines = (self.buf + data).split(b"\n")
        self.buf = lines.pop()
        self.gen.on_frames(self, lines, now)

    def connection_lost(self, exc) -> None:
        self.gen.lost.set()


class _Generator:
    def __init__(self, args) -> None:
        import numpy as np

        from repro.experiments.scale import PAPER
        from repro.plan import CompiledPlan
        from repro.taxonomy import amazon_catalog

        self.args = args
        plan = CompiledPlan.load(args.plan)
        hierarchy = plan.hierarchy
        distribution = amazon_catalog(
            hierarchy,
            seed=common.SERVE_TREE_SEED,
            num_objects=PAPER.num_objects,
        ).to_distribution()
        rng = np.random.default_rng([args.seed % 2**32, args.round])
        span = common.SERVE_WARMUP_S + args.seconds
        if args.mode == "target":
            count = _TARGET_POOL
            self.arrivals = None
        else:
            rate = common.INTERACTIVE_RATE
            gaps = rng.exponential(1.0 / rate, size=int(rate * span * 2))
            arrivals = np.cumsum(gaps)
            self.arrivals = arrivals[arrivals < span].tolist()
            count = len(self.arrivals)
        self.targets = [str(t) for t in distribution.sample(rng, size=count)]
        paths = _paths(plan, hierarchy, self.targets)
        self.paths = [paths[t] for t in self.targets]
        if args.mode == "target":
            self.frames = [
                b'{"id":%d,"op":"open","target":%s}\n'
                % (i, json.dumps(t).encode())
                for i, t in enumerate(self.targets)
            ]
        else:
            self.frames = [
                b'{"id":%d,"interactive":true,"op":"open"}\n' % i
                for i in range(count)
            ]
            self.answers = [
                [
                    b'{"answer":%s,"id":%d,"op":"answer"}\n'
                    % (b"true" if a else b"false", i)
                    for _, a in path
                ]
                for i, path in enumerate(self.paths)
            ]
        self.count = count
        self.conns: list[_Conn] = []
        self.lost = asyncio.Event()
        self.sending = True
        self.next_id = 0
        #: Live sessions: id -> open time (target) / scheduled arrival.
        self.live: dict[int, float] = {}
        #: Interactive: id -> answers sent so far, id -> answer send time.
        self.step: dict[int, int] = {}
        self.answered_at: dict[int, float] = {}
        self.attempted = 0
        self.failed = 0
        #: (completion time, session latency s, questions) per session.
        self.done: list[tuple[float, float, int]] = []
        #: (answer sent, next frame received) per question.
        self.questions: list[tuple[float, float]] = []
        #: Send lateness per open (s): scheduled -> written (open loop),
        #: reply received -> replacement written (closed loop).
        self.late: list[float] = []

    # ------------------------------------------------------------------
    def _open_next(self, out: list, now: float) -> None:
        sid = self.next_id % self.count
        self.next_id += 1
        if sid in self.live:  # id still live after a full wrap
            self.failed += 1
            return
        self.live[sid] = now
        self.attempted += 1
        out.append(self.frames[sid])

    def _fail(self, sid) -> None:
        self.failed += 1
        self.live.pop(sid, None)
        self.step.pop(sid, None)
        self.answered_at.pop(sid, None)

    def on_frames(self, conn: _Conn, lines, now: float) -> None:
        out: list[bytes] = []
        asked: list[int] = []
        for line in lines:
            frame = json.loads(line)
            sid = frame.get("id")
            if sid not in self.live:
                self.failed += 1
                continue
            if self.args.mode == "target":
                self._on_target(frame, sid, now, out)
            else:
                self._on_interactive(frame, sid, now, out, asked)
        if out:
            conn.transport.write(b"".join(out))
            written = time.perf_counter()
            for sid in asked:
                self.answered_at[sid] = written
            if self.args.mode == "target":
                self.late.append(written - now)

    def _on_target(self, frame, sid, now, out) -> None:
        path = self.paths[sid]
        if (
            frame.get("op") != "result"
            or frame.get("returned") != self.targets[sid]
            or frame.get("num_queries") != len(path)
        ):
            self._fail(sid)
        else:
            self.done.append((now, now - self.live.pop(sid), len(path)))
        if self.sending:
            self._open_next(out, now)

    def _on_interactive(self, frame, sid, now, out, asked) -> None:
        path = self.paths[sid]
        k = self.step[sid]
        sent = self.answered_at.pop(sid, None)
        if sent is not None:
            self.questions.append((sent, now))
        op = frame.get("op")
        if op == "ask" and k < len(path) and frame.get("query") == path[k][0]:
            out.append(self.answers[sid][k])
            self.step[sid] = k + 1
            asked.append(sid)
        elif (
            op == "result"
            and k == len(path)
            and frame.get("returned") == self.targets[sid]
            and frame.get("num_queries") == len(path)
        ):
            self.done.append((now, now - self.live.pop(sid), len(path)))
            del self.step[sid]
        else:
            self._fail(sid)

    # ------------------------------------------------------------------
    async def _arrivals(self, t0: float) -> None:
        """Open loop: send each open at its scheduled time, never waiting."""
        for sid, at in enumerate(self.arrivals):
            due = t0 + at
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.live[sid] = due
            self.step[sid] = 0
            self.attempted += 1
            self.conns[sid % len(self.conns)].transport.write(self.frames[sid])
            self.late.append(time.perf_counter() - due)

    async def run(self) -> dict:
        loop = asyncio.get_running_loop()
        for _ in range(common.CONNECTIONS):
            _, conn = await loop.create_connection(
                lambda: _Conn(self), "127.0.0.1", self.args.port
            )
            self.conns.append(conn)
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        begin = t0 + common.SERVE_WARMUP_S
        end = begin + self.args.seconds
        marks: dict[str, common.CpuWindow] = {}

        def mark_begin() -> None:
            print("MEASURE", flush=True)
            marks["cpu"] = common.CpuWindow()

        def mark_end() -> None:
            marks["cpu"].stop()
            print("END", flush=True)
            self.sending = False

        loop.call_at(loop.time() + common.SERVE_WARMUP_S, mark_begin)
        loop.call_at(
            loop.time() + common.SERVE_WARMUP_S + self.args.seconds, mark_end
        )
        if self.arrivals is None:
            for conn in self.conns:
                out: list[bytes] = []
                for _ in range(common.TARGET_OUTSTANDING):
                    self._open_next(out, time.perf_counter())
                conn.transport.write(b"".join(out))
            await asyncio.sleep(end - time.perf_counter())
        else:
            await self._arrivals(t0)
            await asyncio.sleep(max(0.0, end - time.perf_counter()))
        # Drain: every session opened must finish.
        deadline = time.perf_counter() + 10.0
        while self.live and time.perf_counter() < deadline:
            if self.lost.is_set():
                break
            await asyncio.sleep(0.01)
        self.failed += len(self.live)
        for conn in self.conns:
            conn.transport.close()
        return self._report(begin, end, marks["cpu"].ratio)

    def _report(self, begin: float, end: float, cpu: float) -> dict:
        """Samples of the measured window, times relative to its start."""
        sessions = [
            [finished - begin, latency * 1e3, queries]
            for finished, latency, queries in self.done
            if begin <= finished < end
        ]
        questions = [
            [received - begin, (received - sent) * 1e3]
            for sent, received in self.questions
            if begin <= received < end
        ]
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "seconds": end - begin,
            "sessions": sessions,
            "questions": questions,
            "late_ms": [x * 1e3 for x in self.late],
            "cpu_per_wall": cpu,
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("target", "interactive"), required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args()
    common.pin_to(args.cpu)
    generator = _Generator(args)
    common.emit(asyncio.run(generator.run()))


if __name__ == "__main__":
    main()
