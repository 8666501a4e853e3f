"""Resilience policies: bounded retries with deterministic jitter, and a
tick-based circuit breaker.

Both primitives are deliberately clock- and RNG-free in their *decisions*:

* :class:`RetryPolicy` derives its jitter from a splitmix64 hash of
  ``(seed, attempt)`` — the backoff sequence is a pure function of the
  policy's configuration, so a replayed fault schedule sees the exact
  same pauses, and the linter's determinism rule (RPA004) never meets a
  global RNG.  Only the *sleeping* touches the wall clock.

* :class:`CircuitBreaker` counts *ticks* (requests), not seconds, so
  the trip -> cooldown -> half-open -> restore cycle is reproducible in
  tests and under seeded fault plans: a client that sends N requests
  behaves identically no matter how long each took.

Used by the noisy sweeps' warm executor (:mod:`repro.engine.belief`,
backoff between death-recovery rebuilds) and
:class:`~repro.serve.ServeClient` (retries on admission rejections, and
one breaker per backend).
"""

from __future__ import annotations

import time

from repro.exceptions import FaultError

__all__ = ["CircuitBreaker", "RetryPolicy"]


def _mix64(value: int) -> int:
    """splitmix64 finalizer: a cheap, well-distributed 64-bit hash."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


class RetryPolicy:
    """Bounded exponential backoff with seeded deterministic jitter.

    ``attempts`` is the total number of tries; ``delay_for(i)`` is the
    pause after the ``i``-th failed try (0-based): ``base_delay * 2**i``
    capped at ``max_delay``, shrunk by up to ``jitter`` (a fraction in
    ``[0, 1)``) using the hash of ``(seed, i)`` — deterministic, so two
    processes with different seeds desynchronize their retries while any
    single configuration replays exactly.
    """

    __slots__ = ("attempts", "base_delay", "max_delay", "jitter", "seed")

    def __init__(
        self,
        attempts: int = 3,
        *,
        base_delay: float = 0.05,
        max_delay: float = 1.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if attempts < 1:
            raise FaultError(f"attempts must be >= 1, got {attempts}")
        if base_delay < 0 or max_delay < 0:
            raise FaultError("delays must be non-negative")
        if not 0.0 <= jitter < 1.0:
            raise FaultError(f"jitter must be in [0, 1), got {jitter}")
        self.attempts = int(attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.seed = int(seed)

    def delay_for(self, attempt: int) -> float:
        """Backoff pause after the ``attempt``-th (0-based) failed try."""
        raw = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        fraction = _mix64((self.seed << 20) ^ attempt) / 2.0 ** 64
        return raw * (1.0 - self.jitter * fraction)

    def delays(self) -> tuple[float, ...]:
        """The pauses between tries (``attempts - 1`` of them)."""
        return tuple(self.delay_for(i) for i in range(self.attempts - 1))

    def call(self, fn, *, retry_on=(Exception,), on_retry=None):
        """Run ``fn()`` with up to ``attempts`` tries.

        Exceptions in ``retry_on`` trigger a backoff and a retry until
        the budget is spent, then re-raise; anything else propagates
        immediately.  ``on_retry(attempt, exc)`` observes each retry.
        """
        for attempt in range(self.attempts):
            try:
                return fn()
            except retry_on:
                if attempt == self.attempts - 1:
                    raise
                if on_retry is not None:
                    on_retry(attempt, None)
                time.sleep(self.delay_for(attempt))

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(attempts={self.attempts}, "
            f"base_delay={self.base_delay}, max_delay={self.max_delay}, "
            f"jitter={self.jitter}, seed={self.seed})"
        )


class CircuitBreaker:
    """Trip -> cooldown -> single probe -> restore, counted in ticks.

    States:

    * ``closed`` — traffic flows.  ``record_failure`` increments a
      consecutive-failure counter; at ``failure_threshold`` the breaker
      *trips* to open.
    * ``open`` — traffic is refused for ``cooldown`` ticks
      (:meth:`tick`, one per request).
    * ``half-open`` — the next request is the probe; its success
      (:meth:`record_success`) restores ``closed``, its failure re-trips
      with a fresh cooldown.

    ``trips`` and ``restores`` count the state *transitions* (not every
    recorded failure).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    __slots__ = (
        "failure_threshold",
        "cooldown",
        "trips",
        "restores",
        "_state",
        "_failures",
        "_remaining",
    )

    def __init__(
        self, *, failure_threshold: int = 1, cooldown: int = 3
    ) -> None:
        if failure_threshold < 1:
            raise FaultError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 1:
            raise FaultError(f"cooldown must be >= 1, got {cooldown}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = int(cooldown)
        #: Lifetime transition counters.
        self.trips = 0
        self.restores = 0
        self._state = self.CLOSED
        self._failures = 0
        self._remaining = 0

    @property
    def state(self) -> str:
        return self._state

    def record_failure(self) -> None:
        """Note one infrastructure failure; trip when the threshold hits.

        A failure during half-open (the probe failed) re-trips with a
        fresh cooldown.
        """
        if self._state == self.OPEN:
            return
        self._failures += 1
        if self._state == self.HALF_OPEN or (
            self._failures >= self.failure_threshold
        ):
            self._state = self.OPEN
            self._remaining = self.cooldown
            self._failures = 0
            self.trips += 1

    def record_success(self) -> None:
        """Note healthy traffic; restores ``closed`` from half-open."""
        self._failures = 0
        if self._state != self.CLOSED:
            self._state = self.CLOSED
            self.restores += 1

    def tick(self) -> None:
        """Advance the cooldown clock one tick (one request)."""
        if self._state == self.OPEN:
            self._remaining -= 1
            if self._remaining <= 0:
                self._state = self.HALF_OPEN

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self._state}, trips={self.trips}, "
            f"restores={self.restores}, cooldown={self.cooldown})"
        )
