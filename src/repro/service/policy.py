"""Fault-containment policy: deadlines, retries, breakers, brownout.

The service runtime (queue + workers + supervisor) needs a shared
vocabulary for *how to fail*:

* :class:`CancellationToken` — per-job cooperative cancellation with an
  optional absolute deadline.  The engine checks the token at stage
  boundaries (node evaluation, store reads, joins), so a timed-out
  diagnosis actually stops instead of occupying a worker until it
  happens to finish.
* error **classification** — :func:`is_transient` splits failures into
  *transient* (storage/backends/infrastructure: worth retrying) and
  *permanent* (rule/config bugs: retrying re-raises the same error
  forever).  Injectors and backends can subclass
  :class:`TransientError` to opt into retries explicitly.
* :class:`RetryPolicy` — bounded attempts with exponential backoff plus
  deterministic jitter (injectable RNG); also the backoff schedule of
  the collector's :class:`~repro.collector.health.FeedReader`.
* :class:`CircuitBreaker` — a reusable guard: N consecutive failures
  open the circuit, calls fail fast until ``reset_timeout`` passes,
  then one half-open probe decides.  Guards feed transports in
  :class:`~repro.collector.health.FeedReader` and
  :class:`~repro.collector.backends.StorageBackend` reads in
  :class:`~repro.collector.backends.BreakerBackend`.
* :class:`BrownoutController` — watches queue-wait p99 and the
  deadline-miss rate; past thresholds the service enters ``DEGRADED``
  (shed low-priority jobs, trim exploration depth and tracing) and
  recovers with hysteresis so the state does not flap.

Everything takes an injectable clock/RNG/sleep, so the whole policy
layer is unit-testable without real time.
"""

from __future__ import annotations

import random
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional


# ---------------------------------------------------------------------------
# cooperative cancellation


class OperationCancelled(RuntimeError):
    """The job's cancellation token was triggered; stop cooperatively."""


class DeadlineExceeded(OperationCancelled):
    """The job ran past its deadline; stop cooperatively."""


class CancellationToken:
    """Cooperative cancel flag plus an optional absolute deadline.

    Workers and the engine call :meth:`check` at stage boundaries; it
    raises :class:`OperationCancelled` once :meth:`cancel` was called
    and :class:`DeadlineExceeded` once the clock passes ``deadline``.
    The token is thread-safe: the supervisor cancels from its sweep
    thread while the owning worker polls.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.deadline = deadline
        self.clock = clock
        self._cancelled = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token; the next :meth:`check` raises."""
        if not self._cancelled.is_set():
            self.reason = reason
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def expired(self) -> bool:
        """True once the deadline (if any) has passed."""
        return self.deadline is not None and self.clock() >= self.deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline; ``None`` without one."""
        if self.deadline is None:
            return None
        return self.deadline - self.clock()

    def check(self) -> None:
        """Raise if cancelled or past deadline; else return instantly.

        Expiry is classified first: the supervisor also trips the plain
        cancel flag for overdue jobs, and a job stopped past its
        deadline must surface as :class:`DeadlineExceeded` (``TIMED_OUT``)
        no matter which signal the executor polls first.
        """
        if self.expired:
            raise DeadlineExceeded(
                f"deadline exceeded by {-self.remaining():.3f}s"
            )
        if self._cancelled.is_set():
            raise OperationCancelled(self.reason or "cancelled")


# ---------------------------------------------------------------------------
# error classification


class TransientError(RuntimeError):
    """Marker base: the operation may succeed if simply retried."""


class PermanentError(RuntimeError):
    """Marker base: retrying will fail identically (rule/config bug)."""


#: Exception types treated as transient without opting in: storage and
#: transport failures that a healthy system recovers from on its own.
_TRANSIENT_TYPES = (
    TransientError,
    ConnectionError,
    TimeoutError,
    InterruptedError,
    sqlite3.OperationalError,
)

#: Types that are always permanent even though they subclass OSError
#: etc. — plus the classic "the rule/config is wrong" family.
_PERMANENT_TYPES = (
    PermanentError,
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    NotImplementedError,
)


def is_transient(error: BaseException) -> bool:
    """Whether a failure is worth retrying.

    Cancellation is never retried (the caller asked us to stop), the
    permanent family is never retried, the transient family always is,
    and *unknown* errors default to permanent — retrying a failure we
    cannot classify just triples the latency of the same crash.
    """
    if isinstance(error, OperationCancelled):
        return False
    if isinstance(error, _PERMANENT_TYPES):
        return False
    if isinstance(error, _TRANSIENT_TYPES):
        return True
    if isinstance(error, OSError):  # I/O flake; ConnectionError subsumed
        return True
    # collector-layer transients, imported lazily to avoid a cycle
    from ..collector.health import CircuitOpenError, FeedReadError

    return isinstance(error, (CircuitOpenError, FeedReadError))


# ---------------------------------------------------------------------------
# retry policy


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff plus deterministic jitter."""

    #: attempts per job (first try + retries); 1 disables retries
    max_attempts: int = 3
    #: first backoff delay, seconds
    backoff_base: float = 0.05
    #: multiplier applied per further retry
    backoff_factor: float = 2.0
    #: backoff ceiling, seconds
    backoff_max: float = 1.0
    #: extra random fraction of the delay added as jitter
    jitter: float = 0.1
    #: deterministic jitter source (seeded for reproducible tests)
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) may be retried."""
        return attempt < self.max_attempts and is_transient(error)

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt + 1`` (1-based input)."""
        base = self.backoff_base * (self.backoff_factor ** max(0, attempt - 1))
        base = min(base, self.backoff_max)
        return base * (1.0 + self.jitter * self.rng.random())


# ---------------------------------------------------------------------------
# circuit breaker


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probes.

    The state machine: ``closed`` (normal) -> ``open`` after
    ``failure_threshold`` consecutive failures (calls refused) ->
    ``half-open`` after ``reset_timeout`` (one probe allowed; success
    closes, failure re-opens and restarts the timer).

    The breaker only *decides*; callers ask :meth:`allow` before the
    guarded operation and report :meth:`record_success` /
    :meth:`record_failure` after.  Thread-safe.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock
        self.consecutive_failures = 0
        self.times_opened = 0
        self._opened_at: Optional[float] = None
        self._lock = threading.Lock()

    @property
    def open(self) -> bool:
        """True while the breaker refuses calls (probe time not reached)."""
        with self._lock:
            return (
                self._opened_at is not None
                and self.clock() - self._opened_at < self.reset_timeout
            )

    def allow(self) -> bool:
        """Whether the next call may proceed (closed, or half-open probe)."""
        with self._lock:
            if self._opened_at is None:
                return True
            return self.clock() - self._opened_at >= self.reset_timeout

    def record_success(self) -> None:
        """Account one success: reset failures, close the circuit."""
        with self._lock:
            self.consecutive_failures = 0
            self._opened_at = None

    def record_failure(self) -> bool:
        """Account one failure; returns True when the circuit is open."""
        with self._lock:
            self.consecutive_failures += 1
            if self._opened_at is not None:
                # a failed half-open probe stays open, restarts the timer
                self._opened_at = self.clock()
                return True
            if self.consecutive_failures >= self.failure_threshold:
                self.times_opened += 1
                self._opened_at = self.clock()
                return True
            return False

    def state(self) -> str:
        """``"closed"`` / ``"open"`` / ``"half-open"`` for dashboards."""
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self.clock() - self._opened_at >= self.reset_timeout:
                return "half-open"
            return "open"


# ---------------------------------------------------------------------------
# brownout degradation


class ServiceHealth(Enum):
    """Overall service health reported by the supervisor."""

    OK = "ok"
    DEGRADED = "degraded"


@dataclass
class BrownoutConfig:
    """Thresholds for entering/leaving brownout degradation."""

    #: queue-wait p99 at/above this (seconds) trips the brownout
    queue_wait_p99: float = 5.0
    #: deadline-miss fraction of finished jobs at/above this trips it
    deadline_miss_rate: float = 0.25
    #: miss-rate verdicts need at least this many finished jobs between
    #: consecutive evaluations (a 1-of-2 blip must not brown out)
    min_finished: int = 8
    #: recover once signals drop below ``recover_factor`` x threshold
    recover_factor: float = 0.5
    #: while degraded, shed submissions at/above this priority
    shed_priority: int = 20  # PRIORITY_PERIODIC
    #: while degraded, cap the engine's exploration depth
    degraded_max_depth: int = 2
    #: while degraded, drop span tracing (jobs run untraced)
    trim_tracing: bool = True


class BrownoutController:
    """Hysteretic OK <-> DEGRADED state machine over service signals.

    Each :meth:`evaluate` call reads the current queue-wait p99 and the
    deadline-miss rate *since the previous call* (computed from
    cumulative counters, so concurrent workers never double-count) and
    transitions with hysteresis: entry at the configured thresholds,
    recovery only once both signals fall below ``recover_factor`` times
    their thresholds.  Transitions are counted and timestamped so the
    chaos harness can assert the brownout actually happened.
    """

    def __init__(self, config: Optional[BrownoutConfig] = None) -> None:
        self.config = config or BrownoutConfig()
        self._state = ServiceHealth.OK
        self._last_timed_out = 0
        self._last_finished = 0
        self.transitions = 0
        self.last_transition_at: Optional[float] = None
        self._lock = threading.Lock()

    @property
    def state(self) -> ServiceHealth:
        return self._state

    @property
    def degraded(self) -> bool:
        return self._state is ServiceHealth.DEGRADED

    def evaluate(self, metrics, now: float) -> ServiceHealth:
        """One sweep: read signals from ``metrics`` and transition."""
        config = self.config
        wait_p99 = metrics.queue_wait.percentile(0.99)
        timed_out = metrics.jobs_timed_out.value
        finished = (
            metrics.jobs_completed.value
            + metrics.jobs_failed.value
            + timed_out
        )
        with self._lock:
            delta_finished = finished - self._last_finished
            delta_missed = timed_out - self._last_timed_out
            miss_rate = None
            if delta_finished >= config.min_finished:
                miss_rate = delta_missed / delta_finished
                self._last_finished = finished
                self._last_timed_out = timed_out
            if self._state is ServiceHealth.OK:
                if wait_p99 >= config.queue_wait_p99 or (
                    miss_rate is not None
                    and miss_rate >= config.deadline_miss_rate
                ):
                    self._transition(ServiceHealth.DEGRADED, now)
            else:
                wait_ok = wait_p99 < config.recover_factor * config.queue_wait_p99
                miss_ok = miss_rate is None or (
                    miss_rate < config.recover_factor * config.deadline_miss_rate
                )
                if wait_ok and miss_ok:
                    self._transition(ServiceHealth.OK, now)
            return self._state

    def _transition(self, state: ServiceHealth, now: float) -> None:
        self._state = state
        self.transitions += 1
        self.last_transition_at = now
