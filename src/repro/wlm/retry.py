"""Retries, retry budgets, circuit breaking: the backend recovery layer.

A transient backend hiccup (connection reset, overload error, failover
blip) used to surface straight to the Q client; a dead backend used to
cost every request a full checkout/connect timeout.  This module wraps
any :class:`~repro.core.backends.ExecutionBackend` with the standard
trio of recovery policies:

* :class:`RetryPolicy` — exponential backoff with full jitter, bounded
  attempts, **idempotent reads only** (a retried INSERT could double
  rows; writes surface their first failure untouched);
* :class:`RetryBudget` — a token bucket refilled by successes, so a
  backend that is *down* rather than *blinking* sees a bounded retry
  storm (Finagle's retry-budget design);
* :class:`CircuitBreaker` — closed / open / half-open per backend; after
  ``failure_threshold`` consecutive failures the breaker opens and every
  request fails fast with :class:`~repro.errors.CircuitOpenError` (QIPC
  signal ``'wlm-open``) until a half-open probe succeeds.

:class:`ResilientBackend` composes all three (plus the fault injector)
behind the unchanged ``ExecutionBackend`` protocol, so servers swap it in
without the pipeline noticing.
"""

from __future__ import annotations

import random
import re
import time

from repro.analysis.concurrency.locks import make_lock
from repro.config import CircuitBreakerConfig, RetryConfig
from repro.core.backends import TRANSPORT_ERRORS, ExecutionBackend
from repro.errors import BackendSqlError, CircuitOpenError
from repro.obs import get_logger, metrics
from repro.wlm.deadline import current_deadline, note_retry
from repro.wlm.faults import FaultInjector

RETRIES_TOTAL = metrics.counter(
    "wlm_retries_total", "Backend statement retries, by backend"
)
RETRY_GIVEUPS_TOTAL = metrics.counter(
    "wlm_retry_giveups_total",
    "Retry sequences abandoned (attempts, budget or deadline exhausted)",
)
BREAKER_STATE = metrics.gauge(
    "wlm_breaker_state",
    "Circuit breaker state per backend (0 closed, 1 half-open, 2 open)",
)
BREAKER_TRANSITIONS = metrics.counter(
    "wlm_breaker_transitions_total", "Circuit breaker state transitions"
)
BREAKER_REJECTIONS = metrics.counter(
    "wlm_breaker_rejections_total",
    "Requests failed fast by an open circuit breaker",
)

_log = get_logger("wlm.retry")

#: SQLSTATE classes/codes that mark a backend error as transient: the
#: connection-exception class (08xxx), insufficient resources (53xxx),
#: serialization failure, admin shutdown/crash recovery
TRANSIENT_SQLSTATE_PREFIXES = ("08", "53")
TRANSIENT_SQLSTATES = frozenset({"40001", "57P01", "57P02", "57P03"})

#: retry tokens earned per successful request (Finagle-style budget):
#: sustained retries stay within 10% of the success rate
BUDGET_RATIO = 0.1


def is_transient(exc: BaseException) -> bool:
    """Whether the failure is worth retrying at all."""
    if isinstance(exc, TRANSPORT_ERRORS):
        return True
    if isinstance(exc, BackendSqlError):
        code = exc.code or ""
        return code in TRANSIENT_SQLSTATES or code.startswith(
            TRANSIENT_SQLSTATE_PREFIXES
        )
    return False


#: data-modifying verbs that disqualify a WITH statement from retry:
#: PostgreSQL allows ``WITH x AS (DELETE ... RETURNING *) SELECT ...``,
#: where the mutation hides inside the CTE list
_MUTATING_VERBS = re.compile(r"\b(INSERT|UPDATE|DELETE|MERGE)\b", re.IGNORECASE)


def is_idempotent(sql: str) -> bool:
    """Only plain reads are safe to re-send blindly.

    WITH statements count only when no data-modifying verb appears
    anywhere in the text: a transient failure after the backend applied a
    data-modifying CTE would otherwise be retried and applied twice.
    (Conservative — a read whose identifiers merely *contain* such a word
    loses its retry, never the other way around.)
    """
    head = sql.lstrip().split(None, 1)
    if not head:
        return False
    verb = head[0].upper()
    if verb in ("SELECT", "SHOW"):
        return True
    if verb == "WITH":
        return _MUTATING_VERBS.search(sql) is None
    return False


class RetryBudget:
    """Token bucket bounding global retry volume (ratio of successes)."""

    def __init__(self, ratio: float, min_tokens: float):
        self.ratio = ratio
        self.min_tokens = min_tokens
        self._tokens = min_tokens
        self._lock = make_lock("wlm.retry_budget")

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def record_success(self) -> None:
        with self._lock:
            self._tokens = min(
                self._tokens + self.ratio, self.min_tokens * 2
            )

    def try_spend(self) -> bool:
        """Take one retry token; False means the budget is exhausted."""
        with self._lock:
            if self._tokens < 1.0:
                return False
            self._tokens -= 1.0
            return True


class RetryPolicy:
    """Exponential backoff with full jitter over a shared budget."""

    def __init__(self, config: RetryConfig, sleep=time.sleep):
        self.config = config
        self.sleep = sleep
        self.budget = RetryBudget(BUDGET_RATIO, config.budget_min_tokens)
        self._rng = random.Random(config.jitter_seed)
        self._rng_lock = make_lock("wlm.retry_rng")

    def backoff(self, attempt: int) -> float:
        """Full-jitter backoff for retry number ``attempt`` (1-based)."""
        ceiling = min(
            self.config.max_delay,
            self.config.base_delay * (2 ** (attempt - 1)),
        )
        with self._rng_lock:
            return self._rng.uniform(0.0, ceiling)

    def should_retry(self, sql: str, exc: BaseException, attempt: int) -> bool:
        """Whether retry number ``attempt`` may run after ``exc``."""
        if not self.config.enabled:
            return False
        if attempt >= self.config.max_attempts:
            return False
        if not is_idempotent(sql) or not is_transient(exc):
            return False
        return self.budget.try_spend()


class BreakerState:
    CLOSED = "closed"
    HALF_OPEN = "half_open"
    OPEN = "open"


_STATE_GAUGE = {
    BreakerState.CLOSED: 0.0,
    BreakerState.HALF_OPEN: 1.0,
    BreakerState.OPEN: 2.0,
}


class CircuitBreaker:
    """Closed / open / half-open breaker guarding one backend.

    Counting is *consecutive failures*; any success resets.  While open,
    :meth:`allow` raises :class:`CircuitOpenError` until ``reset_timeout``
    elapses, then exactly one caller at a time gets through as the
    half-open probe; ``close_threshold`` probe successes re-close.
    """

    def __init__(
        self,
        name: str,
        config: CircuitBreakerConfig,
        clock=time.monotonic,
    ):
        self.name = name
        self.config = config
        self.clock = clock
        self._lock = make_lock("wlm.breaker")
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.transitions: list[tuple[str, str]] = []
        BREAKER_STATE.set(0.0, backend=name)

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def _transition_locked(self, to: str) -> None:
        from_state = self._state
        if from_state == to:
            return
        self._state = to
        self.transitions.append((from_state, to))
        BREAKER_STATE.set(_STATE_GAUGE[to], backend=self.name)
        BREAKER_TRANSITIONS.inc(
            backend=self.name, from_state=from_state, to_state=to
        )
        _log.warning(
            "breaker_transition", backend=self.name,
            from_state=from_state, to_state=to,
        )

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == BreakerState.OPEN
            and self.clock() - self._opened_at >= self.config.reset_timeout
        ):
            self._transition_locked(BreakerState.HALF_OPEN)
            self._probe_successes = 0
            self._probe_in_flight = False

    def allow(self) -> bool:
        """Gate one request; raises :class:`CircuitOpenError` fast when
        open (or when half-open with a probe already in flight).

        Returns True when this caller holds the half-open probe slot and
        must therefore settle it — via :meth:`record_success`,
        :meth:`record_failure`, or :meth:`record_probe_abort` — on every
        exit path, or the breaker stays half-open rejecting everything.
        """
        if not self.config.enabled:
            return False
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == BreakerState.CLOSED:
                return False
            if self._state == BreakerState.HALF_OPEN:
                if not self._probe_in_flight:
                    self._probe_in_flight = True  # this caller probes
                    return True
                retry_after = 0.0
            else:
                retry_after = max(
                    0.0,
                    self.config.reset_timeout
                    - (self.clock() - self._opened_at),
                )
        BREAKER_REJECTIONS.inc(backend=self.name)
        raise CircuitOpenError(
            f"backend {self.name!r} circuit breaker is "
            f"{self._state.replace('_', '-')} — failing fast "
            f"(retry in {retry_after:.1f}s)",
            backend=self.name,
            retry_after=retry_after,
        )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state == BreakerState.HALF_OPEN:
                self._probe_in_flight = False
                self._probe_successes += 1
                if self._probe_successes >= self.config.close_threshold:
                    self._transition_locked(BreakerState.CLOSED)

    def record_probe_abort(self) -> None:
        """Release the half-open probe slot without judging health.

        For probe requests that die for reasons unrelated to the backend
        (SQL-level rejection, request deadline): the breaker stays
        half-open and the next caller becomes the probe instead.
        """
        with self._lock:
            if self._state == BreakerState.HALF_OPEN:
                self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == BreakerState.HALF_OPEN:
                self._probe_in_flight = False
                self._opened_at = self.clock()
                self._transition_locked(BreakerState.OPEN)
                return
            if (
                self._state == BreakerState.CLOSED
                and self._failures >= self.config.failure_threshold
            ):
                self._opened_at = self.clock()
                self._transition_locked(BreakerState.OPEN)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "failures": self._failures,
                "transitions": len(self.transitions),
            }


class ResilientBackend(ExecutionBackend):
    """Retry + breaker + fault injection around any execution backend.

    Transparent when nothing fails: one breaker check and one success
    record per statement.  On transient failure of an idempotent read it
    backs off (full jitter, capped by the request deadline) and re-sends,
    up to the policy's attempt/budget limits; every failure feeds the
    breaker regardless of whether the statement was retryable.
    """

    def __init__(
        self,
        inner: ExecutionBackend,
        policy: RetryPolicy,
        breaker: CircuitBreaker,
        faults: FaultInjector | None = None,
        name: str | None = None,
    ):
        self.inner = inner
        self.policy = policy
        self.breaker = breaker
        self.faults = faults
        self.name = name or f"resilient({getattr(inner, 'name', 'backend')})"

    def run_sql(self, sql: str):
        attempt = 0
        while True:
            attempt += 1
            deadline = current_deadline()
            if deadline is not None:
                deadline.check("backend.execute")
            is_probe = self.breaker.allow()
            try:
                if self.faults is not None:
                    self.faults.before_execute()
                result = self.inner.run_sql(sql)
                if self.faults is not None:
                    self.faults.after_execute()
            except Exception as exc:
                if not is_transient(exc):
                    # SQL-level rejection: not the backend's health — but
                    # a held probe slot must be released or the breaker
                    # wedges half-open, rejecting every future request
                    if is_probe:
                        self.breaker.record_probe_abort()
                    raise
                self.breaker.record_failure()
                if not self.policy.should_retry(sql, exc, attempt):
                    RETRY_GIVEUPS_TOTAL.inc(backend=self.breaker.name)
                    raise
                delay = self.policy.backoff(attempt)
                if deadline is not None:
                    capped = deadline.cap(delay)
                    delay = capped if capped is not None else delay
                RETRIES_TOTAL.inc(backend=self.breaker.name)
                note_retry()
                _log.warning(
                    "backend_retry", backend=self.breaker.name,
                    attempt=attempt, delay_s=round(delay, 4),
                    error=str(exc)[:200],
                )
                if delay > 0:
                    self.policy.sleep(delay)
                continue
            except BaseException:
                # KeyboardInterrupt and friends: release the probe slot
                # without judging backend health
                if is_probe:
                    self.breaker.record_probe_abort()
                raise
            self.breaker.record_success()
            self.policy.budget.record_success()
            return result

    # -- delegation --------------------------------------------------------

    def catalog_version(self) -> int:
        return self.inner.catalog_version()

    def ping(self) -> bool:
        ping = getattr(self.inner, "ping", None)
        return True if ping is None else bool(ping())

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def load_columns(
        self, name: str, columns: list, column_data: list,
        temporary: bool = False,
    ) -> None:
        self.inner.load_columns(name, columns, column_data, temporary)

    def process_info(self) -> dict:
        return self.inner.process_info()
