"""Deterministic, seedable fault injection for the serving stack.

Every resilience policy in this package makes a claim — retries mask
transient errors, breakers fail fast on dead backends, deadlines bound
stalls, shedding prevents pile-ups.  Claims need a way to *make* the bad
thing happen on demand, reproducibly.  :class:`FaultInjector` is that
lever: configured by :class:`repro.config.FaultConfig` (or the
``REPRO_FAULTS`` environment variable), it perturbs the backend execution
path at fixed points:

* ``latency``   — sleep before the backend executes (a latency spike);
* ``drop``      — raise :class:`ConnectionError` (the connection died);
* ``error``     — raise a transient :class:`~repro.errors.BackendSqlError`
  (SQLSTATE 53300 ``insufficient_resources`` — retryable);
* ``slow_read`` — sleep after execution, before the result is returned
  (a stalled QIPC/PG-wire read).

All randomness comes from one ``random.Random(seed)`` behind a lock, and
every call draws the points in a fixed order, so a single-threaded run
with a fixed seed replays the exact same fault sequence; concurrent runs
keep the configured *rates* but interleave draws.  The injector sits
inside :class:`~repro.wlm.retry.ResilientBackend`, i.e. faults hit the
stack *above* the retry/breaker machinery it exercises — tests and the
``lockcheck-integration`` CI job drive it via ``REPRO_FAULTS="seed=42,..."``.
"""

from __future__ import annotations

import random
import time

from repro.analysis.concurrency.locks import make_lock
from repro.config import FaultConfig
from repro.errors import BackendSqlError
from repro.obs import get_logger, metrics

FAULTS_INJECTED = metrics.counter(
    "wlm_faults_injected_total", "Faults injected, by point"
)

_log = get_logger("wlm.faults")

#: SQLSTATE carried by injected transient errors (insufficient_resources)
TRANSIENT_SQLSTATE = "53300"


class FaultInjector:
    """Draws faults from a seeded RNG at the configured rates.

    ``sleep`` is injectable so unit tests assert on *requested* delays
    without actually waiting; the integration matrix uses real sleeps.
    """

    def __init__(self, config: FaultConfig, sleep=time.sleep):
        self.config = config
        self.sleep = sleep
        self._rng = random.Random(config.seed)
        self._lock = make_lock("wlm.faults")
        #: injected-fault tally by point, for tests and wlm[] inspection
        self.injected: dict[str, int] = {
            "latency": 0,
            "drop": 0,
            "error": 0,
            "slow_read": 0,
        }

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def _draw(self, rate: float) -> bool:
        if rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < rate

    def _record(self, point: str) -> None:
        with self._lock:
            self.injected[point] += 1
        FAULTS_INJECTED.inc(point=point)
        _log.warning("fault_injected", point=point)

    # -- injection points --------------------------------------------------

    def before_execute(self) -> None:
        """Runs before the wrapped backend executes; draws, in order:
        latency, then drop, then transient error."""
        if not self.enabled:
            return
        if self._draw(self.config.latency_rate):
            self._record("latency")
            self.sleep(self.config.latency_seconds)
        if self._draw(self.config.drop_rate):
            self._record("drop")
            raise ConnectionError("injected fault: backend connection drop")
        if self._draw(self.config.error_rate):
            self._record("error")
            raise BackendSqlError(
                "injected fault: transient backend overload",
                code=TRANSIENT_SQLSTATE,
                severity="ERROR",
            )

    def after_execute(self) -> None:
        """Runs after a successful execution, before the result returns
        (models a slow QIPC/PG-wire result read)."""
        if not self.enabled:
            return
        if self._draw(self.config.slow_read_rate):
            self._record("slow_read")
            self.sleep(self.config.slow_read_seconds)
