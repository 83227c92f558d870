"""Bounded admission control: per-class quotas, FIFO queues, load shedding.

The paper's deployment story puts Hyper-Q between *every* Q client and
the warehouse, so an overloaded backend used to mean every client thread
piling onto it until raw socket timeouts fired.  The admission controller
turns that cliff into a policy:

* each :class:`~repro.wlm.classifier.QueryClass` has a concurrency quota
  (``max_concurrency``) — at most that many requests of the class run at
  once;
* beyond the quota, requests wait in a strict FIFO queue bounded by
  ``max_queue``; a queued request waits at most ``enqueue_timeout``
  seconds (and never past its own deadline);
* anything that cannot be queued or times out waiting is *shed*: a
  structured :class:`~repro.errors.WlmShedError` (QIPC signal
  ``'wlm-shed``) returned immediately — degrade by refusing crisply, not
  by hanging (VerdictDB's graceful-degradation stance, PAPERS.md).

One :class:`threading.Condition` guards all classes: admissions are rare
relative to query work (two lock acquisitions per request) and a single
lock keeps the accounting trivially consistent.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.analysis.concurrency.locks import make_condition
from repro.config import WlmClassPolicy, WlmConfig
from repro.errors import WlmShedError
from repro.obs import metrics
from repro.wlm.deadline import current_deadline

ADMITTED_TOTAL = metrics.counter(
    "wlm_admitted_total", "Requests admitted, by query class"
)
SHED_TOTAL = metrics.counter(
    "wlm_shed_total", "Requests shed, by query class and reason"
)
ACTIVE = metrics.gauge(
    "wlm_active_queries", "Admitted requests currently executing"
)
QUEUE_DEPTH = metrics.gauge(
    "wlm_queue_depth", "Requests waiting for an admission slot"
)
QUEUED_SECONDS = metrics.histogram(
    "wlm_queued_seconds", "Wall-clock wait between arrival and admission"
)


@dataclass
class ClassState:
    """Accounting for one query class (all fields guarded by the
    controller's condition)."""

    policy: WlmClassPolicy
    active: int = 0
    queue: deque = field(default_factory=deque)  # ticket FIFO
    admitted: int = 0
    shed: int = 0

    @property
    def queued(self) -> int:
        return len(self.queue)


class AdmissionController:
    """Per-class semaphores with bounded FIFO queues and shedding."""

    def __init__(self, config: WlmConfig, clock=time.monotonic):
        self.config = config
        self.clock = clock
        self._cond = make_condition("wlm.admission")
        self._tickets = itertools.count()
        self._classes: dict[str, ClassState] = {}
        for name, policy in config.classes.items():
            self._classes[name] = ClassState(policy=policy)

    def _state(self, query_class: str) -> ClassState:
        state = self._classes.get(query_class)
        if state is None:
            # unknown class: admit under a fresh default policy rather
            # than failing — a classifier extension must not 500 traffic
            state = ClassState(policy=WlmClassPolicy())
            self._classes[query_class] = state
        return state

    @contextmanager
    def admit(self, query_class: str):
        """Hold one admission slot of ``query_class`` for the body.

        Raises :class:`WlmShedError` instead of waiting when the queue is
        full, and after ``enqueue_timeout`` (or the request deadline,
        whichever is sooner) when no slot frees up.  Yields the seconds
        spent queued.
        """
        queued_seconds = self._acquire(query_class)
        try:
            yield queued_seconds
        finally:
            self._release(query_class)

    # -- mechanics ---------------------------------------------------------

    def _acquire(self, name: str) -> float:
        arrived = self.clock()
        with self._cond:
            state = self._state(name)
            if state.active < state.policy.max_concurrency and not state.queue:
                self._admit_locked(state, name)
                return 0.0
            if state.queued >= state.policy.max_queue:
                self._shed_locked(state, name, "queue-full")
            ticket = next(self._tickets)
            state.queue.append(ticket)
            QUEUE_DEPTH.set(state.queued, qclass=name)
            try:
                self._wait_for_slot(state, name, ticket, arrived)
            finally:
                # admitted, shed or interrupted: we leave the queue
                state.queue.remove(ticket)
                QUEUE_DEPTH.set(state.queued, qclass=name)
                self._cond.notify_all()
            self._admit_locked(state, name)
            waited = self.clock() - arrived
            QUEUED_SECONDS.observe(waited, qclass=name)
            return waited

    def _wait_for_slot(
        self, state: ClassState, name: str, ticket: int, arrived: float
    ) -> None:
        """Wait (on the held condition) until this ticket is at the head
        of the FIFO *and* a slot is free; shed on timeout/deadline."""
        timeout_at = arrived + state.policy.enqueue_timeout
        deadline = current_deadline()
        if deadline is not None:
            timeout_at = min(timeout_at, deadline.expires_at)
        while not (
            state.queue[0] == ticket
            and state.active < state.policy.max_concurrency
        ):
            remaining = timeout_at - self.clock()
            if remaining <= 0.0:
                reason = (
                    "deadline"
                    if deadline is not None and deadline.expired
                    else "timeout"
                )
                self._shed_locked(state, name, reason)
            self._cond.wait(remaining)

    def _admit_locked(self, state: ClassState, name: str) -> None:
        state.active += 1
        state.admitted += 1
        ADMITTED_TOTAL.inc(qclass=name)
        ACTIVE.set(state.active, qclass=name)

    def _shed_locked(self, state: ClassState, name: str, reason: str):
        state.shed += 1
        SHED_TOTAL.inc(qclass=name, reason=reason)
        detail = {
            "queue-full": (
                f"queue full ({state.policy.max_queue} waiting, "
                f"{state.active} executing)"
            ),
            "timeout": (
                f"no slot freed within {state.policy.enqueue_timeout:.1f}s"
            ),
            "deadline": "request deadline expired while queued",
        }[reason]
        raise WlmShedError(
            f"workload manager shed this {name!r} query: {detail} — "
            f"retry later or lower concurrency",
            query_class=name,
            reason=reason,
        )

    def _release(self, name: str) -> None:
        with self._cond:
            state = self._state(name)
            state.active -= 1
            ACTIVE.set(state.active, qclass=name)
            self._cond.notify_all()

    # -- introspection (the wlm[] admin command) ---------------------------

    def snapshot(self) -> dict[str, dict]:
        """Per-class accounting: limit/active/queued/admitted/shed."""
        with self._cond:
            return {
                name: {
                    "limit": state.policy.max_concurrency,
                    "active": state.active,
                    "queued": state.queued,
                    "admitted": state.admitted,
                    "shed": state.shed,
                }
                for name, state in sorted(self._classes.items())
            }
