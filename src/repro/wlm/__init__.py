"""Workload management & resilience for the Hyper-Q serving layer.

The translation pipeline answers *what SQL to run*; this package answers
*whether, when and how hard to try*.  It threads four concerns through
the accept loop, session, pipeline and backends (docs/WLM.md):

* **classification** (:mod:`~repro.wlm.classifier`) — every request gets
  a :class:`QueryClass` from its Q AST before any work happens;
* **admission** (:mod:`~repro.wlm.admission`) — per-class concurrency
  quotas with bounded FIFO queues; overload sheds crisply (``'wlm-shed``)
  instead of hanging clients;
* **deadlines** (:mod:`~repro.wlm.deadline`) — a per-request expiry on
  the request's context, enforced via socket timeouts on the network
  gateway and cooperative checks elsewhere;
* **recovery** (:mod:`~repro.wlm.retry`) — jittered retries of
  idempotent reads under a global budget, plus a per-backend circuit
  breaker that fails fast while the backend is down and probes recovery;
* **fault injection** (:mod:`~repro.wlm.faults`) — a deterministic,
  seedable saboteur (``REPRO_FAULTS``) that proves all of the above
  actually works, in tests and the ``lockcheck-integration`` CI job.

:class:`WorkloadManager` is the deployment-facing facade: servers build
one, share it across sessions, and wrap their backend through it.
"""

from __future__ import annotations

from repro.config import HyperQConfig, WlmConfig
from repro.wlm.admission import AdmissionController
from repro.wlm.classifier import (
    QueryClass,
    classify_program,
    classify_statement,
)
from repro.wlm.deadline import (
    Deadline,
    RequestContext,
    current_context,
    current_deadline,
    note_retry,
    request_scope,
)
from repro.wlm.faults import FaultInjector
from repro.wlm.retry import (
    CircuitBreaker,
    ResilientBackend,
    RetryPolicy,
)

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "Deadline",
    "FaultInjector",
    "QueryClass",
    "RequestContext",
    "ResilientBackend",
    "RetryPolicy",
    "WorkloadManager",
    "classify_program",
    "classify_statement",
    "current_context",
    "current_deadline",
    "note_retry",
    "request_scope",
]


class WorkloadManager:
    """One workload-management domain: admission + recovery + faults.

    Usually one per server (sessions share it, so quotas and breaker
    state are global to the deployment); a standalone session builds a
    private one when ``HyperQConfig.wlm.enabled``.
    """

    def __init__(self, config: WlmConfig | HyperQConfig | None = None):
        if isinstance(config, HyperQConfig):
            config = config.wlm
        self.config = config or WlmConfig()
        self.admission = AdmissionController(self.config)
        self.retry_policy = RetryPolicy(self.config.retry)
        self.faults = (
            FaultInjector(self.config.faults)
            if self.config.faults.enabled
            else None
        )
        self._breakers: dict[str, CircuitBreaker] = {}

    # -- request lifecycle -------------------------------------------------

    def admit(self, query_class: str):
        """Context manager holding one admission slot (see
        :meth:`AdmissionController.admit`)."""
        return self.admission.admit(query_class)

    def deadline_for_request(self) -> Deadline | None:
        """A fresh default deadline, unless one is already in force (an
        enclosing scope's deadline always wins by being earlier)."""
        inherited = current_deadline()
        if inherited is not None:
            return inherited
        if self.config.default_deadline > 0:
            return Deadline.after(self.config.default_deadline)
        return None

    # -- backend wrapping --------------------------------------------------

    def breaker_for(self, name: str) -> CircuitBreaker:
        """The (shared) circuit breaker guarding backend ``name``."""
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = self._breakers[name] = CircuitBreaker(
                name, self.config.breaker
            )
        return breaker

    def wrap_backend(self, backend):
        """Wrap an execution backend with retry/breaker/fault policies.

        The one place backends get wrapped.  A sharded backend is never
        wrapped as a whole (an outer retry would re-run every scattered
        subplan): each shard's backend is wrapped once instead, under
        breaker ``shard<i>``.  Wrapping twice changes nothing.
        """
        if getattr(backend, "is_sharded", False):
            backend.wrap_shards(self._wrap)
            return backend
        return self._wrap(backend)

    def _wrap(self, backend, name: str | None = None):
        if isinstance(backend, ResilientBackend):
            return backend
        return ResilientBackend(
            backend,
            policy=self.retry_policy,
            breaker=self.breaker_for(name or getattr(backend, "name", "backend")),
            faults=self.faults,
            name=name,
        )

    # -- introspection (the wlm[] admin command) ---------------------------

    def snapshot(self) -> dict:
        """Queue depths, breaker states and shed counts, as plain data."""
        return {
            "classes": self.admission.snapshot(),
            "breakers": {
                name: breaker.snapshot()
                for name, breaker in sorted(self._breakers.items())
            },
            "faults": (
                dict(self.faults.injected) if self.faults is not None else {}
            ),
        }
