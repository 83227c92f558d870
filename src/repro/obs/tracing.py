"""Lightweight span tracing for the Figure-1 pipeline, and the per-thread
request slot.

``tracer.span("bind")`` context managers nest: a span opened while
another is active on the same thread becomes its child, so one
``hyperq.run`` root span carries the whole parse/bind/xform/serialize
breakdown the paper's Figure 7 charts.  Each span records wall time via
``time.perf_counter()``; completed root spans are retained in a bounded
ring buffer for inspection (``tracer.traces()`` / ``last_trace()``).

The session derives :class:`~repro.core.crosscompiler.StageTimings` from
these spans, so a *disabled* tracer still times each span (the timings
are part of the public API and of the baseline behaviour) — it just
skips building the tree and retaining anything, which makes the
disabled cost identical to the seed's bare ``perf_counter`` pairs.

The same per-thread slot holds the active :class:`RequestContext`: created
once where a request enters, handed to other threads with :func:`activate`.
Open spans never leave their thread; each :class:`Tracer` has its own stack.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.concurrency.locks import make_lock

if TYPE_CHECKING:
    from repro.wlm.deadline import Deadline


@dataclass
class Span:
    """One timed region; ``duration`` is wall-clock seconds."""

    name: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def child_total(self, name: str | None = None) -> float:
        """Summed duration of (optionally name-filtered) direct children."""
        return sum(
            child.duration
            for child in self.children
            if name is None or child.name == name
        )

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (including self) with the given name."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "duration_s": self.duration,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }


@dataclass
class RequestContext:
    """Everything the WLM knows about one request.

    The threads working on a request share this one object, so a retry
    counted on a shard thread shows on the request.  ``query_class`` is
    None until the session bills the request (it never does with the
    WLM disabled); it is a billing label that admission and the
    translation cache read, and no layer branches on it.
    """

    deadline: Deadline | None = None
    query_class: str | None = None
    retries: int = 0
    queued_seconds: float = 0.0
    attrs: dict = field(default_factory=dict)


class _Slot(threading.local):
    """One thread's view of its request: open spans and active context."""

    def __init__(self):
        #: open spans per tracer, innermost last (dropped when empty)
        self.stacks: dict[Tracer, list[Span]] = {}
        self.context: RequestContext | None = None


_slot = _Slot()


def current_context() -> RequestContext | None:
    """The request context active on this thread, if any."""
    return _slot.context


@contextmanager
def activate(context: RequestContext | None):
    """Make ``context`` this thread's request for the block; the previous
    one comes back on exit, so a context never leaks to the next job a
    pooled thread runs."""
    previous, _slot.context = _slot.context, context
    try:
        yield context
    finally:
        _slot.context = previous


class Tracer:
    """Per-thread span stacks over a shared ring of finished traces."""

    def __init__(self, enabled: bool = True, max_traces: int = 64):
        self.enabled = enabled
        self._lock = make_lock("obs.tracer")
        self._finished: deque[Span] = deque(maxlen=max_traces)

    # -- lifecycle ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()

    # -- span API -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a timed span; nests under the current span if any.

        Always yields a :class:`Span` whose ``duration`` is valid after
        the block exits — even when tracing is disabled (the span is then
        detached: no parent, no retention).
        """
        current = Span(name, attrs=attrs)
        stack = _slot.stacks.setdefault(self, []) if self.enabled else None
        if stack is not None:
            if stack:
                stack[-1].children.append(current)
            stack.append(current)
        current.start = time.perf_counter()
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            if stack is not None:
                if stack and stack[-1] is current:
                    stack.pop()
                if not stack:
                    _slot.stacks.pop(self, None)
                    with self._lock:
                        self._finished.append(current)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = _slot.stacks.get(self)
        return stack[-1] if stack else None

    # -- inspection ---------------------------------------------------------

    def traces(self) -> list[Span]:
        """Finished root spans, oldest first (bounded ring)."""
        with self._lock:
            return list(self._finished)

    def last_trace(self) -> Span | None:
        with self._lock:
            return self._finished[-1] if self._finished else None


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer the pipeline reports to."""
    return _tracer


def span(name: str, **attrs):
    """Open a span on the process-wide tracer (context manager)."""
    return _tracer.span(name, **attrs)
