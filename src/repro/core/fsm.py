"""A small finite-state-machine framework (the Erlang stand-in).

The paper's Cross Compiler designs both translator processes as FSMs that
"maintain translator internal state while providing a mechanism for code
re-entrance", with events kicking off backend processing and callbacks
firing when events occur (Section 3.4).  This module gives the
reproduction the same shape: declared states, event-driven transitions,
entry callbacks, and a synchronous event queue so callbacks may fire
further events without recursion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError

#: transitions an FSM keeps in ``history`` for debugging
HISTORY_LEN = 32


class FsmError(ReproError):
    """Invalid FSM construction or an event with no matching transition."""


@dataclass
class Transition:
    source: str
    event: str
    target: str
    action: Callable[["Fsm", object], None] | None = None


@dataclass
class _QueuedEvent:
    name: str
    payload: object


class Fsm:
    """A declarative finite state machine with an internal event queue."""

    def __init__(self, name: str, initial: str):
        self.name = name
        self.state = initial
        self.states: set[str] = {initial}
        self._transitions: dict[tuple[str, str], Transition] = {}
        self._entry_callbacks: dict[str, Callable[["Fsm", object], None]] = {}
        self._queue: deque[_QueuedEvent] = deque()
        self._running = False
        # (from, event, to) of the latest transitions only: connection
        # FSMs live as long as their connection and fire per query
        self.history: deque[tuple[str, str, str]] = deque(maxlen=HISTORY_LEN)

    # -- construction -----------------------------------------------------------

    def add_state(
        self,
        name: str,
        on_enter: Callable[["Fsm", object], None] | None = None,
    ) -> "Fsm":
        self.states.add(name)
        if on_enter is not None:
            self._entry_callbacks[name] = on_enter
        return self

    def add_transition(
        self,
        source: str,
        event: str,
        target: str,
        action: Callable[["Fsm", object], None] | None = None,
    ) -> "Fsm":
        if source not in self.states or target not in self.states:
            raise FsmError(
                f"transition {source}--{event}-->{target} references an "
                f"undeclared state"
            )
        self._transitions[(source, event)] = Transition(
            source, event, target, action
        )
        return self

    # -- runtime -----------------------------------------------------------------

    def fire(self, event: str, payload: object = None) -> None:
        """Enqueue an event; process the queue unless already draining.

        Events fired from inside callbacks are appended to the queue and
        handled iteratively — the re-entrance mechanism the paper
        describes.
        """
        self._queue.append(_QueuedEvent(event, payload))
        if self._running:
            return
        self._running = True
        try:
            while self._queue:
                queued = self._queue.popleft()
                self._step(queued.name, queued.payload)
        finally:
            self._running = False

    def _step(self, event: str, payload: object) -> None:
        transition = self._transitions.get((self.state, event))
        if transition is None:
            raise FsmError(
                f"FSM {self.name!r} in state {self.state!r} has no "
                f"transition for event {event!r}"
            )
        self.history.append((self.state, event, transition.target))
        if transition.action is not None:
            transition.action(self, payload)
        self.state = transition.target
        callback = self._entry_callbacks.get(transition.target)
        if callback is not None:
            callback(self, payload)

    def can_fire(self, event: str) -> bool:
        return (self.state, event) in self._transitions
