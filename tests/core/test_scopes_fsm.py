"""Tests for the scope hierarchy (Figure 3) and the FSM framework."""

import pytest

from repro.core.fsm import Fsm, FsmError
from repro.core.scopes import (
    LocalScope,
    ServerScope,
    SessionScope,
    VarKind,
    VariableDef,
)
from repro.qlang.qtypes import QType
from repro.qlang.values import QAtom


def scalar(name, value):
    return VariableDef(name, VarKind.SCALAR, value=QAtom(QType.LONG, value))


class TestScopeHierarchy:
    def test_lookup_falls_through(self):
        server = ServerScope()
        session = SessionScope(server)
        local = LocalScope(session)
        server.upsert(scalar("g", 1))
        assert local.lookup("g").value.value == 1

    def test_local_shadows_session_and_server(self):
        server = ServerScope()
        session = SessionScope(server)
        local = LocalScope(session)
        server.upsert(scalar("x", 1))
        session.upsert(scalar("x", 2))
        local.upsert(scalar("x", 3))
        assert local.lookup("x").value.value == 3
        assert session.lookup("x").value.value == 2

    def test_local_upsert_never_promotes(self):
        server = ServerScope()
        session = SessionScope(server)
        local = LocalScope(session)
        local.upsert(scalar("tmp", 9))
        assert session.lookup("tmp") is None
        assert server.lookup("tmp") is None

    def test_session_destroy_promotes_to_server(self):
        server = ServerScope()
        session = SessionScope(server)
        session.upsert(scalar("v", 5))
        promoted = session.destroy()
        assert promoted == ["v"]
        assert server.lookup("v").value.value == 5
        assert session.local_entries() == {}

    def test_delete(self):
        server = ServerScope()
        server.upsert(scalar("x", 1))
        assert server.delete("x")
        assert not server.delete("x")
        assert server.lookup("x") is None

    def test_names_sorted(self):
        server = ServerScope()
        server.upsert(scalar("b", 1))
        server.upsert(scalar("a", 2))
        assert server.names() == ["a", "b"]


class TestFsm:
    def build(self, trace):
        fsm = Fsm("test", "idle")
        fsm.add_state("working", on_enter=lambda m, p: trace.append(("enter", p)))
        fsm.add_state("done")
        fsm.add_transition(
            "idle", "go", "working",
            action=lambda m, p: trace.append(("action", p)),
        )
        fsm.add_transition("working", "finish", "done")
        return fsm

    def test_transition_with_action_and_entry(self):
        trace = []
        fsm = self.build(trace)
        fsm.fire("go", payload=42)
        assert fsm.state == "working"
        assert trace == [("action", 42), ("enter", 42)]

    def test_unknown_event_raises(self):
        fsm = self.build([])
        with pytest.raises(FsmError):
            fsm.fire("finish")  # not valid from idle

    def test_undeclared_state_rejected(self):
        fsm = Fsm("x", "a")
        with pytest.raises(FsmError):
            fsm.add_transition("a", "e", "nowhere")

    def test_events_fired_from_callbacks_are_queued(self):
        fsm = Fsm("chain", "s0")
        order = []
        fsm.add_state("s1", on_enter=lambda m, p: (order.append(1), m.fire("n2")))
        fsm.add_state("s2", on_enter=lambda m, p: order.append(2))
        fsm.add_transition("s0", "n1", "s1")
        fsm.add_transition("s1", "n2", "s2")
        fsm.fire("n1")
        assert fsm.state == "s2"
        assert order == [1, 2]

    def test_history_recorded(self):
        fsm = self.build([])
        fsm.fire("go")
        fsm.fire("finish")
        assert list(fsm.history) == [("idle", "go", "working"),
                                     ("working", "finish", "done")]

    def test_can_fire(self):
        fsm = self.build([])
        assert fsm.can_fire("go")
        assert not fsm.can_fire("finish")
