"""Q-variable differential: every read of a Q variable answers the same
bytes with an eager temp table over the in-process engine, with the
same temp table over PG wire (``NetworkGateway`` to a ``PgWireServer``,
the paper's deployment shape) and in LOGICAL mode (views), and the same
values as the reference interpreter.

The grid is assignments x reads; each assignment runs its reads in
order in one session per mode.  A physical variable is a snapshot: a
later insert into its source table must not reach it on either
physical path (Section 4.3).
"""

from contextlib import ExitStack

import pytest

from repro.config import HyperQConfig, MaterializationMode
from repro.core.platform import DirectGateway, HyperQ
from repro.qipc.encode import encode_value
from repro.qlang.interp import Interpreter
from repro.server.gateway import NetworkGateway
from repro.server.pgserver import PgWireServer
from repro.sqlengine.engine import Engine
from repro.testing.comparators import compare_values
from repro.workload.loader import load_q_source

from tests.cache.conftest import MARKET_SOURCE, MARKET_TABLES

#: a table holding nulls: a null symbol and null prices
TICKS_SOURCE = """
ticks: ([] Symbol:`GOOG``IBM`GOOG`MSFT;
           Price:100.0 0n 50.0 0n 30.0;
           Size:10 20 30 40 50)
"""

ASSIGNMENTS = {
    "plain": "dt: select from trades",
    "filtered": "dt: select from trades where Size > 15",
    "sorted": "dt: `Price xdesc select from trades",
    "projected": "dt: select Symbol, Price, Size from trades",
    "nulls": "dt: select from ticks",
    "sorted_nulls": "dt: `Price xasc select from ticks",
}

#: run in this order per assignment
READS = [
    "select from dt",
    "select from dt where Size = 20",
    "select from dt where Price <> 50.0",
    "select from dt where Size < 25",
    "select from dt where Size >= 20",
    "select from dt where Symbol = `GOOG",
    "select from dt where Price > 40.0, Size < 35",
    "select Price, Size from dt",
    "count select from dt",
    "count select from dt where Price > 40.0",
    "select sum Size by Symbol from dt",
    "select from dt",
]

#: mode -> (materialization, over PG wire)
MODES = {
    "eager": (MaterializationMode.PHYSICAL, False),
    "logical": (MaterializationMode.LOGICAL, False),
    "pgwire": (MaterializationMode.PHYSICAL, True),
}

#: the modes whose variables are snapshots
PHYSICAL = sorted(m for m, (mat, __) in MODES.items()
                  if mat is MaterializationMode.PHYSICAL)


def market(mode, stack: ExitStack):
    """A platform over the market and ticks tables in ``mode``, plus the
    interpreter holding the same tables; servers close with ``stack``."""
    materialization, wire = MODES[mode]
    config = HyperQConfig(materialization=materialization)
    engine = Engine()
    if wire:
        server = stack.enter_context(PgWireServer(engine))
        gateway = stack.enter_context(NetworkGateway(*server.address))
        hq = HyperQ(backend=gateway, config=config)
    else:
        hq = HyperQ(engine=engine, backend=DirectGateway(engine),
                    config=config)
    interp = Interpreter()
    load_q_source(engine, interp, MARKET_SOURCE, MARKET_TABLES, mdi=hq.mdi)
    load_q_source(engine, interp, TICKS_SOURCE, ["ticks"], mdi=hq.mdi)
    return hq, interp


def open_session(hq, stack: ExitStack):
    """A session of ``hq`` that ``stack`` closes before its servers."""
    session = hq.create_session()
    stack.callback(session.close)
    return session


@pytest.fixture()
def stack():
    with ExitStack() as stack:
        yield stack


@pytest.mark.parametrize("assignment", sorted(ASSIGNMENTS))
def test_reads_agree_across_modes_and_interpreter(assignment, stack):
    assign = ASSIGNMENTS[assignment]
    sessions = {}
    for mode in MODES:
        hq, interp = market(mode, stack)
        sessions[mode] = open_session(hq, stack)
    interp.eval_text(assign)
    for s in sessions.values():
        s.execute(assign)
    for read in READS:
        value = sessions["eager"].execute(read)
        expected = encode_value(value)
        for mode in ("logical", "pgwire"):
            assert encode_value(sessions[mode].execute(read)) == \
                expected, f"{mode}: {read}"
        comparison = compare_values(interp.eval_text(read), value)
        assert comparison, f"{read}: {comparison.reason}"


#: appended to ``trades`` after ``dt: select from trades``
LATER_INSERT = (
    "`trades insert ([] Symbol: enlist `GOOG; Time: enlist 10:00:00; "
    "Price: enlist 99.0; Size: enlist 50)"
)


@pytest.mark.parametrize("mode", PHYSICAL)
def test_later_insert_does_not_reach_the_variable(mode, stack):
    """A physical variable holds its SELECT's result at assignment time:
    an aggregate over it must not see the row (GOOG 40, not 90), over PG
    wire as in process."""
    hq, interp = market(mode, stack)
    s = open_session(hq, stack)
    for text in ("dt: select from trades", LATER_INSERT):
        interp.eval_text(text)
        s.execute(text)
    for read in ("select sum Size by Symbol from dt",
                 "select from dt",
                 "count select from dt",
                 "count select from trades"):
        comparison = compare_values(interp.eval_text(read), s.execute(read))
        assert comparison, f"{read}: {comparison.reason}"


@pytest.mark.parametrize("mode", sorted(MODES))
class TestSortedAssignment:
    """A sorted assignment keeps its own row order on every path: the
    temp table, the view, and a function-local (always physical)
    variable."""

    SORT = "`Price xdesc select from trades"

    def prices(self, session, read):
        return session.execute(read).column("Price").items

    def test_variable_reads_in_sorted_order(self, mode, stack):
        hq, interp = market(mode, stack)
        interp.eval_text(f"dt: {self.SORT}")
        expected = interp.eval_text("select from dt").column("Price").items
        assert expected == [101.0, 100.0, 50.0, 30.0]
        s = open_session(hq, stack)
        s.execute(f"dt: {self.SORT}")
        assert self.prices(s, "select from dt") == expected
        assert self.prices(s, "select[2] from dt") == expected[:2]
        s.execute("select sum Size by Symbol from dt")
        assert self.prices(s, "select from dt") == expected
        assert self.prices(s, "select[2] from dt") == expected[:2]

    def test_function_local_variable(self, mode, stack):
        hq, interp = market(mode, stack)
        define = f"f: {{[x] t: {self.SORT}; :select[2] from t}}"
        interp.eval_text(define)
        expected = interp.eval_text("f[1]").column("Price").items
        assert expected == [101.0, 100.0]
        s = open_session(hq, stack)
        s.execute(define)
        assert self.prices(s, "f[1]") == expected


#: sorted table expressions consumed by another operator: each consumer
#: orders by the sort's order column, so it must carry the sorted order
SORTED_READS = [
    "select Price from `Price xdesc trades",
    "select[2] from `Price xdesc select from trades",
    "select Price from `Symbol`Price xasc select from trades",
    "select Price from `Size xdesc trades where Price>40",
    "select from `Price xasc trades",
]


@pytest.mark.parametrize("read", SORTED_READS)
def test_sorted_table_expressions_keep_their_order(read, stack):
    hq, interp = market("eager", stack)
    s = open_session(hq, stack)
    comparison = compare_values(interp.eval_text(read), s.execute(read))
    assert comparison, f"{read}: {comparison.reason}"
