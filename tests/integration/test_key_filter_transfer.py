"""Key-filter transfer across joins, against the reference interpreter.

When a join's left input is filtered to one key value, the Xformer
filters the right input to the same value (through the as-of join's
``lead`` window when that window partitions by the key).  Each read must
answer what the interpreter answers, and the same QIPC bytes in process
(``DirectGateway``), over the PG wire and on four shards; the filters
that may not transfer (a non-key column, an ``OR``, a window that is not
partitioned by the key) must leave the right input as it was.
"""

from contextlib import ExitStack

import pytest

from repro.core.metadata import PartitionMap
from repro.core.platform import DirectGateway, HyperQ
from repro.core.sharded import ShardedBackend
from repro.qipc.encode import encode_value
from repro.qlang.interp import Interpreter
from repro.server.gateway import NetworkGateway
from repro.server.pgserver import PgWireServer
from repro.sqlengine.engine import Engine
from repro.testing.comparators import compare_values
from repro.workload.loader import load_q_source, qtable_to_columns

#: null symbols on both sides, two exchanges, repeated quote times
SOURCE = (
    "trades: ([] Symbol:`GOOG`IBM`GOOG``IBM`MSFT`GOOG`; Ex:`N`O`O`N`N`O`N`O;"
    " Time:09:30:30 09:31:00 09:32:00 09:30:45 09:33:00 09:31:30 09:34:00"
    " 09:35:00; Price:100.0 50.0 101.0 7.0 51.0 30.0 102.0 8.0;"
    " Size:10 20 30 40 50 60 70 80);\n"
    "quotes: ([] Symbol:`GOOG`GOOG`IBM``GOOG`MSFT`IBM``GOOG;"
    " Ex:`N`O`N`N`N`O`O`O`O;"
    " Time:09:30:00 09:31:00 09:30:30 09:30:00 09:33:00 09:31:00 09:32:00"
    " 09:34:30 09:31:00; Bid:99.0 100.5 49.0 6.0 101.5 29.0 49.5 7.5 100.0);\n"
    "ratings: ([Symbol:`GOOG`IBM`] Rating:`buy`hold`none)"
)
TABLES = ["trades", "quotes", "ratings"]

#: reads whose right input gets the left input's key filter
TRANSFERRED = [
    "aj[`Symbol`Time; select from trades where Symbol=`GOOG; quotes]",
    "aj[`Symbol`Ex`Time; select from trades where Symbol=`GOOG; quotes]",
    "aj[`Symbol`Ex`Time; select from trades where Ex=`O, Symbol=`IBM; quotes]",
    "aj0[`Symbol`Time; select from trades where Symbol=`IBM, Size>20; quotes]",
    "aj[`Symbol`Time; select from trades where Symbol=`; quotes]",
    "aj[`Symbol`Time; select from trades where Symbol=`GOOG; "
    "update cb: sums Bid by Symbol from quotes]",
    "(select from trades where Symbol=`IBM) lj ratings",
    "(select from trades where Symbol=`) lj ratings",
    "(select from trades where Symbol=`GOOG) ij ratings",
    "ej[`Symbol; select from trades where Symbol=`GOOG; quotes]",
    "select Symbol, Time, Bid from aj[`Symbol`Time; "
    "select from trades where Symbol=`GOOG, Size>20; quotes]",
]

#: reads whose right input must stay unfiltered
KEPT = [
    "aj[`Symbol`Time; select from trades where Size>35; quotes]",
    "aj[`Symbol`Time; select from trades where (Symbol=`GOOG) or Size>35; "
    "quotes]",
    "aj[`Symbol`Time; select from trades where Symbol in `GOOG`IBM; quotes]",
    "(select from trades where Size>35) lj ratings",
]

#: the filter transfers, but must stop above a window that is not
#: partitioned by the key (a running sum over every quote)
BLOCKED = [
    "aj[`Symbol`Time; select from trades where Symbol=`GOOG; "
    "update cb: sums Bid from quotes]",
    "aj[`Symbol`Time; select from trades where Symbol=`IBM; "
    "update cb: sums Bid by Ex from quotes]",
]

READS = TRANSFERRED + KEPT + BLOCKED


def _direct(stack: ExitStack) -> HyperQ:
    engine = Engine()
    hq = HyperQ(engine=engine, backend=DirectGateway(engine))
    load_q_source(engine, Interpreter(), SOURCE, TABLES, mdi=hq.mdi)
    return hq


def _pgwire(stack: ExitStack) -> HyperQ:
    engine = Engine()
    server = stack.enter_context(PgWireServer(engine))
    hq = HyperQ(backend=stack.enter_context(NetworkGateway(*server.address)))
    load_q_source(engine, Interpreter(), SOURCE, TABLES, mdi=hq.mdi)
    return hq


def _sharded(stack: ExitStack) -> HyperQ:
    partitions = (PartitionMap(4).hash_table("trades", "Symbol")
                  .hash_table("quotes", "Symbol"))
    backend = ShardedBackend([DirectGateway(Engine()) for __ in range(4)],
                             partitions)
    stack.callback(backend.close)
    hq = HyperQ(backend=backend)
    interp = Interpreter()
    interp.eval_text(SOURCE)
    for name in TABLES:
        keys, columns, data = qtable_to_columns(interp.get_global(name))
        backend.load_columns(name, columns, data)
        if keys:
            hq.mdi.annotate_keys(name, keys)
        else:
            hq.mdi.invalidate(name)
    return hq


PATHS = {"direct": _direct, "pgwire": _pgwire, "shards4": _sharded}


@pytest.fixture(scope="module")
def platforms():
    with ExitStack() as stack:
        yield {name: build(stack) for name, build in PATHS.items()}


@pytest.fixture(scope="module")
def interp():
    it = Interpreter()
    it.eval_text(SOURCE)
    return it


def _transfers(hq: HyperQ, query: str) -> int:
    """How often the transfer rule fired translating ``query``."""
    outcome = hq.translate(query)
    return outcome.rule_applications.get("key_filter_transfer", 0)


@pytest.mark.parametrize("query", READS)
def test_reads_match_the_interpreter_on_every_path(platforms, interp, query):
    expected = interp.eval_text(query)
    direct = platforms["direct"].q(query)
    comparison = compare_values(expected, direct)
    assert comparison, comparison.reason
    reply = encode_value(direct)
    for path in ("pgwire", "shards4"):
        assert encode_value(platforms[path].q(query)) == reply, path


@pytest.mark.parametrize("query", TRANSFERRED + BLOCKED)
def test_key_filter_transfers(platforms, query):
    assert _transfers(platforms["direct"], query) > 0


@pytest.mark.parametrize("query", KEPT)
def test_other_filters_do_not_transfer(platforms, query):
    assert _transfers(platforms["direct"], query) == 0
    sql = platforms["direct"].translate(query).sql_statements[-1]
    assert sql.count("WHERE") == 1  # only the left input's own filter
