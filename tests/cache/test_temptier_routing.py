"""Which reads enter the temp tier: only reads of a relation the tier
holds lazily.  A base-table read never does, and a lazy read the tier
cannot answer materializes its handle exactly once."""

import pytest

from repro.cache.temptier import TempDataTier
from repro.core.platform import HyperQ
from repro.workload import taq
from repro.workload.analytical import AnalyticalConfig, generate
from repro.workload.loader import load_table

from tests.cache.conftest import make_platform, tier_counts

#: the hqbench wide_fetch deck's read shapes (scans of the tick tables
#: and of a 500+-column table)
WIDE_READS = [
    "select from trades where Size>10",
    "select Symbol, Time, Bid, Ask from quotes where BidSize>10",
    "select from instruments where rating within 2.1 2.5",
    "count select from trades",
]


@pytest.fixture()
def try_serve_calls(monkeypatch):
    calls = []
    serve = TempDataTier.try_serve

    def spy(self, shape):
        calls.append(shape)
        return serve(self, shape)

    monkeypatch.setattr(TempDataTier, "try_serve", spy)
    return calls


def test_base_table_reads_never_enter_the_tier(try_serve_calls):
    workload = generate(AnalyticalConfig.small())
    ticks = taq.generate(
        taq.TaqConfig(n_symbols=4, quotes_per_symbol=20, trades_per_symbol=10)
    )
    hq = HyperQ()
    tables = dict(workload.tables, trades=ticks.trades, quotes=ticks.quotes)
    for name, table in tables.items():
        load_table(hq.engine, name, table, mdi=hq.mdi)
    s = hq.create_session()
    try:
        for query in workload.queries:
            s.execute(query.text)
        for read in WIDE_READS:
            s.execute(read)
            s.reply(read)  # the server's path: reply frame and memo
    finally:
        s.close()
    assert len(workload.queries) == 25
    assert try_serve_calls == []


def test_unshaped_read_materializes_its_handle_once(try_serve_calls):
    hq, __ = make_platform()
    s = hq.create_session()
    try:
        s.execute("dt: select from trades")
        relation = s.session_scope.lookup("dt").relation
        before = tier_counts()
        s.execute("select sum Size by Symbol from dt")
        assert try_serve_calls == [None]
        assert tier_counts(before) == (0, 1)
        assert relation in hq.engine.catalog.temp_tables
        s.execute("select sum Size by Symbol from dt")
        s.execute("select max Price from dt")
        assert tier_counts(before) == (0, 1)
        assert len(try_serve_calls) == 1
    finally:
        s.close()
