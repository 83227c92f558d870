"""Temp-tier differential: every read of a Q variable answers the same
bytes with the tier on, with the tier off (eager CTAS) and in LOGICAL
mode (views), and the same values as the reference interpreter.

The grid is assignments x reads; each assignment runs its reads in
order in one session per mode, so the tier-on run crosses the fallback
(the aggregate) and reads the materialized handle afterwards.  The tier
counters pin which reads the snapshot answered.
"""

import pytest

from repro.config import HyperQConfig, MaterializationMode, TempTierConfig
from repro.core.platform import DirectGateway, HyperQ
from repro.qipc.encode import encode_value
from repro.qlang.interp import Interpreter
from repro.sqlengine.engine import Engine
from repro.testing.comparators import compare_values
from repro.workload.loader import load_q_source

from tests.cache.conftest import MARKET_SOURCE, MARKET_TABLES, tier_counts

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

#: (served, fallbacks) tier counter deltas a read causes
SERVED, FALLBACK, PASSTHROUGH = (1, 0), (0, 1), (0, 0)

#: (read, what the tier does with it), run in this order per assignment
READS = [
    ("select from dt", SERVED),
    ("select from dt where Size = 20", SERVED),
    ("select from dt where Price <> 50.0", SERVED),
    ("select from dt where Size < 25", SERVED),
    ("select from dt where Size >= 20", SERVED),
    ("select from dt where Symbol = `GOOG", SERVED),
    ("select from dt where Price > 40.0, Size < 35", SERVED),
    ("select Price, Size from dt", SERVED),
    ("count select from dt", SERVED),
    ("count select from dt where Price > 40.0", SERVED),
    ("select sum Size by Symbol from dt", FALLBACK),
    ("select from dt", PASSTHROUGH),
]

MODES = {
    # one-row blocks: every filtered read prunes, all-null blocks too
    "tier": HyperQConfig(temp_tier=TempTierConfig(block_rows=1)),
    "eager": HyperQConfig(temp_tier=TempTierConfig(enabled=False)),
    "logical": HyperQConfig(materialization=MaterializationMode.LOGICAL),
}


def market(config):
    engine = Engine()
    hq = HyperQ(engine=engine, backend=DirectGateway(engine), config=config)
    interp = Interpreter()
    load_q_source(engine, interp, MARKET_SOURCE, MARKET_TABLES, mdi=hq.mdi)
    load_q_source(engine, interp, TICKS_SOURCE, ["ticks"], mdi=hq.mdi)
    return hq, interp


@pytest.mark.parametrize("assignment", sorted(ASSIGNMENTS))
def test_reads_agree_across_modes_and_interpreter(assignment):
    assign = ASSIGNMENTS[assignment]
    sessions = {}
    for mode, config in MODES.items():
        hq, interp = market(config)
        sessions[mode] = hq.create_session()
    interp.eval_text(assign)
    try:
        for s in sessions.values():
            s.execute(assign)
        for read, fate in READS:
            before = tier_counts()
            tier_value = sessions["tier"].execute(read)
            assert tier_counts(before) == fate, read
            expected = encode_value(tier_value)
            for mode in ("eager", "logical"):
                assert encode_value(sessions[mode].execute(read)) == \
                    expected, f"{mode}: {read}"
            comparison = compare_values(interp.eval_text(read), tier_value)
            assert comparison, f"{read}: {comparison.reason}"
    finally:
        for s in sessions.values():
            s.close()


@pytest.mark.parametrize("mode", sorted(MODES))
class TestSortedAssignment:
    """A sorted assignment keeps its own row order on every path: the
    tier snapshot, the eager CTAS, the view, the fallback load, and a
    function-local (always physical) variable."""

    SORT = "`Price xdesc select from trades"

    def prices(self, session, read):
        return session.execute(read).column("Price").items

    def test_variable_reads_in_sorted_order(self, mode):
        hq, interp = market(MODES[mode])
        interp.eval_text(f"dt: {self.SORT}")
        expected = interp.eval_text("select from dt").column("Price").items
        assert expected == [101.0, 100.0, 50.0, 30.0]
        s = hq.create_session()
        try:
            s.execute(f"dt: {self.SORT}")
            assert self.prices(s, "select from dt") == expected
            assert self.prices(s, "select[2] from dt") == expected[:2]
            s.execute("select sum Size by Symbol from dt")  # fallback
            assert self.prices(s, "select from dt") == expected
            assert self.prices(s, "select[2] from dt") == expected[:2]
        finally:
            s.close()

    def test_function_local_variable(self, mode):
        hq, interp = market(MODES[mode])
        define = f"f: {{[x] t: {self.SORT}; :select[2] from t}}"
        interp.eval_text(define)
        expected = interp.eval_text("f[1]").column("Price").items
        assert expected == [101.0, 100.0]
        s = hq.create_session()
        try:
            s.execute(define)
            assert self.prices(s, "f[1]") == expected
        finally:
            s.close()
