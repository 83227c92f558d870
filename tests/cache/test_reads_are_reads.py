"""Every translated statement is a read, whatever the WLM billed it.

Q's ``update … from t`` and ``delete … from t`` return a modified copy
and translate to a plain ``SELECT``; a message holding an assignment
bills ``materializing`` as a whole.  Neither may run its reads as
writes: the result cache caches them, no table version moves, and the
answer is the same with the WLM on or off (docs/CACHING.md).
"""

import pytest

from repro.config import HyperQConfig, WlmConfig
from repro.core.platform import HyperQ
from repro.workload.analytical import (
    AnalyticalConfig,
    build_queries,
    load_workload,
)

from tests.cache.conftest import make_platform

WLM = pytest.mark.parametrize("wlm", [True, False], ids=["wlm_on", "wlm_off"])


def config(wlm: bool) -> HyperQConfig:
    return HyperQConfig(wlm=WlmConfig(enabled=wlm))


@WLM
def test_second_workload_pass_is_all_hits(wlm):
    """The 25-query Analytical Workload twice through one session: the
    second pass is answered from the result cache, 25 of 25, and nothing
    is invalidated (queries 8, 16 and 25 are update/delete templates)."""
    hq = HyperQ(config=config(wlm))
    load_workload(hq.engine, hq.mdi, AnalyticalConfig.small())
    session = hq.create_session()
    queries = build_queries()
    try:
        for query in queries:
            session.execute(query.text)
        first_pass_hits = hq.result_cache.snapshot().hits
        for query in queries:
            session.execute(query.text)
        stats = hq.result_cache.snapshot()
    finally:
        session.close()
    assert stats.hits - first_pass_hits == len(queries) == 25
    assert stats.invalidations == 0


@WLM
@pytest.mark.parametrize("query", [
    "update Price: 0.0 from trades",
    "update Size: Size + 1 from trades where Symbol = `GOOG",
    "delete from trades where Symbol = `GOOG",
    "delete Price from trades",
])
def test_functional_update_and_delete_move_no_version(wlm, query):
    hq, gateway = make_platform(config(wlm))
    session = hq.create_session()
    try:
        before = hq.mdi.table_version("trades")
        first = session.execute(query)
        runs = gateway.count()
        assert session.execute(query) == first
        assert gateway.count() == runs  # the repeat is a cache hit
        assert hq.mdi.table_version("trades") == before
        assert hq.result_cache.snapshot().invalidations == 0
    finally:
        session.close()


@WLM
def test_read_in_a_materializing_message_invalidates_nothing(wlm):
    """``x: 5; select from quotes`` bills ``materializing`` with the WLM
    on; its read is still a read."""
    hq, gateway = make_platform(config(wlm))
    session = hq.create_session()
    try:
        session.execute("select from quotes")
        runs = gateway.count()
        session.execute("x: 5; select from quotes")
        stats = hq.result_cache.snapshot()
    finally:
        session.close()
    assert stats.invalidations == 0
    assert stats.hits == 1
    assert gateway.count() == runs
