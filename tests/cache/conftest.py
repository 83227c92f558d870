"""Fixtures for the caching subsystem: a market platform plus a
call-counting gateway so tests can assert which statements actually
reached the backend."""

import pytest

from repro.core.platform import DirectGateway, HyperQ
from repro.qlang.interp import Interpreter
from repro.sqlengine.engine import Engine
from repro.workload.loader import load_q_source

MARKET_SOURCE = """
trades: ([] Symbol:`GOOG`IBM`GOOG`MSFT;
            Time:09:30:30 09:31:00 09:32:00 09:30:45;
            Price:100.0 50.0 101.0 30.0;
            Size:10 20 30 40);
quotes: ([] Symbol:`GOOG`GOOG`IBM;
            Time:09:30:00 09:31:00 09:30:30;
            Bid:99.0 100.5 49.0;
            Ask:99.5 101.0 49.5)
"""

MARKET_TABLES = ["trades", "quotes"]


class CountingGateway(DirectGateway):
    """DirectGateway that records every statement it executes."""

    def __init__(self, engine):
        super().__init__(engine)
        self.statements: list[str] = []

    def run_sql(self, sql):
        self.statements.append(sql)
        return super().run_sql(sql)

    def count(self, fragment: str = "") -> int:
        return sum(1 for s in self.statements if fragment in s)


def make_platform(config=None):
    engine = Engine()
    gateway = CountingGateway(engine)
    hq = HyperQ(engine=engine, backend=gateway, config=config)
    load_q_source(engine, Interpreter(), MARKET_SOURCE, MARKET_TABLES,
                  mdi=hq.mdi)
    return hq, gateway


@pytest.fixture()
def platform():
    hq, gateway = make_platform()
    return hq, gateway


@pytest.fixture()
def session(platform):
    hq, __ = platform
    s = hq.create_session()
    yield s
    s.close()
