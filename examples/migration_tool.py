"""Data movement and schema mapping — the paper's Section-1 future work.

    "We rely on the assumption that all relevant data is loaded into the
    underlying systems independently. ... We consider adding tools that
    perform data movement and the mapping of schemas in the future."

This example is that tool: it takes a populated kdb+-style source (the
reference interpreter holding a day of TAQ market data), maps each Q
column type to its PostgreSQL type (reporting degradations), moves the
rows through the backend port — here over a real PG v3 socket — and
verifies the migration with a Hyper-Q side-by-side spot check.

Run:  python examples/migration_tool.py
"""

from repro.core.migrate import DataMover
from repro.core.platform import HyperQ
from repro.qlang.interp import Interpreter
from repro.server.gateway import NetworkGateway
from repro.server.pgserver import PgWireServer
from repro.sqlengine.engine import Engine
from repro.testing.comparators import compare_values
from repro.workload.taq import TaqConfig, generate

SPOT_CHECKS = [
    "select from trades",
    "select sum Size by Symbol from trades",
    "select max Bid, min Ask by Symbol from quotes",
]


def main() -> None:
    # the incumbent system: kdb+ holding a day of market data
    data = generate(TaqConfig(n_symbols=5, quotes_per_symbol=150,
                              trades_per_symbol=40))
    kdb = Interpreter()
    kdb.set_global("trades", data.trades)
    kdb.set_global("quotes", data.quotes)
    print(
        f"source (kdb+): trades={len(data.trades)} rows, "
        f"quotes={len(data.quotes)} rows"
    )

    # the target: a PG-compatible server, reached over the wire
    engine = Engine()
    with PgWireServer(engine) as pg_server:
        with NetworkGateway(*pg_server.address) as gateway:
            hq = HyperQ(backend=gateway)

            def verify(table_name: str) -> bool:
                session = hq.create_session()
                try:
                    left = kdb.eval_text(f"select from {table_name}")
                    right = session.execute(f"select from {table_name}")
                    return bool(compare_values(left, right))
                finally:
                    session.close()

            mover = DataMover(gateway, mdi=hq.mdi, batch_rows=200)
            report = mover.migrate(
                {"trades": data.trades, "quotes": data.quotes},
                verify_with=verify,
            )
            print("\n" + report.summary())

            print("\nschema mapping for trades:")
            for column in report.tables[0].columns:
                note = f"   ({column.note})" if column.note else ""
                print(f"  {column.name:>8}: {column.q_type:>8} -> "
                      f"{column.sql_type}{note}")

            print("\npost-migration spot checks (kdb+ vs Hyper-Q):")
            session = hq.create_session()
            try:
                for query in SPOT_CHECKS:
                    left = kdb.eval_text(query)
                    right = session.execute(query)
                    comparison = compare_values(left, right)
                    status = "MATCH" if comparison else comparison.reason
                    print(f"  {query!r}: {status}")
            finally:
                session.close()


if __name__ == "__main__":
    main()
