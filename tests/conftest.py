"""Suite-wide test configuration.

The static-analysis subsystem (``repro.analysis``) is off by default in
production but on throughout the test suite: every statement the tests
push through a pipeline also runs the qcheck rules and the XTRA invariant
checker, so a rewrite bug or analyzer false positive fails loudly here
first.  Benchmarks keep their own conftest and stay un-instrumented (the
obs-overhead budget is measured without analysis).

Set before ``repro.config`` can be imported: ``AnalysisConfig.enabled``
reads the environment at dataclass-default time.

Under ``REPRO_LOCKCHECK=1`` (CI's lockcheck-integration job) the
lock factories hand out instrumented :class:`OrderedLock` instances and
a session-teardown hook asserts the whole run recorded **zero
lock-order cycles** (CC005) — any ABBA pattern the suite exercises
fails the run with the cycle and its acquisition sites — and exports
the record as ``concurrency_*`` metrics.
"""

import os

import pytest

os.environ.setdefault("REPRO_ANALYSIS", "1")


@pytest.fixture(scope="session", autouse=True)
def _lockcheck_gate():
    """Fail the session if instrumented locks recorded any CC005 cycle."""
    from repro.analysis.concurrency.locks import (
        export_metrics,
        lockcheck_enabled,
        lockcheck_state,
    )

    yield
    if not lockcheck_enabled():
        return
    export_metrics()
    report = lockcheck_state().report()
    assert not report["cycles"], (
        "lock-order cycles recorded under REPRO_LOCKCHECK "
        f"(CC005): {report['cycles']}"
    )
