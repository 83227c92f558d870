#!/usr/bin/env python
"""The repo's static-analysis driver: HQ boundary rules and CC rules.

Parses ``src/repro`` once into the concurrency call-graph index, runs the
HQ rules (:mod:`repro.analysis.boundaries`) and the CC thread-role and
lock-discipline rules over it, and writes one JSON report.  CI fails on
any error-severity finding; style is ruff's job (``ruff check .``).
A bare ``hq: allow(...)`` or ``@thread_safe`` without a reason string
does not suppress and is itself reported (CC000); the report records
every honored suppression with its justification.

Usage::

    python scripts/concheck.py [--root PATH] [--output PATH] [-v]

Exit status: the number of error-severity findings (capped at 125).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.analysis.boundaries import check_index  # noqa: E402
from repro.analysis.concurrency.checker import check_tree  # noqa: E402
from repro.analysis.framework import Severity  # noqa: E402

DEFAULT_ROOT = _ROOT / "src" / "repro"
DEFAULT_REPORT = _ROOT / "benchmarks" / "results" / "concheck_report.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root", type=Path, default=DEFAULT_ROOT,
        help=f"package tree to analyze (default: {DEFAULT_ROOT})",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_REPORT,
        help=f"JSON report path (default: {DEFAULT_REPORT})",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print every finding and suppression, not just errors",
    )
    args = parser.parse_args(argv)

    checker = check_tree(args.root)
    boundaries = check_index(checker.index)
    checker.findings += boundaries.findings
    checker.suppressed += boundaries.suppressed
    report = checker.report()
    report["tool"] = "concheck"

    errors = 0
    for finding in checker.findings:
        if finding.severity == Severity.ERROR:
            errors += 1
        if args.verbose or finding.severity == Severity.ERROR:
            print(finding.render())
    if args.verbose:
        for entry in checker.suppressed:
            print(
                f"{entry['path']}:{entry['line']}: {entry['code']} "
                f"suppressed ({entry['suppressed_by']})"
            )

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    counts = report["counts"]
    hq = sum(f.code.startswith("HQ") for f in checker.findings)
    print(
        f"concheck: {report['functions']} functions in "
        f"{report['modules']} modules "
        f"({report['role_counts']['reactor']} reactor, "
        f"{report['role_counts']['worker']} worker), "
        f"{len(checker.findings)} finding(s) ({hq} HQ, "
        f"{counts.get('error', 0)} error, {counts.get('warning', 0)} "
        f"warning), {len(checker.suppressed)} justified suppression(s) "
        f"-> {args.output}"
    )
    return min(errors, 125)


if __name__ == "__main__":
    raise SystemExit(main())
