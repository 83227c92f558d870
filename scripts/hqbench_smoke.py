#!/usr/bin/env python3
"""Run one hqbench workload and fail unless every answer was right.

``benchmarks/hqbench/run.py --workload X`` exits 0 whatever its result
says: only a disagreement during warm-up aborts it.  This wrapper runs
it, echoes its output, and exits non-zero unless the last line (the JSON
result) has ``correct`` true and ``failed`` 0.

Usage::

    python3 scripts/hqbench_smoke.py tick_ingest --seconds 3
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "benchmarks" / "hqbench" / "run.py"


def verdict(output: str) -> str | None:
    """Why ``output`` fails the gate, or None when it passes."""
    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "no JSON result line"
    if result.get("correct") is not True or result.get("failed") != 0:
        return (
            f"correct={result.get('correct')} failed={result.get('failed')} "
            f"of {result.get('attempted')}"
        )
    return None


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    workload, *rest = argv
    run = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, *rest],
        stdout=subprocess.PIPE, text=True,
    )
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        return run.returncode
    reason = verdict(run.stdout)
    if reason is not None:
        print(f"hqbench smoke {workload}: {reason}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
