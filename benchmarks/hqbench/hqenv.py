"""Locate the checkout and make ``repro`` importable.

hqbench runs as a plain script (``python3 benchmarks/hqbench/run.py``)
from any checkout of the repo, with no install step: ``src/`` is put on
``sys.path`` here, once, for the load generator and the server child
alike.  In a directory that holds only the benchmark (no ``src/repro``)
this raises ``SystemExit`` with a message and a non-zero code before
anything is printed on stdout.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
#: the only place hqbench writes (listed in the root .gitignore)
RESULTS_DIR = BENCH_DIR / "results"
#: first word of the line the server child prints once it is serving
READY_PREFIX = "HQBENCH-READY"


def bootstrap() -> None:
    """Put ``src/`` on ``sys.path`` or exit non-zero when it is absent."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"hqbench: {SRC_DIR / 'repro'} not found - the benchmark "
            "drives the program built from this checkout's src/"
        )
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
