"""The package maps in the docs keep up with the source tree.

Every package under ``src/repro`` (a directory with an ``__init__.py``)
must appear in DESIGN.md's module inventory (section 3) and in
docs/ARCHITECTURE.md — as ``repro.<dotted.name>`` or as ``<name>/``.
The docs are written by hand; this only checks them against the tree.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

PACKAGES = sorted(
    init.parent.relative_to(PACKAGE_ROOT).as_posix()
    for init in PACKAGE_ROOT.rglob("__init__.py")
    if init.parent != PACKAGE_ROOT
)


def _design_inventory() -> str:
    text = (REPO_ROOT / "DESIGN.md").read_text()
    match = re.search(r"^## 3\. .*?(?=^## 4\. )", text, re.M | re.S)
    assert match, "DESIGN.md lost its section 3 (module inventory)"
    return match.group(0)


def _mentions(text: str, package: str) -> bool:
    dotted = "repro." + package.replace("/", ".")
    leaf = package.rsplit("/", 1)[-1]
    return dotted in text or f"{leaf}/" in text


def test_tree_has_packages():
    assert {"core", "server", "analysis/concurrency"} <= set(PACKAGES)


@pytest.mark.parametrize(
    "doc", ["DESIGN.md section 3", "docs/ARCHITECTURE.md"]
)
def test_every_package_is_documented(doc):
    text = (
        _design_inventory()
        if doc.startswith("DESIGN")
        else (REPO_ROOT / doc).read_text()
    )
    missing = [p for p in PACKAGES if not _mentions(text, p)]
    assert missing == [], f"{doc} does not mention: {missing}"
