"""Admin verbs are spelled once, in the registry (``repro.core.admin``).

No string constant elsewhere under ``src/repro`` may be a verb name, so
the classifier, the session and qcheck can only learn the verbs from the
registry.  ``repro/qlang/`` is exempt: the reference interpreter keeps
its own builtins, as kdb+ does.  The docs that list the verbs by hand
must name every one.
"""

import ast
import re
from pathlib import Path

from repro.core.admin import VERBS

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
REGISTRY = PACKAGE_ROOT / "core" / "admin.py"


def _string_constants(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def test_verb_names_are_spelled_only_in_the_registry():
    offenders = [
        f"{path.relative_to(PACKAGE_ROOT)}:{line}: {value!r}"
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if path != REGISTRY and "qlang" not in path.relative_to(PACKAGE_ROOT).parts
        for line, value in _string_constants(path)
        if value in VERBS
    ]
    assert offenders == []


def _missing(text: str) -> list[str]:
    return [name for name in VERBS if not re.search(rf"`{name}\b", text)]


def test_wlm_doc_admin_row_names_every_verb():
    text = (REPO_ROOT / "docs" / "WLM.md").read_text()
    row = re.search(r"^\| `admin` \|.*$", text, re.M)
    assert row, "docs/WLM.md lost its admin classification row"
    assert _missing(row.group(0)) == []


def test_readme_management_bullet_names_every_verb():
    text = (REPO_ROOT / "README.md").read_text()
    bullet = re.search(
        r"^\* \*\*Management utilities\*\*.*?(?=^\* |^$)", text, re.M | re.S
    )
    assert bullet, "README lost its Management utilities bullet"
    assert _missing(bullet.group(0)) == []
