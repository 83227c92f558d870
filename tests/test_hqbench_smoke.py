"""The CI gate over an hqbench smoke's JSON result line."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "hqbench_smoke.py"
spec = importlib.util.spec_from_file_location("hqbench_smoke", SCRIPT)
hqbench_smoke = importlib.util.module_from_spec(spec)
spec.loader.exec_module(hqbench_smoke)


def output(**result) -> str:
    return "== hqbench tick_ingest\n   notes\n" + json.dumps(result) + "\n"


def test_passes_correct_run_without_failures():
    assert hqbench_smoke.verdict(
        output(correct=True, attempted=40, failed=0, metrics={})
    ) is None


@pytest.mark.parametrize("result", [
    {"correct": False, "attempted": 40, "failed": 0},
    {"correct": True, "attempted": 40, "failed": 1},
    {"attempted": 40, "failed": 0},
])
def test_fails_wrong_answers_or_failed_ops(result):
    assert hqbench_smoke.verdict(output(**result)) is not None


@pytest.mark.parametrize("text", ["", "== hqbench x\nsummary only\n"])
def test_fails_without_a_result_line(text):
    assert hqbench_smoke.verdict(text) == "no JSON result line"
