"""Every committed benchmark record pairs a before and an after run.

A speed claim cites a ``BENCH_<workload>.json`` written from two
``perfbench/run.py`` results of one workload on one machine; a run that
failed a check or a command is no evidence.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_before_and_after_runs_are_clean_and_comparable(path):
    record = json.loads(path.read_text())
    workload = path.stem.removeprefix("BENCH_")
    for side in ("before", "after"):
        run = record[side]
        assert run["correct"] is True, side
        assert run["failed"] == 0, side
        assert run["workload"] == workload, side
        assert isinstance(run["env"], dict) and run["env"], side
