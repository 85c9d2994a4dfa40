"""Smoke test of the benchmark at a tiny size.

Every workload, untraced and traced, must pass its own correctness checks
and report exactly the metrics that BENCHMARK.json lists for that mode.
"""

import json
from pathlib import Path

import pytest

import run

LISTED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_at_tiny_size(name, trace):
    result = run.run_workload(name, seed=3, seconds=0.1, trace=trace, reps=1, pool=6)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= 6
    listed = LISTED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: m["unit"] for k, m in result["metrics"].items()}


def test_mismatching_rows_are_reported():
    report = run.harness.Report(rows=[run.harness.ReportRow(
        id="p0000", method="macm", outcome={"kind": "solved", "answer": "1"}, correct=True,
        queries=7, wall_ms=0, transcript_path="transcripts/p0000.jsonl")])
    assert run.row_mismatches(report, {"p0000": ("solved", True, 7)}) == []
    assert run.row_mismatches(report, {"p0000": ("solved", True, 8)})
    assert run.row_mismatches(report, {"p0000": ("solved", False, 7)})
