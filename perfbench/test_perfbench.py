"""Checks of the benchmark itself: `python3 -m pytest perfbench` from the repo root.

The determinism test runs traced rows twice each and takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, Untraced  # noqa: E402

# Counts of the seed-0 (reference label) search: (workload, row) -> counts.
PINNED = {
    ("strong-tables", "octahedron.strong"): {
        "nodes": 558401, "expansions": 459830, "leaves": 57796,
        "is_canonical.rejects": 36317, "traces": 21479},
    ("strong-tables", "prism-6.strong"): {
        "leaves": 14268, "is_canonical.rejects": 10664, "traces": 3604},
    ("double-stable-cli", "pyramid-6.stable2"): {
        "satisfies_kind.rejects": 3338, "traces": 8568},
}


def traced_counts(workload: str, name: str) -> dict[str, int]:
    tracer = Tracer()
    (row,) = [r for r in workloads.build_rows(workload, 0, False, tracer) if r.name == name]
    tracer.install()
    try:
        result = workloads.run_row(row, tracer)
    finally:
        tracer.uninstall()
    assert result.error is None, result.error
    layers = workloads.layer_metrics(tracer, [result])
    stages = tracer.stage_totals(row=name)
    return {
        "nodes": layers["enumerator.nodes"],
        "expansions": layers["enumerator.expansions"],
        "leaves": layers["enumerator.leaves"],
        "is_canonical.rejects": stages["traces.is_canonical"][2],
        "satisfies_kind.rejects": stages["traces.satisfies_kind"][2],
        "traces": result.traces,
    }


@pytest.mark.parametrize("workload,name", sorted(PINNED))
def test_traced_counts_repeat_and_match_pinned(workload, name):
    first = traced_counts(workload, name)
    second = traced_counts(workload, name)
    assert first == second
    assert {k: first[k] for k in PINNED[workload, name]} == PINNED[workload, name]


def test_tracer_restores_the_package():
    import doubletrace.cli
    import doubletrace.enumerator

    before = dict(vars(doubletrace.enumerator)), dict(vars(doubletrace.cli))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert (dict(vars(doubletrace.enumerator)), dict(vars(doubletrace.cli))) == before


def test_stage_outside_a_search_is_refused():
    tracer = Tracer()
    with tracer.row("cube.strong"):
        tracer.stage["traces.is_canonical"][0] += 1  # as if called outside enumerate_traces
    with pytest.raises(RuntimeError, match="outside enumerate_traces"):
        workloads.layer_metrics(tracer, [])


def test_corrupted_expected_count_fails_the_row(monkeypatch):
    import doubletrace.cli

    corrupted = [
        (table, spec, strong + 1 if spec == "tetrahedron" else strong, orientation, count, slow)
        for table, spec, strong, orientation, count, slow in doubletrace.cli._TABLE_ROWS
    ]
    monkeypatch.setattr(doubletrace.cli, "_TABLE_ROWS", corrupted)
    rows = workloads.build_rows("strong-tables", 0, False, Untraced())
    (row,) = [r for r in rows if r.name == "tetrahedron.strong"]
    assert workloads.run_row(row, Untraced()).error == "3 traces, expected 4"


def test_relabelled_rows_pass_the_full_check():
    rows = workloads.build_rows("strong-tables", 7, True, Untraced())
    for row in rows:
        if row.name in ("prism-5.strong", "bipyramid-3.strong", "prism-3.strong-antiparallel"):
            assert row.full_check
            assert workloads.run_row(row, Untraced()).error is None


def test_failed_row_makes_the_run_fail(monkeypatch, capsys):
    def fake_pass(args, deadline, *, trace=False, setup_only=False):
        return {"setup_s": 0.1, "peak_rss_mb": 30.0, "rows": [
            {"name": "cube.strong", "seconds": 1.0, "cpu_s": 1.0, "worker_cpu_s": 0.0,
             "traces": 39, "output_bytes": 0, "error": "39 traces, expected 40"}]}

    monkeypatch.setattr(run, "run_pass", fake_pass)
    code = run.main(["--workload", "strong-tables", "--seed", "0", "--seconds", "0",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_exits_without_result_when_the_package_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "strong-tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
