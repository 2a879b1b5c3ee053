"""The benchmark's traced run wraps enumerator functions by name.

`perfbench/tracing.py` swaps wrappers in for module attributes of
`doubletrace.enumerator` (`prune`, `feasible_neighbors`,
`canonical_extension`, ...) and reads `smaller_witness` off what `prune`
returns.  A refactor that renames one of them, or calls it other than
through the module global, breaks `perfbench/run.py --trace 1` without
failing anything else here, so this test runs the tracer, unchanged, on
one small search.

The tracer has no stage for the kind lookahead: it reads
`enumerator.lookahead.cut` as the gap between the candidates
`feasible_neighbors` returns and those `canonical_extension` receives.
A filter that moved out of that gap would make the metric read 0, so
the gap is pinned here too.
"""

import importlib.util
from pathlib import Path

import pytest

import doubletrace.enumerator as enumerator
from doubletrace import EnumerationConfig, enumerate_traces, named_graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_hot_stages_and_keeps_the_output():
    k4 = named_graph("tetrahedron")
    cfg = EnumerationConfig(kind="strong")
    expected = enumerate_traces(k4, cfg)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        got = enumerate_traces(k4, cfg)
    finally:
        tracer.uninstall()
    assert got == expected
    totals = tracer.stage_totals()
    for stage in ("enumerator.prune", "enumerator.feasible_neighbors", "enumerator.canonical_extension"):
        assert totals[stage][0] > 0, stage
    # The witness count reads `smaller_witness` off what `prune` returns.
    assert totals["enumerator.prune"][2] > 0
    # Uninstalled: the next search runs the originals again.
    enumerate_traces(k4, cfg)
    assert tracer.stage_totals() == totals


@pytest.mark.parametrize(
    "graph,cfg,cut",
    [
        (named_graph("tetrahedron"), EnumerationConfig(kind="strong"), 25),
        (named_graph("pyramid", 4), EnumerationConfig(kind="stable", d=2), 402),
    ],
    ids=["tetrahedron-strong", "pyramid4-stable2"],
)
def test_lookahead_cut_is_the_gap_the_tracer_reads(monkeypatch, graph, cfg, cut):
    # Count the steps the search's lookahead refuses: below full length,
    # since `_accept` runs it on the closing pairs of the leaves.
    refused = []
    original = enumerator._kind_lookahead_ok

    def counting(partial, a, u, v, bound):
        ok = original(partial, a, u, v, bound)
        if not ok and len(partial) < 2 * graph.m:
            refused.append((tuple(partial.seq), v))
        return ok

    monkeypatch.setattr(enumerator, "_kind_lookahead_ok", counting)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        enumerate_traces(graph, cfg)
    finally:
        tracer.uninstall()
    totals = tracer.stage_totals()
    gap = totals["enumerator.feasible_neighbors"][2] - totals["enumerator.canonical_extension"][2]
    assert gap == len(refused) == cut
