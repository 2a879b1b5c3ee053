"""The benchmark's traced run wraps enumerator functions by name.

`perfbench/tracing.py` swaps wrappers in for module attributes of
`doubletrace.enumerator` (`prune`, `feasible_neighbors`,
`canonical_extension`, ...) and reads `smaller_witness` off what `prune`
returns.  A refactor that renames one of them, or calls it other than
through the module global, breaks `perfbench/run.py --trace 1` without
failing anything else here, so this test runs the tracer, unchanged, on
one small search.
"""

import importlib.util
from pathlib import Path

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
