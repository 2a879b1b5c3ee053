"""End-to-end acceptance checks.

Every block below prints exactly one [PASS]/[FAIL] summary line (visible
with pytest -s, or in the captured output on failure), so a run of this
file reads as a checklist: exact reference counts for the built-in graph
families, orbit statistics on the tetrahedron, set equality between the
branch-and-bound enumerator and the brute-force oracle, structural
invariants of the outputs, and the feasibility shortcuts.

Rows that need long compute (dodecahedron, prisms of size 8 and up) run
only when the DOUBLETRACE_SLOW environment variable is set.
"""

import random
from contextlib import contextmanager

from doubletrace import (
    EnumerationConfig,
    Graph,
    admits_antiparallel_strong,
    admits_parallel_strong,
    apply_symmetry,
    automorphisms,
    brute_enumerate,
    enumerate_traces,
    is_canonical,
    is_double_trace,
    is_strong,
    named_graph,
    normalize_base_edge,
    orbit_partition,
    orientation_class,
    satisfies_kind,
    satisfies_orientation,
    symmetry_elements,
    symmetry_group_order,
    transition_components,
    verify_against_oracle,
)
from doubletrace.enumerator import ANTIPARALLEL_MAX_EDGES
from doubletrace.oracle import _raw_double_traces, _repetition_profiles

from conftest import run_slow

SLOW_NOTE = "slow rows skipped; set DOUBLETRACE_SLOW=1 to include them"


@contextmanager
def summary(name, note=""):
    suffix = f" ({note})" if note else ""
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}{suffix}")
        raise
    print(f"[PASS] {name}{suffix}")


def graph_of(spec):
    name, _, size = spec.partition(":")
    return named_graph(name, int(size) if size else None)


def strong_counts(spec, orientation):
    """(strong count, orientation-restricted strong count) for one graph."""
    graph = graph_of(spec)
    aut = automorphisms(graph)
    total = len(enumerate_traces(graph, EnumerationConfig(kind="strong"), aut=aut))
    restricted = len(
        enumerate_traces(
            graph,
            EnumerationConfig(kind="strong", orientation=orientation),
            aut=aut,
        )
    )
    return total, restricted


def check_rows(rows, orientation):
    failures = []
    for spec, expected_strong, expected_restricted in rows:
        got = strong_counts(spec, orientation)
        if got != (expected_strong, expected_restricted):
            failures.append(
                f"{spec}: got {got}, expected "
                f"({expected_strong}, {expected_restricted})"
            )
    assert not failures, "; ".join(failures)


def test_regular_solid_counts():
    rows = [("tetrahedron", 3, 0), ("cube", 40, 0), ("octahedron", 21479, 262)]
    note = SLOW_NOTE
    if run_slow():
        rows.append(("dodecahedron", 2532008, 0))
        note = ""
    with summary("regular solids: strong and parallel strong counts", note):
        check_rows(rows, "parallel")


def test_prism_counts():
    rows = [
        ("prism:3", 25, 2),
        ("prism:4", 40, 0),
        ("prism:5", 634, 10),
        ("prism:6", 3604, 0),
        ("prism:7", 21925, 76),
    ]
    note = SLOW_NOTE
    if run_slow():
        rows += [
            ("prism:8", 134008, 0),
            ("prism:9", 833685, 536),
            ("prism:10", 5212520, 0),
        ]
        note = ""
    with summary("prisms: strong and antiparallel strong counts", note):
        check_rows(rows, "antiparallel")


def test_pyramid_counts():
    rows = [("pyramid:4", 52, 4), ("bipyramid:3", 470, 0)]
    with summary("pyramid and bipyramid: strong and antiparallel strong counts"):
        check_rows(rows, "antiparallel")


def test_tetrahedron_orbit_statistics():
    with summary("tetrahedron: strong trace orbit statistics"):
        k4 = named_graph("tetrahedron")
        aut = automorphisms(k4)
        traces = brute_enumerate(k4, EnumerationConfig(kind="strong"), "all_starts")
        assert len(traces) == 672
        assert len(set(traces)) == 672
        assert symmetry_group_order(aut, 12) == 576

        full = orbit_partition(traces, aut, "gamma")
        assert full.sizes == [288, 288, 96]

        by_subgroup = {
            sg: orbit_partition(traces, aut, sg) for sg in ("aut", "reversal", "shift")
        }
        assert by_subgroup["aut"].size_counts() == {24: 28}
        assert by_subgroup["reversal"].size_counts() == {2: 336}
        assert by_subgroup["shift"].size_counts() == {12: 56}


ORACLE_GRAPHS = [
    ("triangle", Graph(3, [(0, 1), (0, 2), (1, 2)])),
    ("tetrahedron", named_graph("tetrahedron")),
    ("prism:3", named_graph("prism", 3)),
    ("pyramid:4", named_graph("pyramid", 4)),
    ("bipyramid:3", named_graph("bipyramid", 3)),
]
ORACLE_KINDS = [("any", None), ("strong", None), ("stable", 1), ("stable", 2)]
ORIENTATIONS = ["any", "parallel", "antiparallel"]


def test_enumerator_equals_oracle():
    with summary("oracle equivalence: 5 graphs x 4 kinds x 3 orientations"):
        mismatches = []
        for label, graph in ORACLE_GRAPHS:
            for kind, d in ORACLE_KINDS:
                for orientation in ORIENTATIONS:
                    cfg = EnumerationConfig(kind=kind, d=d, orientation=orientation)
                    report = verify_against_oracle(graph, cfg)
                    if not report.equal:
                        mismatches.append(f"{label} {cfg.describe()}")
        assert not mismatches, "; ".join(mismatches)


def _outputs_pass_predicates():
    cases = [
        (named_graph("tetrahedron"), EnumerationConfig(kind="strong")),
        (named_graph("prism", 3), EnumerationConfig(kind="stable", d=1, orientation="antiparallel")),
        (named_graph("pyramid", 4), EnumerationConfig(kind="strong", orientation="antiparallel")),
        (named_graph("prism", 3), EnumerationConfig()),
    ]
    for graph, cfg in cases:
        aut = automorphisms(graph)
        out = enumerate_traces(graph, cfg, aut=aut)
        assert out, f"empty output for {cfg.describe()}"
        for w in out:
            assert is_double_trace(graph, w)
            assert satisfies_kind(graph, w, cfg)
            assert satisfies_orientation(graph, w, cfg)
            assert is_canonical(graph, w, aut)


def _predicates_invariant_under_symmetry():
    rng = random.Random(20260823)
    pools = [
        (
            named_graph("tetrahedron"),
            brute_enumerate(
                named_graph("tetrahedron"), EnumerationConfig(kind="strong"), "all_starts"
            ),
        ),
        (named_graph("prism", 3), brute_enumerate(named_graph("prism", 3))),
    ]
    for graph, pool in pools:
        aut = automorphisms(graph)
        length = 2 * graph.m
        elements = list(symmetry_elements(aut, length))
        sample = [pool[rng.randrange(len(pool))] for _ in range(100)]
        for w in sample:
            # The second component of orientation_class lists directions
            # in trace order, which rotation may permute; only the label
            # is expected to be invariant.
            reference = (
                is_double_trace(graph, w),
                is_strong(graph, w),
                orientation_class(graph, w)[0],
            )
            for element in elements:
                image = apply_symmetry(element, w)
                assert (
                    is_double_trace(graph, image),
                    is_strong(graph, image),
                    orientation_class(graph, image)[0],
                ) == reference, f"predicates changed under {element}"


def _component_method_matches_subset_method():
    # Smallest repetition order per trace, computed once from transition
    # structure components and once (in the oracle) by scanning every
    # proper neighbourhood subset directly.
    cases = [
        (named_graph("tetrahedron"), "all_starts"),
        (named_graph("prism", 3), "simple_only"),
    ]
    for graph, scope in cases:
        traces = _raw_double_traces(graph, scope)
        profiles = _repetition_profiles(graph, scope)
        assert len(traces) > 1000
        for w, expected in zip(traces, profiles):
            best = graph.n
            for v in range(graph.n):
                comps = transition_components(graph, w, v)
                if len(comps) > 1:
                    best = min(best, min(len(c) for c in comps))
            assert best == expected, f"{w}: component {best} != subset {expected}"


def _counts_invariant_under_relabeling():
    rng = random.Random(4)
    k4 = named_graph("tetrahedron")
    for _ in range(3):
        perm = list(range(k4.n))
        rng.shuffle(perm)
        shuffled = Graph(k4.n, [(perm[u], perm[v]) for u, v in k4.edges])
        normalized, _ = normalize_base_edge(shuffled)
        assert len(enumerate_traces(normalized, EnumerationConfig(kind="strong"))) == 3
        assert len(enumerate_traces(normalized)) == 21


def test_structural_invariants():
    with summary(
        "structural invariants: output predicates, symmetry invariance, "
        "repetition cross-check, relabeling invariance"
    ):
        _outputs_pass_predicates()
        _predicates_invariant_under_symmetry()
        _component_method_matches_subset_method()
        _counts_invariant_under_relabeling()


def test_feasibility_predicates_match_counts():
    with summary("feasibility predicates match enumeration emptiness"):
        parallel_specs = [
            "tetrahedron", "cube", "octahedron", "dodecahedron",
            "prism:3", "prism:4", "prism:5", "prism:6", "prism:7",
            "pyramid:4", "bipyramid:3",
        ]
        for spec in parallel_specs:
            graph = graph_of(spec)
            count = len(
                enumerate_traces(
                    graph, EnumerationConfig(kind="strong", orientation="parallel")
                )
            )
            assert admits_parallel_strong(graph) == (count > 0), spec

        # The antiparallel predicate enumerates spanning trees, so only
        # graphs within its edge-count guard are checked.
        antiparallel_specs = [
            "tetrahedron", "cube", "octahedron",
            "prism:3", "prism:4", "prism:5",
            "pyramid:4", "bipyramid:3",
        ]
        for spec in antiparallel_specs:
            graph = graph_of(spec)
            assert graph.m <= ANTIPARALLEL_MAX_EDGES
            count = len(
                enumerate_traces(
                    graph, EnumerationConfig(kind="strong", orientation="antiparallel")
                )
            )
            assert admits_antiparallel_strong(graph) == (count > 0), spec
