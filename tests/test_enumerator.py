import random

import pytest

from doubletrace import (
    EnumerationConfig,
    Graph,
    PartialTrace,
    RetainedSymmetries,
    SizeGuardError,
    SymmetryElement,
    admits_antiparallel_strong,
    admits_d_stable,
    admits_parallel_strong,
    apply_symmetry,
    automorphisms,
    brute_enumerate,
    canonical_extension,
    canonical_orbit_representatives,
    enumerate_traces,
    feasible_neighbors,
    is_canonical,
    is_double_trace,
    named_graph,
    normalize_base_edge,
    prune,
    satisfies_kind,
    satisfies_orientation,
)
from doubletrace.enumerator import (
    _accept,
    _kind_bound,
    _kind_lookahead_ok,
    _Search,
    extend_feasibly,
)

K4_STRONG = (0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3)


def build_partial(graph, seq):
    """Partial trace for an explicit prefix (no feasibility checking)."""
    pt = PartialTrace.initial(graph)
    assert tuple(seq[:2]) == (0, 1)
    for v in seq[2:]:
        pt.push(v)
    return pt


def make_search(graph, config, *, use_prune=True):
    """The search record enumerate_traces builds, with every acceleration on."""
    return _Search(
        graph,
        config,
        automorphisms(graph),
        2 * graph.m,
        _kind_bound(graph, config),
        use_prune,
        True,
    )


class TestPartialTrace:
    def test_initial_requires_base_edge(self):
        g = Graph(3, [(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="adjacent"):
            PartialTrace.initial(g)

    def test_push_updates_bookkeeping(self, triangle):
        pt = build_partial(triangle, (0, 1, 2, 0))
        assert pt.seq == [0, 1, 2, 0]
        assert pt.visits == [2, 1, 1]
        assert pt.edge_count[triangle.edge_id(0, 1)] == 1
        assert pt.edge_count[triangle.edge_id(1, 2)] == 1
        assert pt.edge_count[triangle.edge_id(0, 2)] == 1
        # First-traversal directions.
        assert pt.edge_from[triangle.edge_id(1, 2)] == 1
        assert pt.edge_from[triangle.edge_id(0, 2)] == 2
        # Moving 0 -> 1 -> 2 completed the pair {0, 2} at vertex 1, and
        # 1 -> 2 -> 0 the pair {1, 0} at vertex 2; the walk has not closed
        # at vertex 0.
        idx = triangle.nbr_index[1]
        assert pt.tmask[1][idx[0]] == 1 << idx[2]
        assert pt.tmask[1][idx[2]] == 1 << idx[0]
        assert pt.pdeg[1] == [1, 1]
        assert pt.pdeg[2] == [1, 1]
        assert pt.pdeg[0] == [0, 0]

    def test_pop_restores_everything(self, k4):
        def snapshot(pt):
            return (
                list(pt.seq),
                list(pt.edge_count),
                list(pt.edge_from),
                list(pt.visits),
                [list(x) for x in pt.tmask],
                [list(x) for x in pt.pdeg],
                pt.closing,
            )

        # Leaving 0 on its third visit forces the closing vertex 3.
        pt = build_partial(k4, (0, 1, 2, 0, 1, 3, 0))
        before = snapshot(pt)
        pt.push(2)
        assert pt.closing == 3
        pt.push(3)
        pt.pop()
        assert pt.closing == 3
        pt.pop()
        assert snapshot(pt) == before

    def test_closing_vertex_forced_on_last_departure_from_0(self, k4, path3):
        # K4: 0 has degree 3.  After 0,1,0,2,1,2,3,0 its third visit is
        # open; leaving it for 3 spends the edge {0,3}, so the one
        # traversal left at 0 is on {0,2}: every completion ends 2, 0.
        pt = build_partial(k4, (0, 1, 0, 2, 1, 2, 3, 0))
        assert pt.closing == -1
        pt.push(3)
        assert pt.closing == 2
        # When 0 is a leaf the walk leaves it once, at the root.
        assert PartialTrace.initial(path3).closing == 1
        assert PartialTrace.initial(Graph(2, [(0, 1)])).closing == 1

    def test_len(self, triangle):
        assert len(build_partial(triangle, (0, 1, 2))) == 3


class TestFeasibleNeighbors:
    def test_open_start_allows_whole_neighborhood(self, k4):
        # At length 2 only adjacency and edge capacity constrain the step,
        # even for strong enumeration.
        pt = PartialTrace.initial(k4)
        assert feasible_neighbors(pt, EnumerationConfig(kind="strong")) == [0, 2, 3]

    def test_exhausted_edges_block(self, triangle):
        # After 0,1,0 the edge {0,1} is used twice; only 2 remains.
        pt = build_partial(triangle, (0, 1, 0))
        assert feasible_neighbors(pt, EnumerationConfig()) == [2]

    def test_parallel_repeats_first_direction(self, triangle):
        # The edge {1,2} was first taken 1 -> 2, so its second traversal
        # under parallel orientation must again run 1 -> 2.
        pt = build_partial(triangle, (0, 1, 2, 0, 1))
        assert feasible_neighbors(pt, EnumerationConfig(orientation="parallel")) == [2]
        # Here {1,2} was first taken 2 -> 1; stepping 1 -> 2 would repeat
        # it in the opposite direction, which parallel forbids.
        pt2 = build_partial(triangle, (0, 1, 0, 2, 1))
        assert feasible_neighbors(pt2, EnumerationConfig(orientation="parallel")) == []

    def test_antiparallel_reverses_first_direction(self, triangle):
        pt = build_partial(triangle, (0, 1, 0, 2, 1))
        assert feasible_neighbors(pt, EnumerationConfig(orientation="antiparallel")) == [2]
        pt2 = build_partial(triangle, (0, 1, 2, 0, 1))
        assert feasible_neighbors(pt2, EnumerationConfig(orientation="antiparallel")) == []

    def test_completing_visit_accepts_connected(self, k4):
        # Leaving vertex 1 for the third (= last) time completes its
        # transition structure.  The prefix below gives it the pairs
        # {0,2}, {0,3}; stepping 1 -> 2 adds {3,2}, which connects
        # everything, so the kind lookahead keeps the step.
        pt = build_partial(k4, (0, 1, 2, 0, 1, 3, 0, 2, 3, 1))
        assert feasible_neighbors(pt, EnumerationConfig(kind="strong")) == [2]
        assert feasible_neighbors(pt, EnumerationConfig()) == [2]
        cfg = EnumerationConfig(kind="strong")
        assert _kind_lookahead_ok(pt, 2, _kind_bound(k4, cfg))

    def test_completing_visit_rejects_split(self, triangle):
        # Leaving vertex 1 for the second (= last) time here closes its
        # transition structure with the pairs {0,0} and {2,2}: two
        # singleton repetitions.  `feasible_neighbors` checks no kind, so
        # it allows the step for every kind; the kind lookahead rejects it
        # for strong enumeration and for 1-stability (the repetitions have
        # only one element).
        pt = build_partial(triangle, (0, 1, 0, 2, 1))
        strong = EnumerationConfig(kind="strong")
        stable1 = EnumerationConfig(kind="stable", d=1)
        for cfg in (EnumerationConfig(), strong, stable1):
            assert feasible_neighbors(pt, cfg) == [2]
        for cfg in (strong, stable1):
            assert not _kind_lookahead_ok(pt, 2, _kind_bound(triangle, cfg))

    def test_last_steps_of_known_trace(self, k4):
        # The final two steps of a full strong trace stay feasible; the
        # closing step back to vertex 0 is decided at the leaf.
        pt = build_partial(k4, K4_STRONG[:10])
        assert feasible_neighbors(pt, EnumerationConfig(kind="strong")) == [2]
        pt.push(2)
        assert feasible_neighbors(pt, EnumerationConfig(kind="strong")) == [3]

    def test_reserved_closing_step_is_not_offered(self, triangle):
        # After 0,1,0,2 the one traversal left at 0 is the closing step
        # 2 -> 0, so stepping there now would strand the walk at 0.
        pt = build_partial(triangle, (0, 1, 0, 2))
        assert pt.closing == 2
        for cfg in (EnumerationConfig(), EnumerationConfig(orientation="antiparallel")):
            assert feasible_neighbors(pt, cfg) == [1]
        pt.push(1)
        assert feasible_neighbors(pt, EnumerationConfig()) == [2]

    def test_full_length_offers_only_the_closing_step(self, triangle):
        # At full length the one edge left with capacity leads back to
        # vertex 0.  Here it is {0,2}, first taken 0 -> 2.  It is the
        # reserved closing step, so no step is offered, and `_accept`
        # decides it: allowed for orientation any and antiparallel,
        # forbidden for parallel.
        prefix = (0, 1, 0, 2, 1, 2)
        for orientation, accepted in (("any", True), ("antiparallel", True), ("parallel", False)):
            cfg = EnumerationConfig(orientation=orientation)
            search = make_search(triangle, cfg)
            pt, rs = search.root()
            for v in prefix[2:]:
                pt.push(v)
                rs = prune(rs, pt)
            assert feasible_neighbors(pt, cfg) == []
            assert _accept(search, pt, rs) is accepted


class TestCanonicalExtension:
    def test_collapses_symmetric_candidates(self, k4):
        # The stabilizer of the base edge in Aut(K4) swaps 2 and 3, so
        # one of them represents both.
        pt = PartialTrace.initial(k4)
        rs = RetainedSymmetries.initial(automorphisms(k4), 12)
        assert canonical_extension(pt, [0, 2, 3], rs) == [0, 2]

    def test_unsorted_input(self, k4):
        pt = PartialTrace.initial(k4)
        rs = RetainedSymmetries.initial(automorphisms(k4), 12)
        assert canonical_extension(pt, [3, 0, 2], rs) == [0, 2]

    def test_singleton(self, k4):
        pt = PartialTrace.initial(k4)
        rs = RetainedSymmetries.initial(automorphisms(k4), 12)
        assert canonical_extension(pt, [2], rs) == [2]

    def test_trivial_stabilizer_keeps_all(self, k4):
        # After 0,1,2 no nontrivial automorphism fixes the prefix, so no
        # candidates collapse.
        pt = build_partial(k4, (0, 1, 2))
        rs = prune(RetainedSymmetries.initial(automorphisms(k4), 12), pt)
        assert canonical_extension(pt, [0, 1, 3], rs) == [0, 1, 3]


class TestRetainedSymmetries:
    def test_initial_relabels_fix_base_edge(self, k4):
        rs = RetainedSymmetries.initial(automorphisms(k4), 12)
        assert all(p[0] == 0 and p[1] == 1 for p in rs.relabels)
        # The stabilizer of the ordered pair (0, 1) in Aut(K4) = S4 is
        # exactly {identity, swap 2 and 3}.
        assert sorted(rs.relabels) == [(0, 1, 2, 3), (0, 1, 3, 2)]

    def test_prune_narrows_relabels(self, k4):
        rs = RetainedSymmetries.initial(automorphisms(k4), 12)
        pt = build_partial(k4, (0, 1, 2))
        rs2 = prune(rs, pt)
        assert rs2.smaller_witness is None
        assert rs2.relabels == ((0, 1, 2, 3),)

    def test_prune_finds_relabel_witness(self, k4):
        # Swapping 2 and 3 maps the prefix 0,1,3 to the smaller 0,1,2.
        rs = RetainedSymmetries.initial(automorphisms(k4), 12)
        pt = build_partial(k4, (0, 1, 3))
        w = prune(rs, pt).smaller_witness
        assert w == SymmetryElement((0, 1, 3, 2), 0, False)
        assert apply_symmetry(w, (0, 1, 3)) == (0, 1, 2)

    def test_prune_finds_reversal_witness(self, triangle):
        # Reading 0,1,2,1 backwards from its end and relabelling 1 to 0
        # yields 0,1,0,...: strictly smaller, so no completion of this
        # prefix can be canonical.
        rs = RetainedSymmetries.initial(automorphisms(triangle), 6)
        pt = PartialTrace.initial(triangle)
        for v in (2, 1):
            pt.push(v)
            rs = prune(rs, pt)
        assert rs.smaller_witness == SymmetryElement((2, 0, 1), 3, True)

    def test_prune_finds_forward_witness(self, k4):
        # Read forwards from w_3 = 2 and relabelled by (2, 3, 0, 1), the
        # prefix 0,1,0,2,3,2,0,3 gives 0,1,0,2,1: smaller than 0,1,0,2,3
        # at the step that pushes the last 3, and no earlier.
        prefix = (0, 1, 0, 2, 3, 2, 0, 3)
        rs = RetainedSymmetries.initial(automorphisms(k4), 12)
        pt = PartialTrace.initial(k4)
        for v in prefix[2:]:
            assert rs.smaller_witness is None
            pt.push(v)
            rs = prune(rs, pt)
        w = rs.smaller_witness
        assert w == SymmetryElement((2, 3, 0, 1), 3, False)
        assert [w.perm[x] for x in prefix[3:]] == [0, 1, 0, 2, 1]

    def test_prune_finds_end_anchored_witness(self, k4):
        # Leaving 0 for the last time with the push of the final 3 forces
        # the walk's end: w_11 = 2.  Read backwards from w_5 = 2 and
        # relabelled by (2, 1, 0, 3), the prefix gives 0,1,0,2,1,2 and
        # then perm[2] = 0, smaller than w_6 = 3.  No earlier push knows
        # w_11, so none finds a witness.
        prefix = (0, 1, 0, 2, 1, 2, 3, 0, 3)
        rs = RetainedSymmetries.initial(automorphisms(k4), 12)
        pt = PartialTrace.initial(k4)
        for v in prefix[2:]:
            assert rs.smaller_witness is None
            pt.push(v)
            rs = prune(rs, pt)
        assert pt.closing == 2
        w = rs.smaller_witness
        assert w == SymmetryElement((2, 1, 0, 3), 7, True)
        assert [w.perm[x] for x in prefix[5::-1]] + [w.perm[2]] == [0, 1, 0, 2, 1, 2, 0]

    def test_canonical_prefixes_have_no_witness(self, triangle):
        rs = RetainedSymmetries.initial(automorphisms(triangle), 6)
        pt = PartialTrace.initial(triangle)
        for v in (0, 2, 1, 2):
            pt.push(v)
            rs = prune(rs, pt)
            assert rs.smaller_witness is None

    @pytest.mark.parametrize(
        "fixture,prefix,witnessed",
        [("k4", (0, 1, 2, 0, 1, 3), False), ("triangle", (0, 1, 2, 1), True)],
        ids=["k4", "triangle-witnessed"],
    )
    def test_relabels_are_the_prefix_stabilizer(self, request, fixture, prefix, witnessed):
        # After every prune the stored relabellings are exactly the
        # automorphisms fixing each prefix vertex, also on the triangle
        # prefix 0,1,2,1, where prune finds a witness.
        graph = request.getfixturevalue(fixture)
        aut = automorphisms(graph)
        rs = RetainedSymmetries.initial(aut, 2 * graph.m)
        pt = PartialTrace.initial(graph)
        for v in prefix[2:]:
            pt.push(v)
            rs = prune(rs, pt)
            expected = {p for p in aut.elements if all(p[w] == w for w in pt.seq)}
            assert set(rs.relabels) == expected
        assert (rs.smaller_witness is not None) == witnessed


class TestExtendFeasibly:
    def test_frontier_in_search_order(self, k4):
        search = make_search(k4, EnumerationConfig(kind="strong"))
        pt, rs = search.root()
        # The kind lookahead cuts 0,1,0: pairing 0 with itself at vertex 1
        # fills both pair slots of 0 there, leaving {0} a repetition.
        assert extend_feasibly(pt, rs, search, 3) == [(0, 1, 2)]
        assert extend_feasibly(pt, rs, search, 4) == [(0, 1, 2, 0), (0, 1, 2, 3)]
        frontier = extend_feasibly(pt, rs, search, 6)
        assert frontier == sorted(frontier)
        assert pt.seq == [0, 1]
        # The frontier covers the output.
        traces = enumerate_traces(k4, EnumerationConfig(kind="strong"))
        assert {w[:6] for w in traces} <= set(frontier)

    def test_pruned_children_are_dropped(self, triangle):
        # From 0,1,2 the only extensions are 0 and 1, and 0,1,2,1 is
        # killed by its reversal witness.
        search = make_search(triangle, EnumerationConfig())
        pt, rs = search.root()
        pt.push(2)
        rs = prune(rs, pt)
        assert extend_feasibly(pt, rs, search, 4) == [(0, 1, 2, 0)]
        assert pt.seq == [0, 1, 2]

    def test_prune_disabled_keeps_them(self, triangle):
        search = make_search(triangle, EnumerationConfig(), use_prune=False)
        pt, rs = search.root()
        pt.push(2)
        assert extend_feasibly(pt, rs, search, 4) == [(0, 1, 2, 0), (0, 1, 2, 1)]


# Frontier sizes at depths 3 .. 2m - 1 of the full search (every
# acceleration on).  A change to any cut that alters the search tree
# shows up here.  The second list holds the widths from before the
# search anchored the walk's end on the forced closing vertex; a cut can
# only remove prefixes, so no width may exceed its old value at the same
# depth.
SEARCH_TREE_WIDTHS = [
    (
        "tetrahedron",
        None,
        EnumerationConfig(kind="strong"),
        [1, 2, 3, 4, 5, 6, 6, 5, 5],
        [1, 2, 3, 4, 5, 6, 6, 9, 5],
    ),
    (
        "prism",
        3,
        EnumerationConfig(kind="strong"),
        [2, 4, 6, 10, 14, 23, 30, 38, 47, 45, 47, 48, 44, 46, 41],
        [2, 4, 6, 10, 14, 23, 31, 43, 51, 63, 61, 76, 74, 77, 47],
    ),
    (
        "prism",
        3,
        EnumerationConfig(kind="stable", d=1, orientation="antiparallel"),
        [2, 4, 5, 8, 10, 12, 14, 15, 15, 16, 14, 11, 7, 3, 2],
        [2, 4, 5, 8, 10, 12, 14, 16, 18, 23, 25, 24, 18, 16, 7],
    ),
    (
        "pyramid",
        4,
        EnumerationConfig(kind="stable", d=2),
        [2, 5, 10, 15, 26, 43, 61, 84, 109, 125, 114, 102, 91],
        [2, 5, 10, 15, 26, 44, 64, 94, 143, 175, 221, 253, 209],
    ),
    (
        "tetrahedron",
        None,
        EnumerationConfig(),
        [2, 3, 6, 11, 20, 30, 41, 46, 42],
        [2, 3, 6, 11, 21, 30, 47, 62, 60],
    ),
]


@pytest.mark.parametrize(
    "name,k,cfg,widths,widths_before",
    SEARCH_TREE_WIDTHS,
    ids=[
        "tetrahedron-strong",
        "prism3-strong",
        "prism3-stable1-antiparallel",
        "pyramid4-stable2",
        "tetrahedron-any",
    ],
)
def test_search_tree_widths_are_pinned(name, k, cfg, widths, widths_before):
    graph = named_graph(name, k)
    search = make_search(graph, cfg)
    pt, rs = search.root()
    got = [len(extend_feasibly(pt, rs, search, d)) for d in range(3, 2 * graph.m)]
    assert got == widths
    assert len(got) == len(widths_before)
    assert all(new <= old for new, old in zip(got, widths_before))


TRIANGLE_EXPECTED = {
    ("any", None, "any"): [(0, 1, 0, 2, 1, 2), (0, 1, 2, 0, 1, 2)],
    ("any", None, "parallel"): [(0, 1, 2, 0, 1, 2)],
    ("any", None, "antiparallel"): [(0, 1, 0, 2, 1, 2)],
    ("strong", None, "any"): [(0, 1, 2, 0, 1, 2)],
    ("strong", None, "antiparallel"): [],
    ("stable", 1, "any"): [(0, 1, 2, 0, 1, 2)],
}


class TestEnumerateTraces:
    @pytest.mark.parametrize(
        "key,expected", sorted(TRIANGLE_EXPECTED.items(), key=str)
    )
    def test_triangle_values(self, triangle, key, expected):
        kind, d, orientation = key
        cfg = EnumerationConfig(kind=kind, d=d, orientation=orientation)
        assert enumerate_traces(triangle, cfg) == expected

    def test_single_edge_graph(self):
        g = Graph(2, [(0, 1)])
        assert enumerate_traces(g) == [(0, 1)]
        assert enumerate_traces(g, EnumerationConfig(kind="strong")) == [(0, 1)]
        assert enumerate_traces(g, EnumerationConfig(orientation="parallel")) == []
        assert enumerate_traces(g, EnumerationConfig(orientation="antiparallel")) == [(0, 1)]
        assert enumerate_traces(g, EnumerationConfig(kind="stable", d=1)) == [(0, 1)]

    def test_output_sorted_unique_and_rooted(self, k4):
        out = enumerate_traces(k4)
        assert out == sorted(set(out))
        assert all(w[:2] == (0, 1) for w in out)

    def test_outputs_pass_all_predicates(self, prism3):
        cfg = EnumerationConfig(kind="stable", d=1)
        aut = automorphisms(prism3)
        out = enumerate_traces(prism3, cfg)
        assert out
        for w in out:
            assert is_double_trace(prism3, w)
            assert satisfies_kind(prism3, w, cfg)
            assert satisfies_orientation(prism3, w, cfg)
            assert is_canonical(prism3, w, aut)

    def test_requires_base_edge(self):
        g = Graph(3, [(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="adjacent"):
            enumerate_traces(g)

    def test_warns_when_d_exceeds_min_degree(self, triangle):
        with pytest.warns(UserWarning, match="minimum degree"):
            enumerate_traces(triangle, EnumerationConfig(kind="stable", d=3))

    @pytest.mark.parametrize(
        "flags",
        [
            {"use_prune": False},
            {"use_canonical_extension": False},
            {"use_prune": False, "use_canonical_extension": False},
        ],
    )
    def test_disabling_accelerations_keeps_output(self, flags):
        for graph in (named_graph("tetrahedron"), named_graph("prism", 3)):
            for cfg in (
                EnumerationConfig(),
                EnumerationConfig(kind="strong"),
                EnumerationConfig(kind="stable", d=1, orientation="antiparallel"),
            ):
                assert enumerate_traces(graph, cfg, **flags) == enumerate_traces(graph, cfg)

    def test_parallel_jobs_match_serial(self, prism3):
        cfg = EnumerationConfig(kind="strong")
        assert enumerate_traces(prism3, cfg, jobs=2) == enumerate_traces(prism3, cfg)

    def test_parallel_jobs_any_kind(self, k4):
        assert enumerate_traces(k4, jobs=3) == enumerate_traces(k4)

    def test_precomputed_aut_accepted(self, k4):
        aut = automorphisms(k4)
        assert enumerate_traces(k4, aut=aut) == enumerate_traces(k4)


def random_graphs(seed, count):
    """Connected graphs with 6 <= m <= 10, minimum degree 2 and at most
    four independent cycles (more make the oracle too slow), base edge
    normalized."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(6, 10)
        n = rng.randint(max(m - 3, 5), m)
        labels = list(range(n))
        rng.shuffle(labels)
        # A random spanning tree, then random chords.
        edges = {
            tuple(sorted((labels[v], labels[rng.randrange(v)]))) for v in range(1, n)
        }
        while len(edges) < m:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        graph = Graph(n, sorted(edges))
        if graph.min_degree() >= 2:
            out.append(normalize_base_edge(graph)[0])
    return out


ALL_CONFIGS = [
    EnumerationConfig(kind=kind, d=d, orientation=orientation)
    for kind, d in (("any", None), ("strong", None), ("stable", 1), ("stable", 2))
    for orientation in ("any", "parallel", "antiparallel")
]


LEAF_CHECK_GRAPHS = [
    named_graph("tetrahedron"),
    named_graph("prism", 3),
    named_graph("pyramid", 4),
] + random_graphs(3, 6)


@pytest.mark.parametrize("graph", LEAF_CHECK_GRAPHS)
def test_leaf_check_matches_is_canonical(graph):
    # Replay every double trace starting 0 1 through `prune` and `_accept`,
    # past any witness, as the search does with use_prune=False.  Sorted
    # traces share prefixes, so each step is pushed once per subtree.
    search = make_search(graph, EnumerationConfig(), use_prune=False)
    pt, rs = search.root()
    stack = [rs]
    verdicts = set()
    for w in sorted(brute_enumerate(graph, EnumerationConfig())):
        common = 2
        while common < len(pt.seq) and pt.seq[common] == w[common]:
            common += 1
        while len(pt.seq) > common:
            pt.pop()
            stack.pop()
        for v in w[common:]:
            pt.push(v)
            stack.append(prune(stack[-1], pt))
        accepted = _accept(search, pt, stack[-1])
        assert accepted == is_canonical(graph, w, search.aut), w
        verdicts.add(accepted)
    assert verdicts == {True, False}


@pytest.mark.parametrize("graph", random_graphs(3, 6))
def test_random_graphs_serial_and_parallel_match_oracle(graph):
    for cfg in ALL_CONFIGS:
        expected = canonical_orbit_representatives(graph, cfg)
        assert enumerate_traces(graph, cfg) == expected, cfg.describe()
        assert enumerate_traces(graph, cfg, jobs=2) == expected, cfg.describe()


def with_pendant_start(graph):
    """The graph with a new vertex 0 hung on its vertex 0, renumbered 1."""
    return Graph(graph.n + 1, [(0, 1)] + [(u + 1, v + 1) for u, v in graph.edges])


# Graphs whose vertex 0 is a leaf, so the walk's end, 1 then 0, is forced
# from the root.  `random_graphs` never makes one (minimum degree 2).
PENDANT_START_GRAPHS = {
    "P3": Graph(3, [(0, 1), (1, 2)]),
    "K13-leaf": Graph(4, [(0, 1), (1, 2), (1, 3)]),
    "triangle+pendant": with_pendant_start(Graph(3, [(0, 1), (0, 2), (1, 2)])),
    "K4+pendant": with_pendant_start(named_graph("tetrahedron")),
    "house+pendant": with_pendant_start(
        Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    ),
}


@pytest.mark.filterwarnings("ignore:stable")
@pytest.mark.parametrize(
    "graph", PENDANT_START_GRAPHS.values(), ids=PENDANT_START_GRAPHS.keys()
)
def test_pendant_start_vertex_serial_and_parallel_match_oracle(graph):
    assert graph.degree(0) == 1
    for cfg in ALL_CONFIGS:
        expected = canonical_orbit_representatives(graph, cfg)
        assert enumerate_traces(graph, cfg) == expected, cfg.describe()
        assert enumerate_traces(graph, cfg, jobs=2) == expected, cfg.describe()


class TestFeasibilityPredicates:
    def test_parallel_strong_needs_even_degrees(self):
        assert admits_parallel_strong(named_graph("octahedron"))
        assert admits_parallel_strong(Graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert not admits_parallel_strong(named_graph("tetrahedron"))
        assert not admits_parallel_strong(named_graph("cube"))

    def test_d_stable_needs_min_degree(self, k4):
        assert admits_d_stable(k4, 1)
        assert admits_d_stable(k4, 3)
        assert not admits_d_stable(k4, 4)
        with pytest.raises(ValueError):
            admits_d_stable(k4, 0)

    @pytest.mark.parametrize(
        "name,k,expected",
        [
            ("tetrahedron", None, False),
            ("prism", 3, True),
            ("prism", 4, False),
            ("prism", 5, True),
            ("pyramid", 4, True),
            ("bipyramid", 3, False),
            ("octahedron", None, False),
            ("cube", None, False),
        ],
    )
    def test_antiparallel_strong_spanning_tree(self, name, k, expected):
        assert admits_antiparallel_strong(named_graph(name, k)) is expected

    def test_antiparallel_triangle(self, triangle):
        # The co-tree of any spanning tree is a single edge: always odd.
        assert not admits_antiparallel_strong(triangle)

    def test_antiparallel_size_guard(self):
        with pytest.raises(SizeGuardError, match="refuses"):
            admits_antiparallel_strong(named_graph("prism", 7))
        # An explicit larger budget lifts the refusal.
        assert admits_antiparallel_strong(named_graph("prism", 7), max_edges=21)
