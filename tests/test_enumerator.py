import multiprocessing
import random
import sys
import tracemalloc
import warnings

import pytest

from doubletrace import (
    EnumerationConfig,
    Graph,
    PartialTrace,
    SizeGuardError,
    SymmetryElement,
    admits_antiparallel_strong,
    admits_parallel_strong,
    apply_symmetry,
    automorphisms,
    brute_enumerate,
    canonical_extension,
    canonical_orbit_representatives,
    count_traces,
    enumerate_traces,
    feasible_neighbors,
    is_canonical,
    is_double_trace,
    named_graph,
    normalize_base_edge,
    satisfies_kind,
    satisfies_orientation,
)
from doubletrace import enumerator
from doubletrace.enumerator import (
    _accept,
    _kind_lookahead_ok,
    extend_feasibly,
    no_trace_reason,
)

K4_STRONG = (0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3)

# A search state under a kind bound keeps its transition paths.
STRONG = EnumerationConfig(kind="strong")


def build_partial(graph, seq, config=STRONG):
    """Partial trace for an explicit prefix (no feasibility checking)."""
    pt = PartialTrace(graph, automorphisms(graph), config)
    assert tuple(seq[:2]) == (0, 1)
    for v in seq[2:]:
        pt.push(v)
    return pt


def read_state(state):
    """A `snapshot` tuple as the search reads it: its third field,
    `edge_from`, only where its edge has been used."""
    seq, edge_count, edge_from, *rest = state
    return (seq, edge_count, [f if c else -1 for f, c in zip(edge_from, edge_count)], *rest)


class TestPartialTrace:
    def test_initial_requires_base_edge(self):
        g = Graph(3, [(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="adjacent"):
            PartialTrace(g, automorphisms(g), STRONG)

    def test_long_path_allocates_no_square_table(self):
        # A 600-vertex path has two automorphisms; an n x n table of
        # lists of them would take over 20 MB.
        n = 600
        graph = Graph(n, [(i, i + 1) for i in range(n - 1)])
        aut = automorphisms(graph)
        tracemalloc.start()
        try:
            pt = PartialTrace(graph, aut, STRONG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert pt._arc_index[0][1] == (aut.elements[0],)
        assert pt._arc_index[n - 1][n - 2] == (aut.elements[1],)
        assert pt._arc_index[1][0] == ()

    def test_arc_index_is_keyed_by_neighbour(self):
        # A 600-vertex cycle has 1 200 automorphisms, one per arc mapped
        # onto (0, 1); n-long rows for them would take 3.5 MB.
        n = 600
        graph = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        aut = automorphisms(graph)
        tracemalloc.start()
        try:
            pt = PartialTrace(graph, aut, STRONG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000
        assert sum(len(cell) for row in pt._arc_index for cell in row.values()) == aut.order
        assert all(list(pt._arc_index[u]) == list(graph.adj[u]) for u in range(n))

    def test_push_updates_bookkeeping(self, triangle):
        pt = build_partial(triangle, (0, 1, 2, 0))
        assert pt.seq == [0, 1, 2, 0]
        # 0 is visited twice but not left since, so the end is open.
        assert pt.closing == -1
        assert pt.edge_count[triangle.edge_id(0, 1)] == 1
        assert pt.edge_count[triangle.edge_id(1, 2)] == 1
        assert pt.edge_count[triangle.edge_id(0, 2)] == 1
        # First-traversal directions.
        assert pt.edge_from[triangle.edge_id(1, 2)] == 1
        assert pt.edge_from[triangle.edge_id(0, 2)] == 2
        # Moving 0 -> 1 -> 2 completed the pair {0, 2} at vertex 1, and
        # 1 -> 2 -> 0 the pair {1, 0} at vertex 2: each a path of two
        # neighbours, whose ends are mates.  The walk has not closed at
        # vertex 0, so there each neighbour is still unpaired.
        assert pt.mate[1] == {0: 2, 2: 0}
        assert pt.span[1] == {0: 2, 2: 2}
        assert pt.mate[2] == {0: 1, 1: 0}
        assert pt.span[2] == {0: 2, 1: 2}
        assert pt.mate[0] == {1: 1, 2: 2}
        assert pt.span[0] == {1: 1, 2: 1}

    @staticmethod
    def snapshot(pt):
        return (
            list(pt.seq),
            list(pt.edge_count),
            list(pt.edge_from),
            [dict(x) for x in pt.mate],
            [dict(x) for x in pt.span],
            pt.closing,
            list(pt.forward),
            list(pt.backward),
            pt.smaller_witness,
        )

    def test_pop_restores_everything(self, k4):
        # Leaving 0 on its third visit forces the closing vertex 3, and
        # the closing step 3 -> 0 is counted from that push until its pop.
        pt = build_partial(k4, (0, 1, 2, 0, 1, 3, 0))
        closing_edge = k4.edge_id(0, 3)
        before = read_state(self.snapshot(pt))
        assert pt.edge_count[closing_edge] == 1
        pt.push(2)
        assert pt.closing == 3 and pt.edge_count[closing_edge] == 2
        pt.push(3)
        pt.pop()
        assert pt.closing == 3 and pt.edge_count[closing_edge] == 2
        pt.pop()
        assert pt.edge_count[closing_edge] == 1
        assert read_state(self.snapshot(pt)) == before

    def test_pop_undoes_a_path_join(self, k4):
        # At vertex 1 the prefix 0,1,2,0,3,1 has the path 0-2; stepping
        # on to 0 pairs its end 0 with the unpaired 3, so the new ends 2
        # and 3 become mates over all three neighbours.
        pt = build_partial(k4, (0, 1, 2, 0, 3, 1))
        before = self.snapshot(pt)
        assert pt.mate[1] == {0: 2, 2: 0, 3: 3} and pt.span[1] == {0: 2, 2: 2, 3: 1}
        pt.push(0)
        assert pt.mate[1][3] == 2 and pt.mate[1][2] == 3
        assert pt.span[1][2] == pt.span[1][3] == 3
        pt.pop()
        assert self.snapshot(pt) == before

    @pytest.mark.parametrize(
        "fixture,prefix,v",
        [("triangle", (0, 1), 0), ("k4", (0, 1, 2, 0, 3, 1, 0, 2, 1), 3)],
        ids=["self-pair", "k4-path-2-0-3"],
    )
    def test_pop_after_a_cycle_close(self, request, fixture, prefix, v):
        # The pair closes a path into a cycle at the vertex left behind:
        # {0, 0} at 1, and {2, 3} joining the ends of the path 2-0-3 at 1.
        # A cycle is never extended, so neither mate nor span changes.
        pt = build_partial(request.getfixturevalue(fixture), prefix)
        before = self.snapshot(pt)
        u = pt.seq[-1]
        assert pt.mate[u][pt.seq[-2]] == v
        pt.push(v)
        assert self.snapshot(pt)[3:5] == before[3:5]
        pt.pop()
        assert self.snapshot(pt) == before

    @pytest.mark.parametrize(
        "fixture,prefix,tail,closing",
        [
            ("triangle", (0, 1, 2, 0), (2, 1), -1),
            ("k4", (0, 1, 2, 0, 3, 1, 2, 0), (3, 1), -1),
            ("k4", (0, 1, 0, 2, 1, 3, 0, 3, 2), (3, 1), 2),
        ],
        ids=["triangle-reversal", "k4-end-anchored", "k4-after-anchoring"],
    )
    def test_pop_restores_the_symmetries_past_a_witness(
        self, request, fixture, prefix, tail, closing
    ):
        # The first push of `tail` finds a witness (the triangle's forward
        # one on 0,1,2,0,2, pending on the arc (2, 0) before the push; K4's
        # backward one on perm[1] when 0,1,2,0,3,1,2,0,3 forces the closing
        # vertex 1; a backward one on 0,1,0,2,1,3,0,3,2,3, after the push
        # that forced the closing vertex 2 kept the backward alignments
        # tied on perm[2]), the second inherits it.  Each prefix holds a
        # tied forward and a tied backward alignment besides the pending
        # ones.  Popping both brings back the tied alignments.
        pt = build_partial(request.getfixturevalue(fixture), prefix)
        before = self.snapshot(pt)
        assert before[-1] is None and before[-3] and before[-2]
        assert pt.closing == closing
        snapshots = []
        for v in tail:
            pt.push(v)
            assert pt.smaller_witness is not None
            assert pt.forward == pt.backward == []
            snapshots.append(self.snapshot(pt))
        assert snapshots[0][-1] == snapshots[1][-1]
        pt.pop()
        assert self.snapshot(pt) == snapshots[0]
        pt.pop()
        assert self.snapshot(pt) == before

    def test_closing_vertex_forced_on_last_departure_from_0(self, k4, path3):
        # K4: 0 has degree 3.  After 0,1,0,2,1,2,3,0 its third visit is
        # open; leaving it for 3 spends the edge {0,3}, so the one
        # traversal left at 0 is on {0,2}: every completion ends 2, 0.
        pt = build_partial(k4, (0, 1, 0, 2, 1, 2, 3, 0))
        assert pt.closing == -1
        pt.push(3)
        assert pt.closing == 2
        # When 0 is a leaf the walk leaves it once, at the root.
        assert build_partial(path3, (0, 1)).closing == 1
        assert build_partial(Graph(2, [(0, 1)]), (0, 1)).closing == 1

    def test_len(self, triangle):
        assert len(build_partial(triangle, (0, 1, 2))) == 3


@pytest.mark.parametrize(
    "graph",
    [
        named_graph("tetrahedron"),
        named_graph("prism", 3),
        named_graph("pyramid", 4),
        # Vertex 0 is a leaf hanging off a triangle.
        Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)]),
    ],
    ids=["k4", "prism3", "pyramid4", "pendant-0"],
)
def test_walk_bookkeeping_matches_its_definition(graph):
    # On every prefix the search enters, `closing` is the one neighbour of
    # 0 with spare capacity once 0 has had its deg(0) visits and been left;
    # `edge_count` holds the walk's traversals of each edge, plus the
    # closing step's while it is forced; and `edge_from`, read only where
    # its edge has been used, holds the first traversal's tail there.  The
    # state is read where the search holds it, at each prefix of a frontier.
    pt = PartialTrace(graph, automorphisms(graph), EnumerationConfig())
    zero_edges = [(c, graph.edge_id(0, c)) for c in graph.adj[0]]
    for depth in range(3, 2 * graph.m):
        for prefix in enumerator._descend(pt, depth):
            seq = pt.seq
            used = [0] * graph.m
            first = [-1] * graph.m
            for a, b in zip(seq, seq[1:]):
                e = graph.edge_id(a, b)
                if not used[e]:
                    first[e] = a
                used[e] += 1
            if seq.count(0) == graph.degree(0) and seq[-1] != 0:
                (expected,) = [c for c, e in zero_edges if used[e] < 2]
                used[graph.edge_id(0, expected)] += 1
            else:
                expected = -1
            assert pt.closing == expected, prefix
            assert pt.edge_count == used, prefix
            assert [f for f, c in zip(pt.edge_from, used) if c] == [f for f in first if f >= 0]


class TestFeasibleNeighbors:
    def test_open_start_allows_whole_neighborhood(self, k4):
        # At length 2 only adjacency and edge capacity constrain the step,
        # even for strong enumeration.
        pt = build_partial(k4, (0, 1))
        assert feasible_neighbors(pt) == [0, 2, 3]

    def test_exhausted_edges_block(self, triangle):
        # After 0,1,0 the edge {0,1} is used twice; only 2 remains.
        pt = build_partial(triangle, (0, 1, 0), EnumerationConfig())
        assert feasible_neighbors(pt) == [2]

    def test_parallel_repeats_first_direction(self, triangle):
        # The edge {1,2} was first taken 1 -> 2, so its second traversal
        # under parallel orientation must again run 1 -> 2.
        parallel = EnumerationConfig(orientation="parallel")
        pt = build_partial(triangle, (0, 1, 2, 0, 1), parallel)
        assert feasible_neighbors(pt) == [2]
        # Here {1,2} was first taken 2 -> 1; stepping 1 -> 2 would repeat
        # it in the opposite direction, which parallel forbids.
        pt2 = build_partial(triangle, (0, 1, 0, 2, 1), parallel)
        assert feasible_neighbors(pt2) == []

    def test_antiparallel_reverses_first_direction(self, triangle):
        antiparallel = EnumerationConfig(orientation="antiparallel")
        pt = build_partial(triangle, (0, 1, 0, 2, 1), antiparallel)
        assert feasible_neighbors(pt) == [2]
        pt2 = build_partial(triangle, (0, 1, 2, 0, 1), antiparallel)
        assert feasible_neighbors(pt2) == []

    def test_completing_visit_accepts_connected(self, k4):
        # Leaving vertex 1 for the third (= last) time completes its
        # transition structure.  The prefix below gives it the pairs
        # {0,2}, {0,3}; stepping 1 -> 2 adds {3,2}, which connects
        # everything, so the kind lookahead keeps the step.
        prefix = (0, 1, 2, 0, 1, 3, 0, 2, 3, 1)
        pt = build_partial(k4, prefix)
        assert feasible_neighbors(pt) == [2]
        assert feasible_neighbors(build_partial(k4, prefix, EnumerationConfig())) == [2]
        assert _kind_lookahead_ok(pt, 3, 1, 2, pt.bound)

    def test_completing_visit_rejects_split(self, triangle):
        # Leaving vertex 1 for the second (= last) time here closes its
        # transition structure with the pairs {0,0} and {2,2}: two
        # singleton repetitions.  `feasible_neighbors` checks no kind, so
        # it allows the step for every kind; the kind lookahead rejects it
        # for strong enumeration and for 1-stability (the repetitions have
        # only one element).
        prefix = (0, 1, 0, 2, 1)
        stable1 = EnumerationConfig(kind="stable", d=1)
        for cfg in (EnumerationConfig(), STRONG, stable1):
            assert feasible_neighbors(build_partial(triangle, prefix, cfg)) == [2]
        for cfg in (STRONG, stable1):
            pt = build_partial(triangle, prefix, cfg)
            assert not _kind_lookahead_ok(pt, 2, 1, 2, pt.bound)

    def test_last_steps_of_known_trace(self, k4):
        # The final two steps of a full strong trace stay feasible; the
        # closing step back to vertex 0 is decided at the leaf.
        pt = build_partial(k4, K4_STRONG[:10])
        assert feasible_neighbors(pt) == [2]
        pt.push(2)
        assert feasible_neighbors(pt) == [3]

    def test_reserved_closing_step_is_not_offered(self, triangle):
        # After 0,1,0,2 the one traversal left at 0 is the closing step
        # 2 -> 0, so stepping there now would strand the walk at 0.
        for cfg in (EnumerationConfig(), EnumerationConfig(orientation="antiparallel")):
            pt = build_partial(triangle, (0, 1, 0, 2), cfg)
            assert pt.closing == 2
            assert feasible_neighbors(pt) == [1]
        pt = build_partial(triangle, (0, 1, 0, 2), EnumerationConfig())
        pt.push(1)
        assert feasible_neighbors(pt) == [2]

    def test_full_length_offers_only_the_closing_step(self, triangle):
        # At full length the one edge left with capacity leads back to
        # vertex 0.  Here it is {0,2}, first taken 0 -> 2.  It is the
        # reserved closing step, so no step is offered, and `_accept`
        # decides it: allowed for orientation any and antiparallel,
        # forbidden for parallel.
        prefix = (0, 1, 0, 2, 1, 2)
        for orientation, accepted in (("any", True), ("antiparallel", True), ("parallel", False)):
            cfg = EnumerationConfig(orientation=orientation)
            pt = build_partial(triangle, prefix, cfg)
            assert feasible_neighbors(pt) == []
            assert _accept(pt) is accepted


class TestClosingPairs:
    """The two pairs that only the closing step completes, {w_{2m-2}, 0}
    at w_{2m-1} and {w_{2m-1}, 1} at w_0, checked on the unclosed prefix."""

    @staticmethod
    def replay(graph, cfg, trace):
        """The search state for `trace`, and whether every in-search
        kind lookahead passed on the way."""
        pt = PartialTrace(graph, automorphisms(graph), cfg)
        passed = True
        for v in trace[2:]:
            passed = passed and _kind_lookahead_ok(pt, pt.seq[-2], pt.seq[-1], v, pt.bound)
            pt.push(v)
        return pt, passed

    @pytest.mark.parametrize(
        "trace,at_last,at_start",
        [
            ((0, 1, 2, 0, 1, 3, 2, 1, 3, 2, 0, 3), False, True),
            ((0, 1, 2, 0, 3, 1, 2, 3, 0, 2, 3, 1), True, False),
        ],
        ids=["fails-at-last", "fails-at-start"],
    )
    def test_k4_stable1(self, k4, trace, at_last, at_start):
        # The first trace pairs 0 with itself at w_11 = 3, the second 1
        # with itself at w_0 = 0: a one-vertex repetition each, seen by
        # no lookahead before the closing step.
        cfg = EnumerationConfig(kind="stable", d=1)
        pt, passed = self.replay(k4, cfg, trace)
        assert passed
        assert _kind_lookahead_ok(pt, trace[-2], trace[-1], 0, 1) is at_last
        assert _kind_lookahead_ok(pt, trace[-1], 0, 1, 1) is at_start
        # Neither prefix is canonical either, so the search would have
        # cut it on the way down; `_accept` rejects it for its kind alone.
        assert pt.smaller_witness is not None
        assert not _accept(pt)

    @pytest.mark.parametrize(
        "graph,trace,at_last,at_start",
        [
            (
                named_graph("pyramid", 4),
                (0, 1, 2, 3, 4, 1, 0, 3, 4, 2, 1, 4, 2, 3, 0, 4),
                False,
                True,
            ),
            (
                Graph(5, [(0, 1), (0, 3), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)]),
                (0, 1, 4, 0, 3, 2, 4, 0, 3, 4, 2, 3, 4, 1),
                True,
                False,
            ),
        ],
        ids=["pyramid4-fails-at-last", "fails-at-start"],
    )
    def test_canonical_prefix_rejected_by_one_closing_pair(self, graph, trace, at_last, at_start):
        # Canonical traces of kind any, so `_accept` takes them unless
        # asked for stable(1), where one closing pair alone rejects them.
        cfg = EnumerationConfig(kind="stable", d=1)
        pt, passed = self.replay(graph, cfg, trace)
        assert passed and pt.smaller_witness is None
        assert _kind_lookahead_ok(pt, trace[-2], trace[-1], 0, 1) is at_last
        assert _kind_lookahead_ok(pt, trace[-1], 0, 1, 1) is at_start
        assert not _accept(pt)
        assert _accept(build_partial(graph, trace, EnumerationConfig()))
        assert len(pt) == 2 * graph.m


class TestCanonicalExtension:
    def test_collapses_symmetric_candidates(self, k4):
        # The stabilizer of the base edge in Aut(K4) swaps 2 and 3, so
        # one of them represents both.
        pt = build_partial(k4, (0, 1))
        assert canonical_extension(pt, [0, 2, 3]) == [0, 2]

    def test_singleton(self, k4):
        pt = build_partial(k4, (0, 1))
        assert canonical_extension(pt, [2]) == [2]

    def test_trivial_stabilizer_drops_a_forward_witness(self, k4):
        # After 0,1,2 no nontrivial automorphism fixes the prefix, but the
        # forward alignment from w_1 by (2, 0, 1, 3) maps 1,2 onto 0,1 and
        # would map a pushed 1 onto 0, below w_2 = 2.
        pt = build_partial(k4, (0, 1, 2))
        assert start_zero_alignments(pt) == []
        assert canonical_extension(pt, [0, 1, 3]) == [0, 3]
        pt.push(1)
        assert pt.smaller_witness == SymmetryElement((2, 0, 1, 3), 1, False)


def start_zero_alignments(pt):
    """The perms of the forward alignments at start 0, which head `forward`."""
    starts = [s for _, s in pt.forward]
    head = starts.count(0)
    assert starts[:head] == [0] * head
    return [perm for perm, _ in pt.forward[:head]]


class TestRetainedSymmetries:
    def test_initial_relabels_fix_base_edge(self, k4):
        # The stabilizer of the ordered pair (0, 1) in Aut(K4) = S4 is
        # exactly {identity, swap 2 and 3}; all but the identity start
        # out as forward alignments at start 0.
        pt = build_partial(k4, (0, 1))
        assert pt.forward == [((0, 1, 3, 2), 0)]

    def test_prune_narrows_relabels(self, k4):
        pt = build_partial(k4, (0, 1, 2))
        assert pt.smaller_witness is None
        assert start_zero_alignments(pt) == []

    def test_prune_finds_relabel_witness(self, k4):
        # Swapping 2 and 3 maps the prefix 0,1,3 to the smaller 0,1,2.
        w = build_partial(k4, (0, 1, 3)).smaller_witness
        assert w == SymmetryElement((0, 1, 3, 2), 0, False)
        assert apply_symmetry(w, (0, 1, 3)) == (0, 1, 2)

    def test_prune_finds_reversal_witness(self, triangle, k4):
        # Reading 0,1,2,1 backwards from its end and relabelling 1 to 0
        # yields 0,1,0,...: strictly smaller, so no completion of this
        # prefix can be canonical.  Read forwards from w_1 by the same
        # relabelling it gives 0,1,0 too, and `prune` decides the forward
        # alignments first, so that is the witness reported.
        prefix = (0, 1, 2, 1)
        pt = build_partial(triangle, prefix)
        assert pt.smaller_witness == SymmetryElement((2, 0, 1), 1, False)
        reversal = SymmetryElement((2, 0, 1), 3, True)
        assert apply_symmetry(reversal, prefix + (0, 2))[:3] == (0, 1, 0)
        # On K4 the last push of this prefix finds only a reversal: read
        # backwards from w_10 = 1 (the walk ends with the forced w_11 = 3)
        # and relabelled by (3, 0, 1, 2) it gives 0,1,0,2,1, below
        # 0,1,0,2,3.
        prefix = (0, 1, 0, 2, 3, 0, 2, 3, 1, 2, 1)
        pt = build_partial(k4, prefix[:2])
        for v in prefix[2:]:
            assert pt.smaller_witness is None
            pt.push(v)
        w = pt.smaller_witness
        assert w == SymmetryElement((3, 0, 1, 2), 2, True)
        assert apply_symmetry(w, prefix + (3,))[:5] == (0, 1, 0, 2, 1)

    def test_prune_finds_forward_witness(self, k4):
        # Read forwards from w_3 = 2 and relabelled by (2, 3, 0, 1), the
        # prefix 0,1,0,2,3,2,0,3 gives 0,1,0,2,1: smaller than 0,1,0,2,3
        # at the step that pushes the last 3, and no earlier.
        prefix = (0, 1, 0, 2, 3, 2, 0, 3)
        pt = build_partial(k4, prefix[:2])
        for v in prefix[2:]:
            assert pt.smaller_witness is None
            pt.push(v)
        w = pt.smaller_witness
        assert w == SymmetryElement((2, 3, 0, 1), 3, False)
        assert [w.perm[x] for x in prefix[3:]] == [0, 1, 0, 2, 1]

    def test_prune_finds_end_anchored_witness(self, k4):
        # Leaving 0 for the last time with the push of the final 3 forces
        # the walk's end: w_11 = 2.  Read backwards from w_5 = 2 and
        # relabelled by (2, 1, 0, 3), the prefix gives 0,1,0,2,1,2 and
        # then perm[2] = 0, smaller than w_6 = 3.  No earlier push knows
        # w_11, so none finds a witness.
        prefix = (0, 1, 0, 2, 1, 2, 3, 0, 3)
        pt = build_partial(k4, prefix[:2])
        for v in prefix[2:]:
            assert pt.smaller_witness is None
            pt.push(v)
        assert pt.closing == 2
        w = pt.smaller_witness
        assert w == SymmetryElement((2, 1, 0, 3), 7, True)
        assert [w.perm[x] for x in prefix[5::-1]] + [w.perm[2]] == [0, 1, 0, 2, 1, 2, 0]

    def test_canonical_prefixes_have_no_witness(self, triangle):
        pt = build_partial(triangle, (0, 1))
        for v in (0, 2, 1, 2):
            pt.push(v)
            assert pt.smaller_witness is None

    def test_start_zero_alignments_are_the_prefix_stabilizer(self, k4):
        # From the root on and after every push, the forward alignments at
        # start 0 are exactly the automorphisms other than the identity
        # that fix each prefix vertex, and they head `forward`.
        aut = automorphisms(k4)
        pt = PartialTrace(k4, aut, STRONG)
        for v in (None, 2, 0, 1, 3):
            if v is not None:
                pt.push(v)
            assert pt.smaller_witness is None
            expected = {
                p
                for p in aut.elements
                if p != (0, 1, 2, 3) and all(p[w] == w for w in pt.seq)
            }
            got = start_zero_alignments(pt)
            assert len(got) == len(expected) and set(got) == expected
        assert pt.seq == [0, 1, 2, 0, 1, 3]


class TestExtendFeasibly:
    def test_frontier_in_search_order(self, k4):
        pt = PartialTrace(k4, automorphisms(k4), STRONG)
        # The kind lookahead cuts 0,1,0: pairing 0 with itself at vertex 1
        # fills both pair slots of 0 there, leaving {0} a repetition.
        assert extend_feasibly(pt, 3) == [(0, 1, 2)]
        assert extend_feasibly(pt, 4) == [(0, 1, 2, 0), (0, 1, 2, 3)]
        frontier = extend_feasibly(pt, 6)
        assert frontier == sorted(frontier)
        assert pt.seq == [0, 1]
        # The frontier covers the output.
        traces = enumerate_traces(k4, EnumerationConfig(kind="strong"))
        assert {w[:6] for w in traces} <= set(frontier)

    def test_pruned_children_are_dropped(self, triangle):
        # From 0,1,2 the only extensions are 0 and 1, and 0,1,2,1 is
        # killed by its witness.
        pt = build_partial(triangle, (0, 1, 2), EnumerationConfig())
        assert extend_feasibly(pt, 4) == [(0, 1, 2, 0)]
        assert pt.seq == [0, 1, 2]


# Frontier sizes at depths 3 .. 2m - 1 of the full search.  A change to
# any cut that alters the search tree shows up here.  The second list
# holds the widths from before the search anchored the walk's end on
# the forced closing vertex; a cut can only remove prefixes, so no width
# may exceed its old value at the same depth.
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
    pt = PartialTrace(graph, automorphisms(graph), cfg)
    got = [len(extend_feasibly(pt, d)) for d in range(3, 2 * graph.m)]
    assert got == widths
    assert len(got) == len(widths_before)
    assert all(new <= old for new, old in zip(got, widths_before))


# Pushes (`prune` calls) of the serial search on the same rows, and
# before `canonical_extension` made every tied forward comparison ahead
# of the push, which saves pushes and cuts nothing: the widths above
# held.  No count may exceed its old value.
SEARCH_PUSHES = {
    "tetrahedron-strong": (42, 51),
    "prism3-strong": (517, 569),
    "prism3-stable1-antiparallel": (156, 179),
    "pyramid4-stable2": (1005, 1064),
    "tetrahedron-any": (241, 300),
}


@pytest.mark.parametrize(
    "name,k,cfg,pushes,pushes_before",
    [row[:3] + counts for row, counts in zip(SEARCH_TREE_WIDTHS, SEARCH_PUSHES.values())],
    ids=SEARCH_PUSHES.keys(),
)
def test_search_pushes_are_pinned(monkeypatch, name, k, cfg, pushes, pushes_before):
    calls = 0
    original = enumerator.prune

    def counting(partial):
        nonlocal calls
        calls += 1
        return original(partial)

    monkeypatch.setattr(enumerator, "prune", counting)
    enumerate_traces(named_graph(name, k), cfg)
    assert calls == pushes <= pushes_before


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
        # Refused before the root decision: this path has no parallel trace.
        g = Graph(3, [(0, 2), (1, 2)])
        for cfg in (None, EnumerationConfig(orientation="parallel")):
            for search in (enumerate_traces, count_traces):
                with pytest.raises(ValueError, match="adjacent"):
                    search(g, cfg)

    def test_stable_above_min_degree_is_strong(self, triangle):
        # No repetition has 3 of the triangle's vertices, so stable(3)
        # keeps exactly the strong traces, and it is no cause for a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = enumerate_traces(triangle, EnumerationConfig(kind="stable", d=3))
        assert got == enumerate_traces(triangle, EnumerationConfig(kind="strong")) != []

    # Rows under 0.2 s serially.  prism:3 antiparallel's frontier narrows
    # to 2 prefixes, fewer than the jobs asked for.
    PARALLEL_ROWS = [
        ("tetrahedron", None, EnumerationConfig(kind="strong")),
        ("cube", None, EnumerationConfig(kind="strong")),
        ("prism", 3, EnumerationConfig(kind="strong")),
        ("prism", 3, EnumerationConfig(kind="strong", orientation="antiparallel")),
        ("prism", 5, EnumerationConfig(kind="strong")),
        ("pyramid", 4, EnumerationConfig(kind="stable", d=2)),
        ("bipyramid", 3, EnumerationConfig(kind="strong")),
    ]

    def test_parallel_jobs_match_serial(self):
        for name, k, cfg in self.PARALLEL_ROWS:
            graph = named_graph(name, k)
            aut = automorphisms(graph)
            serial = enumerate_traces(graph, cfg, aut=aut)
            for jobs in (2, 3, 4):
                got = enumerate_traces(graph, cfg, jobs=jobs, aut=aut)
                assert got == serial, (name, k, cfg.describe(), jobs)

    def test_parallel_jobs_any_kind(self, k4):
        serial = enumerate_traces(k4)
        for jobs in (2, 3, 4):
            assert enumerate_traces(k4, jobs=jobs) == serial, jobs

    @pytest.mark.parametrize(
        "graph,cfg",
        [
            (named_graph("prism", 3), EnumerationConfig(kind="strong", orientation="antiparallel")),
            (Graph(2, [(0, 1)]), EnumerationConfig()),
            (Graph(3, [(0, 1), (0, 2), (1, 2)]), EnumerationConfig(kind="strong")),
        ],
        ids=["prism3-strong-antiparallel", "single-edge", "triangle-strong"],
    )
    def test_no_process_without_a_split(self, monkeypatch, graph, cfg):
        def refuse(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing, "Process", refuse)
        serial = enumerate_traces(graph, cfg)
        assert enumerate_traces(graph, cfg, jobs=3) == serial
        assert count_traces(graph, cfg, jobs=3) == len(serial)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched search reaches the child only through fork",
    )
    @pytest.mark.parametrize("failing", ["child", "caller"])
    def test_failed_search_raises_and_leaves_no_process(self, monkeypatch, prism3, failing):
        original = enumerator._search_dealt

        def fail_in_one(*args):
            in_child = multiprocessing.parent_process() is not None
            if in_child == (failing == "child"):
                raise RuntimeError("injected failure")
            return original(*args)

        monkeypatch.setattr(enumerator, "_search_dealt", fail_in_one)
        with pytest.raises(RuntimeError, match="exit code 1" if failing == "child" else "injected"):
            enumerate_traces(prism3, EnumerationConfig(kind="strong"), jobs=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "graph,cfg",
        [(named_graph("prism", 3), STRONG), (named_graph("tetrahedron"), EnumerationConfig())],
        ids=["prism3-strong", "tetrahedron-any"],
    )
    def test_parallel_jobs_under_spawn(self, monkeypatch, graph, cfg):
        # Spawn, the default start method on macOS and Windows, starts each
        # child afresh: the search state, the shared counter and the
        # collector reach it pickled.
        spawn = multiprocessing.get_context("spawn")
        started = []

        def process(*args, **kwargs):
            child = spawn.Process(*args, **kwargs)
            started.append(child)
            return child

        monkeypatch.setattr(multiprocessing, "Process", process)
        monkeypatch.setattr(multiprocessing, "Pipe", spawn.Pipe)
        monkeypatch.setattr(multiprocessing, "Value", spawn.Value)
        serial = enumerate_traces(graph, cfg)
        assert enumerate_traces(graph, cfg, jobs=2) == serial
        assert count_traces(graph, cfg, jobs=3) == len(serial)
        assert started
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, k4, jobs):
        # Raised at the call, not when a result is first read.
        for search in (enumerate_traces, count_traces):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                search(k4, jobs=jobs)

    def test_precomputed_aut_accepted(self, k4):
        aut = automorphisms(k4)
        assert enumerate_traces(k4, aut=aut) == enumerate_traces(k4)

    @pytest.mark.parametrize(
        "graph,other",
        [
            (named_graph("tetrahedron"), named_graph("prism", 3)),
            (named_graph("cube"), named_graph("octahedron")),
            (named_graph("prism", 3), named_graph("octahedron")),
        ],
        ids=["k4-prism3", "cube-octahedron", "prism3-octahedron"],
    )
    def test_aut_of_another_graph_rejected(self, graph, other):
        # The first two differ in their number of vertices; the octahedron
        # has as many as prism:3, but its symmetries are not prism:3's.
        aut = automorphisms(other)
        for search in (enumerate_traces, count_traces):
            with pytest.raises(ValueError, match="not an automorphism"):
                search(graph, EnumerationConfig(kind="strong"), aut=aut)

    def test_path_longer_than_the_recursion_limit(self):
        # Neither the automorphism backtracking nor the search recurses
        # once per vertex or per step.
        n = sys.getrecursionlimit() + 100
        graph = Graph(n, [(i, i + 1) for i in range(n - 1)])
        aut = automorphisms(graph)
        assert aut.order == 2
        assert len(enumerate_traces(graph, EnumerationConfig(kind="strong"), aut=aut)) == 1


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
    # Replay every double trace starting 0 1 through `push` (and so
    # `prune`) and `_accept`, also past a witness, where the search would
    # have stopped: the search's verdict is no witness and `_accept`.
    # Sorted traces share prefixes, so each step is pushed once per
    # subtree.
    aut = automorphisms(graph)
    pt = PartialTrace(graph, aut, EnumerationConfig())
    verdicts = set()
    for w in sorted(brute_enumerate(graph, EnumerationConfig())):
        common = 2
        while common < len(pt.seq) and pt.seq[common] == w[common]:
            common += 1
        while len(pt.seq) > common:
            pt.pop()
        for v in w[common:]:
            pt.push(v)
        accepted = pt.smaller_witness is None and _accept(pt)
        assert accepted == is_canonical(graph, w, aut), w
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


@pytest.mark.parametrize(
    "graph", PENDANT_START_GRAPHS.values(), ids=PENDANT_START_GRAPHS.keys()
)
def test_pendant_start_vertex_serial_and_parallel_match_oracle(graph):
    assert graph.degree(0) == 1
    for cfg in ALL_CONFIGS:
        expected = canonical_orbit_representatives(graph, cfg)
        assert enumerate_traces(graph, cfg) == expected, cfg.describe()
        assert enumerate_traces(graph, cfg, jobs=2) == expected, cfg.describe()


def table_calls():
    """The calls `tables` makes on its rows that are not slow: (id,
    graph, config, count)."""
    from doubletrace.cli import _TABLE_ROWS

    for _, spec, strong, orientation, oriented, slow in _TABLE_ROWS:
        if slow:
            continue
        name, _, size = spec.partition(":")
        graph = named_graph(name, int(size) if size else None)
        yield f"{spec}-strong", graph, EnumerationConfig(kind="strong"), strong
        yield (
            f"{spec}-strong-{orientation}",
            graph,
            EnumerationConfig(kind="strong", orientation=orientation),
            oriented,
        )


TABLE_CALLS = list(table_calls())


@pytest.mark.parametrize(
    "graph,cfg,expected", [c[1:] for c in TABLE_CALLS], ids=[c[0] for c in TABLE_CALLS]
)
def test_count_traces_on_the_table_rows(graph, cfg, expected):
    # test_acceptance pins the length of `enumerate_traces` on these rows
    # to the same counts.
    aut = automorphisms(graph)
    for jobs in (1, 2, 3):
        assert count_traces(graph, cfg, jobs=jobs, aut=aut) == expected, jobs


COUNT_CHECK_GRAPHS = {
    **{f"random3-{i}": g for i, g in enumerate(random_graphs(3, 6))},
    **PENDANT_START_GRAPHS,
}


@pytest.mark.parametrize(
    "graph", COUNT_CHECK_GRAPHS.values(), ids=COUNT_CHECK_GRAPHS.keys()
)
def test_count_traces_matches_the_list(graph):
    for cfg in ALL_CONFIGS:
        expected = len(enumerate_traces(graph, cfg))
        for jobs in (1, 2, 3):
            assert count_traces(graph, cfg, jobs=jobs) == expected, (cfg.describe(), jobs)


def test_canonical_extension_drops_exactly_the_forward_witnesses():
    # Walk whole searches for every config.  At every node push each
    # candidate that passed the kind lookahead: `prune` gives a forward
    # witness to exactly those that `canonical_extension` drops, so
    # dropping them cuts nothing more.  The candidates come in increasing
    # order, and the kept ones keep it.
    graphs = [named_graph("tetrahedron"), *PENDANT_START_GRAPHS.values(), random_graphs(3, 6)[1]]
    dropped = 0
    for graph in graphs:
        for cfg in ALL_CONFIGS:
            pt = PartialTrace(graph, automorphisms(graph), cfg)
            seq = pt.seq
            bound = pt.bound

            def walk():
                nonlocal dropped
                if len(seq) == 2 * graph.m:
                    return
                cands = [
                    v
                    for v in feasible_neighbors(pt)
                    if not bound or _kind_lookahead_ok(pt, seq[-2], seq[-1], v, bound)
                ]
                assert cands == sorted(cands), seq
                kept = canonical_extension(pt, cands)
                dropped += len(cands) - len(kept)
                expected = []
                for v in cands:
                    pt.push(v)
                    w = pt.smaller_witness
                    if w is None or w.reverse:
                        expected.append(v)
                    if w is None:
                        walk()
                    pt.pop()
                assert kept == expected, (seq, cfg.describe())

            walk()
    # Not vacuous: some candidates are dropped.
    assert dropped > 0


class ReferenceAlignments:
    """The alignments tied with a prefix, advanced push by push with no
    index: every tied forward alignment, those that start on the last arc
    included, is compared on every step, every backward alignment that
    starts on the new arc from its third element on, and, once the
    closing vertex c is forced, every tied backward alignment from s on
    perm[c] against w_{s+1} wherever that is pushed, also on the steps
    after the one that forced c.  Each state is (forward, backward,
    witness)."""

    def __init__(self, graph, aut):
        self.elements = aut.elements
        self.length = 2 * graph.m
        identity = tuple(range(graph.n))
        forward = [(perm, 0) for perm in self.arc(0, 1) if perm != identity]
        self.states = [(forward, [(perm, 1) for perm in self.arc(1, 0)], None)]

    def arc(self, a, b):
        return [perm for perm in self.elements if perm[a] == 0 and perm[b] == 1]

    def canonical_extension(self, seq, candidates):
        forward = self.states[-1][0]
        p = len(seq)
        return [
            v
            for v in candidates
            if all(perm[v] >= (seq[p - s] if s else v) for perm, s in forward)
        ]

    def push(self, seq, closing):
        """The state after `seq`'s last push; `closing` as `PartialTrace`
        has it after that push."""
        forward, backward, witness = self.states[-1]
        if witness is not None:
            self.states.append(self.states[-1])
            return
        p = len(seq)
        v, u = seq[-1], seq[-2]
        length = self.length

        def found(element):
            self.states.append(([], [], element))

        tied = []
        for perm, s in forward:
            a, b = perm[v], seq[p - 1 - s]
            if a < b:
                return found(SymmetryElement(perm, s, False))
            if a == b:
                tied.append((perm, s))
        if closing >= 0:
            kept = []
            for perm, s in backward:
                a, b = perm[closing], seq[s + 1]
                if a < b:
                    return found(SymmetryElement(perm, (length - s) % length, True))
                if a == b:
                    kept.append((perm, s))
            backward = kept
        new_backward = []
        for perm in self.arc(v, u):
            image = [perm[x] for x in reversed(seq)]
            if image < seq:
                return found(SymmetryElement(perm, (length - p + 1) % length, True))
            if image == seq:
                new_backward.append((perm, p - 1))
        tied += [(perm, p - 2) for perm in self.arc(u, v)]
        self.states.append((tied, backward + new_backward, None))

    def pop(self):
        self.states.pop()


def relabelled(graph, seed):
    """`graph` under a random relabelling, its base edge normalized."""
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    return normalize_base_edge(Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges]))[0]


INDEX_CHECK_GRAPHS = {
    "K4": named_graph("tetrahedron"),
    "prism3": named_graph("prism", 3),
    "pyramid4": named_graph("pyramid", 4),
    "random3-2-relabelled": relabelled(random_graphs(3, 6)[2], 11),
}


@pytest.mark.parametrize("graph", INDEX_CHECK_GRAPHS.values(), ids=INDEX_CHECK_GRAPHS.keys())
def test_two_arc_index_matches_reference(graph):
    # Walk the search for kind and orientation any, whose tree holds that
    # of every configuration, and push every candidate, also those that
    # `canonical_extension` drops.  On each prefix the 2-arc index gives
    # the reference's candidates, witness and tied alignments, once those
    # pending on the last arc are added to `forward`.
    aut = automorphisms(graph)
    assert aut.order > 1
    pt = PartialTrace(graph, aut, EnumerationConfig())
    ref = ReferenceAlignments(graph, aut)
    seq = pt.seq
    seen = {"prefixes": 0, "witnesses": 0, "pending": 0}

    def check():
        forward, backward, witness = ref.states[-1]
        assert pt.smaller_witness == witness, seq
        pending = [(perm, len(seq) - 2) for perm in pt._arc_index[seq[-2]][seq[-1]]]
        if witness is None:
            assert pt.forward + pending == forward, seq
            assert pt.backward == backward, seq
            seen["pending"] += bool(pending)
        seen["witnesses"] += witness is not None
        seen["prefixes"] += 1

    def walk():
        if len(seq) == 2 * graph.m:
            return
        cands = feasible_neighbors(pt)
        assert canonical_extension(pt, cands) == ref.canonical_extension(seq, cands), seq
        for v in cands:
            pt.push(v)
            ref.push(seq, pt.closing)
            check()
            if pt.smaller_witness is None:
                walk()
            pt.pop()
            ref.pop()

    walk()
    assert seq == [0, 1]
    # Not vacuous: witnesses are found and alignments are pending.
    assert min(seen.values()) > 0, seen


def reference_accept_tails(pt):
    """`_accept`'s canonicity verdict by list comparison of whole tails."""
    seq = pt.seq
    length = len(seq)
    last, before = seq[-1], seq[-2]
    forward = (
        pt.forward
        + [(perm, length - 2) for perm in pt._arc_index[before][last]]
        + [(perm, length - 1) for perm in pt._arc_index[last][0]]
    )
    for perm, s in forward:
        if [perm[x] for x in seq[:s]] < seq[length - s :]:
            return False
    for perm, s in pt.backward + [(perm, 0) for perm in pt._arc_index[0][last]]:
        tail = seq[s + 1 :]
        if [perm[x] for x in tail[::-1]] < tail:
            return False
    return True


@pytest.mark.parametrize("graph", LEAF_CHECK_GRAPHS[:4])
def test_accept_early_exit_matches_list_comparison(graph):
    # At leaves of the search for kind any, give the state random tied
    # alignments (automorphisms, which tie for a while, and random
    # permutations) and compare `_accept` with whole-tail comparisons.
    rng = random.Random(5)
    aut = automorphisms(graph)
    cfg = EnumerationConfig()
    leaves = enumerate_traces(graph, cfg)
    length = 2 * graph.m
    verdicts = set()
    for w in rng.sample(leaves, min(len(leaves), 20)):
        pt = PartialTrace(graph, aut, cfg)
        for v in w[2:]:
            pt.push(v)
        for _ in range(30):
            def alignments(low):
                return [
                    (
                        rng.choice(aut.elements)
                        if rng.random() < 0.7
                        else tuple(rng.sample(range(graph.n), graph.n)),
                        rng.randrange(low, length - 1),
                    )
                    for _ in range(rng.randint(0, 3))
                ]

            pt.forward, pt.backward = alignments(1), alignments(0)
            verdict = _accept(pt)
            assert verdict == reference_accept_tails(pt), (w, pt.forward, pt.backward)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_search_leaves_match_the_predicates(monkeypatch):
    # Every full-length prefix the search enters, for every configuration,
    # gets from `_accept` the verdict of the predicates and `is_canonical`
    # on the closed walk.  Recorded besides: which of the three groups
    # `_accept` reads from the 2-arc index (forwards from the last arc,
    # forwards and backwards from the closing arc) had tied alignments,
    # whose tails are walked, or a witness, which rejects at once.
    original = enumerator._accept
    leaves = []

    def recording(partial):
        verdict = original(partial)
        seq = partial.seq
        before, last = seq[-2], seq[-1]
        two_arc = partial._two_arc
        groups = (two_arc[before][last][0], two_arc[last][0][1], two_arc[0][last][before])
        leaves.append((tuple(seq), verdict, groups))
        return verdict

    monkeypatch.setattr(enumerator, "_accept", recording)
    tied = [0, 0, 0]
    below = [0, 0, 0]
    verdicts = set()
    for graph in LEAF_CHECK_GRAPHS + random_graphs(5, 24):
        aut = automorphisms(graph)
        for cfg in ALL_CONFIGS:
            leaves.clear()
            enumerate_traces(graph, cfg, aut=aut)
            for w, verdict, groups in leaves:
                expected = (
                    is_double_trace(graph, w)
                    and satisfies_kind(graph, w, cfg)
                    and satisfies_orientation(graph, w, cfg)
                    and is_canonical(graph, w, aut)
                )
                assert verdict == expected, (w, cfg.describe())
                verdicts.add(verdict)
                for i, (group_tied, group_below) in enumerate(groups):
                    tied[i] += bool(group_tied)
                    below[i] += group_below is not None
    assert verdicts == {True, False}
    assert min(tied) > 0, tied
    # A witness from the closing arc forwards was never seen.
    assert below[0] > 0 and below[2] > 0, below


def test_backward_alignments_started_after_the_end_is_forced_tie_on_it(monkeypatch):
    # `prune` compares the backward alignments with the closing vertex c
    # only on the push that forces c.  One that starts later, at s, maps
    # the prefix, reversed, onto itself with perm[0] = w_s, so edge use is
    # perm-invariant: as 0 has one edge with a traversal left, the one to
    # c, w_s has one too, the one to perm[c], and w_{s+1} = perm[c].
    # Checked on every prefix the search enters, in every configuration.
    original = enumerator.prune
    checked = 0

    def checking(partial):
        nonlocal checked
        original(partial)
        seq = partial.seq
        closing = partial.closing
        if closing >= 0 and partial.smaller_witness is None:
            # 0 is not visited after the push that forces c, or c is
            # forced at the root, where 0 is a leaf.
            forced_at = max(i for i, x in enumerate(seq) if x == 0) + 1
            for perm, s in partial.backward:
                if s >= forced_at and s + 1 < len(seq):
                    assert perm[closing] == seq[s + 1], (seq, perm, s)
                    checked += 1
        return partial

    monkeypatch.setattr(enumerator, "prune", checking)
    graphs = (
        LEAF_CHECK_GRAPHS[:3]
        + random_graphs(3, 6)
        + random_graphs(5, 24)
        + list(PENDANT_START_GRAPHS.values())
    )
    for graph in graphs:
        aut = automorphisms(graph)
        for cfg in ALL_CONFIGS:
            enumerate_traces(graph, cfg, aut=aut)
    assert checked > 0


def search_with(partial, jobs):
    """The traces of a search on `partial`, serially or dealt to `jobs`
    processes."""
    if jobs == 1:
        return list(enumerator._descend(partial, 2 * partial.graph.m))
    parts = enumerator._enumerate_parallel(partial, jobs, list)
    return [w for part in parts for w in part]


KIND_ANY_GRAPHS = {
    **{f"random3-{i}": g for i, g in enumerate(random_graphs(3, 6))},
    **PENDANT_START_GRAPHS,
}


@pytest.mark.parametrize("graph", KIND_ANY_GRAPHS.values(), ids=KIND_ANY_GRAPHS.keys())
def test_kind_any_search_needs_no_transition_paths(graph):
    # With no kind bound the state has no transition paths, and its
    # search, bypassing the root decision, still gives the oracle's traces.
    aut = automorphisms(graph)
    for cfg in ALL_CONFIGS:
        if cfg.kind != "any":
            continue
        expected = canonical_orbit_representatives(graph, cfg)
        for jobs in (1, 2):
            partial = PartialTrace(graph, aut, cfg)
            assert partial.bound == 0 and partial.mate is None and partial.span is None
            assert search_with(partial, jobs) == expected, (cfg.describe(), jobs)


@pytest.mark.parametrize(
    "name,k,cfg",
    [
        ("pyramid", 5, EnumerationConfig()),
        ("bipyramid", 3, EnumerationConfig()),
        ("pyramid", 6, EnumerationConfig(kind="stable", d=2)),
        ("bipyramid", 3, EnumerationConfig(kind="stable", d=1)),
    ],
    ids=["pyramid5-any", "bipyramid3-any", "pyramid6-stable2", "bipyramid3-stable1"],
)
def test_search_keeps_transition_paths_only_under_a_kind_bound(monkeypatch, name, k, cfg):
    # The rows the CLI benchmark runs: the search state is built without
    # transition paths for kind any, and the traces are those of a search
    # on a state built here.
    graph = named_graph(name, k)
    built = []
    original = enumerator.PartialTrace

    def recording(*args, **kwargs):
        partial = original(*args, **kwargs)
        built.append(partial.mate is not None)
        return partial

    monkeypatch.setattr(enumerator, "PartialTrace", recording)
    for jobs in (1, 2):
        built.clear()
        traces = enumerate_traces(graph, cfg, jobs=jobs)
        assert built == [cfg.kind != "any"]
        assert traces == search_with(PartialTrace(graph, automorphisms(graph), cfg), jobs), jobs


# Rows of the `tables` reference set that have no trace by a parity
# argument, with the pushes their searches took before `enumerate_traces`
# returned [] for them up front.
ROOT_TESTED_ROWS = {
    "tetrahedron-parallel": ("tetrahedron", None, "parallel", 17),
    "cube-parallel": ("cube", None, "parallel", 138),
    "prism4-antiparallel": ("prism", 4, "antiparallel", 119),
    "prism6-antiparallel": ("prism", 6, "antiparallel", 3198),
    "prism8-antiparallel": ("prism", 8, "antiparallel", 35098),
    "prism10-antiparallel": ("prism", 10, "antiparallel", 396622),
    "bipyramid3-antiparallel": ("bipyramid", 3, "antiparallel", 581),
    "dodecahedron-parallel": ("dodecahedron", None, "parallel", 25925),
}


@pytest.mark.parametrize(
    "name,k,orientation,pushes_before", ROOT_TESTED_ROWS.values(), ids=ROOT_TESTED_ROWS.keys()
)
def test_provably_empty_rows_search_nothing(monkeypatch, name, k, orientation, pushes_before):
    calls = 0
    original = enumerator.prune

    def counting(partial):
        nonlocal calls
        calls += 1
        return original(partial)

    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(enumerator, "prune", counting)
    monkeypatch.setattr(multiprocessing, "Process", refuse)
    graph = named_graph(name, k)
    cfg = EnumerationConfig(kind="strong", orientation=orientation)
    for jobs in (1, 2):
        assert enumerate_traces(graph, cfg, jobs=jobs) == []
    assert calls == 0 < pushes_before


def test_root_decision_comes_before_the_automorphism_group(monkeypatch):
    # Dodecahedron strong antiparallel is decided by its odd cycle rank,
    # so neither function computes the group of order 120.
    def refuse(graph):
        raise AssertionError("automorphisms computed")

    monkeypatch.setattr(enumerator, "automorphisms", refuse)
    graph = named_graph("dodecahedron")
    cfg = EnumerationConfig(kind="strong", orientation="antiparallel")
    assert enumerate_traces(graph, cfg) == []
    assert count_traces(graph, cfg) == 0


# A graph of even cycle rank with no strong antiparallel trace: the
# spanning-tree test decides it at the root, where its search took 9
# pushes while only the parity half was tested there.
SPANNING_TREE_DECIDED = (random_graphs(5, 24)[5], 9)


def test_spanning_tree_decided_graph_searches_nothing(monkeypatch):
    graph, pushes_before = SPANNING_TREE_DECIDED
    assert (graph.m - graph.n + 1) % 2 == 0
    calls = 0
    original = enumerator.prune

    def counting(partial):
        nonlocal calls
        calls += 1
        return original(partial)

    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(enumerator, "prune", counting)
    monkeypatch.setattr(multiprocessing, "Process", refuse)
    cfg = EnumerationConfig(kind="strong", orientation="antiparallel")
    for jobs in (1, 2):
        assert enumerate_traces(graph, cfg, jobs=jobs) == []
    assert calls == 0 < pushes_before


# The graphs with at most `ANTIPARALLEL_MAX_EDGES` edges whose searches
# are quick: the named ones and the random ones of the oracle tests.
REASON_CHECK_GRAPHS = {
    "tetrahedron": named_graph("tetrahedron"),
    "cube": named_graph("cube"),
    "octahedron": named_graph("octahedron"),
    **{f"prism{k}": named_graph("prism", k) for k in (3, 4, 5)},
    **{f"pyramid{k}": named_graph("pyramid", k) for k in (4, 5, 6)},
    **{f"bipyramid{k}": named_graph("bipyramid", k) for k in (3, 4)},
    **{f"random3-{i}": g for i, g in enumerate(random_graphs(3, 6))},
    **{f"random5-{i}": g for i, g in enumerate(random_graphs(5, 24))},
}


@pytest.mark.parametrize(
    "graph", REASON_CHECK_GRAPHS.values(), ids=REASON_CHECK_GRAPHS.keys()
)
def test_no_trace_reason_is_sound(monkeypatch, graph):
    # Wherever a reason is given, the search, run with the root decision
    # bypassed, finds no trace.
    assert graph.m <= enumerator.ANTIPARALLEL_MAX_EDGES
    reasons = {cfg: no_trace_reason(graph, cfg) for cfg in ALL_CONFIGS}
    monkeypatch.setattr(enumerator, "no_trace_reason", lambda graph, config: None)
    for cfg, reason in reasons.items():
        if reason is not None:
            assert enumerate_traces(graph, cfg) == [], (cfg.describe(), reason)


def reference_lookahead_ok(graph, seq, a, u, v, bound):
    """`_kind_lookahead_ok` from `seq` alone: the transition multigraph at
    u plus the pair {a, v}, then a search for the component of a."""
    links = {x: [] for x in graph.adj[u]}
    pairs = [(seq[i - 1], seq[i + 1]) for i in range(1, len(seq) - 1) if seq[i] == u]
    for x, y in pairs + [(a, v)]:
        links[x].append(y)
        links[y].append(x)
    component = {a}
    todo = [a]
    while todo:
        for y in links[todo.pop()]:
            if y not in component:
                component.add(y)
                todo.append(y)
    saturated = all(len(links[x]) == 2 for x in component)
    doomed = saturated and len(component) < graph.degree(u) and len(component) <= bound
    return not doomed


LOOKAHEAD_GRAPHS = {
    "K4": named_graph("tetrahedron"),
    "prism3": named_graph("prism", 3),
    "pyramid4": named_graph("pyramid", 4),
    "bipyramid3": named_graph("bipyramid", 3),
    **PENDANT_START_GRAPHS,
    **{f"random3-{i}": g for i, g in enumerate(random_graphs(3, 6))},
}


@pytest.mark.parametrize("graph", LOOKAHEAD_GRAPHS.values(), ids=LOOKAHEAD_GRAPHS.keys())
def test_kind_lookahead_matches_reference_and_cuts_at_most_one_step(graph):
    # Walk the whole search for bounds 1, 2 and n.  At every node every
    # feasible step gets the reference's verdict, and at most one fails:
    # the step to the far end of w_{p-2}'s path.  At the leaves the two
    # closing pairs get it too, the one at w_0 with the pending w_1.
    seen = set()
    for cfg in (
        EnumerationConfig(kind="stable", d=1),
        EnumerationConfig(kind="stable", d=2),
        EnumerationConfig(kind="strong"),
    ):
        pt = PartialTrace(graph, automorphisms(graph), cfg)
        bound = pt.bound
        seq = pt.seq

        def check(a, u, v):
            got = _kind_lookahead_ok(pt, a, u, v, bound)
            assert got == reference_lookahead_ok(graph, seq, a, u, v, bound), (seq, v, bound)
            seen.add(got)
            return got

        def walk():
            if len(seq) == 2 * graph.m:
                check(seq[-2], seq[-1], 0)
                check(seq[-1], 0, 1)
                return
            cands = feasible_neighbors(pt)
            kept = [v for v in cands if check(seq[-2], seq[-1], v)]
            assert len(cands) - len(kept) <= 1, seq
            for v in canonical_extension(pt, kept):
                pt.push(v)
                if pt.smaller_witness is None:
                    walk()
                pt.pop()

        walk()
    # A tree's double traces all run round it, so no step fails there.
    assert seen == ({True, False} if graph.m >= graph.n else {True})


@pytest.mark.parametrize(
    "prefix,v,verdicts",
    [
        # The self-pair {1, 1} at 2 leaves 1 a repetition of its own.
        ((0, 1, 2), 1, (False, False, False)),
        # The pair {2, 0} at 1 repeats the one from 0,1,2: a repetition of
        # two, allowed by stable(1) only.
        ((0, 1, 2, 3, 0, 2, 1), 0, (True, False, False)),
        # The pair {2, 3} at 1 joins the path 0-2 to 3, closing nothing.
        ((0, 1, 2, 3, 0, 2, 1), 3, (True, True, True)),
    ],
    ids=["self-pair", "repeated-pair", "join"],
)
def test_kind_lookahead_on_k4(k4, prefix, v, verdicts):
    pt = build_partial(k4, prefix)
    for bound, expected in zip((1, 2, 4), verdicts):
        assert _kind_lookahead_ok(pt, prefix[-2], prefix[-1], v, bound) is expected
        assert reference_lookahead_ok(k4, prefix, prefix[-2], prefix[-1], v, bound) is expected


class TestFeasibilityPredicates:
    def test_parallel_strong_needs_even_degrees(self):
        assert admits_parallel_strong(named_graph("octahedron"))
        assert admits_parallel_strong(Graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert not admits_parallel_strong(named_graph("tetrahedron"))
        assert not admits_parallel_strong(named_graph("cube"))

    @pytest.mark.parametrize(
        "graph",
        [Graph(3, [(0, 1), (0, 2), (1, 2)]), named_graph("tetrahedron")]
        + list(PENDANT_START_GRAPHS.values()),
        ids=["triangle", "K4"] + list(PENDANT_START_GRAPHS.keys()),
    )
    def test_d_stable_matches_enumeration(self, graph):
        # A strong trace has no repetition, so it is d-stable for every d,
        # and every connected graph has one (Fijavz, Pisanski and Rus, 2014).
        for d in range(1, graph.n + 2):
            assert enumerate_traces(graph, EnumerationConfig(kind="stable", d=d)), d

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

    # random_graphs(5, 24)[5] has an even number of co-tree edges and no
    # antiparallel strong trace: its False comes from the spanning trees.
    # `enumerate_traces` decides from the same test at the root, so the
    # search runs here with that decision bypassed.
    @pytest.mark.parametrize("graph", random_graphs(3, 6) + random_graphs(5, 24))
    def test_antiparallel_strong_matches_search(self, monkeypatch, graph):
        assert graph.m <= enumerator.ANTIPARALLEL_MAX_EDGES
        monkeypatch.setattr(enumerator, "no_trace_reason", lambda graph, config: None)
        cfg = EnumerationConfig(kind="strong", orientation="antiparallel")
        assert admits_antiparallel_strong(graph) == bool(enumerate_traces(graph, cfg))

    def test_antiparallel_triangle(self, triangle):
        # The co-tree of any spanning tree is a single edge: always odd.
        assert not admits_antiparallel_strong(triangle)

    def test_antiparallel_size_guard(self, monkeypatch):
        with pytest.raises(SizeGuardError, match="refuses"):
            admits_antiparallel_strong(named_graph("prism", 7))
        # A larger budget lifts the refusal.
        monkeypatch.setattr(enumerator, "ANTIPARALLEL_MAX_EDGES", 21)
        assert admits_antiparallel_strong(named_graph("prism", 7))
