import multiprocessing
import random
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
    _kind_bound,
    _kind_lookahead_ok,
    _Search,
    extend_feasibly,
)

K4_STRONG = (0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3)


def build_partial(graph, seq):
    """Partial trace for an explicit prefix (no feasibility checking)."""
    pt = PartialTrace(graph, automorphisms(graph))
    assert tuple(seq[:2]) == (0, 1)
    for v in seq[2:]:
        pt.push(v)
    return pt


def make_search(graph, config):
    """The search record enumerate_traces builds."""
    return _Search(graph, config, automorphisms(graph), 2 * graph.m, _kind_bound(graph, config))


class TestPartialTrace:
    def test_initial_requires_base_edge(self):
        g = Graph(3, [(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="adjacent"):
            PartialTrace(g, automorphisms(g))

    def test_push_updates_bookkeeping(self, triangle):
        pt = build_partial(triangle, (0, 1, 2, 0))
        assert pt.seq == [0, 1, 2, 0]
        assert pt.zero_visits == 2
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
        idx = triangle.nbr_index[1]
        assert pt.mate[1][idx[0]] == idx[2]
        assert pt.mate[1][idx[2]] == idx[0]
        assert pt.span[1] == [2, 2]
        assert pt.mate[2] == [1, 0]
        assert pt.span[2] == [2, 2]
        assert pt.mate[0] == [0, 1]
        assert pt.span[0] == [1, 1]

    @staticmethod
    def snapshot(pt):
        return (
            list(pt.seq),
            list(pt.edge_count),
            list(pt.edge_from),
            pt.zero_visits,
            [list(x) for x in pt.mate],
            [list(x) for x in pt.span],
            pt.closing,
            list(pt.forward),
            list(pt.backward),
            list(pt.anchored),
            pt.smaller_witness,
        )

    def test_pop_restores_everything(self, k4):
        # Leaving 0 on its third visit forces the closing vertex 3.
        pt = build_partial(k4, (0, 1, 2, 0, 1, 3, 0))
        before = self.snapshot(pt)
        pt.push(2)
        assert pt.closing == 3
        pt.push(3)
        pt.pop()
        assert pt.closing == 3
        pt.pop()
        assert self.snapshot(pt) == before

    def test_pop_undoes_a_path_join(self, k4):
        # At vertex 1 the prefix 0,1,2,0,3,1 has the path 0-2; stepping
        # on to 0 pairs its end 0 with the unpaired 3, so the new ends 2
        # and 3 become mates over all three neighbours.
        pt = build_partial(k4, (0, 1, 2, 0, 3, 1))
        before = self.snapshot(pt)
        assert pt.mate[1] == [1, 0, 2] and pt.span[1] == [2, 2, 1]
        pt.push(0)
        assert pt.mate[1][2] == 1 and pt.mate[1][1] == 2
        assert pt.span[1][1] == pt.span[1][2] == 3
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
        idx = pt.graph.nbr_index[u]
        assert pt.mate[u][idx[pt.seq[-2]]] == idx[v]
        pt.push(v)
        assert self.snapshot(pt)[4:6] == before[4:6]
        pt.pop()
        assert self.snapshot(pt) == before

    @pytest.mark.parametrize(
        "fixture,prefix,tail,anchored",
        [
            ("triangle", (0, 1, 2), (1, 0), False),
            ("k4", (0, 1, 0, 2, 1, 2, 3, 0), (3, 1), False),
            ("k4", (0, 1, 0, 2, 1, 3, 0, 3, 2), (3, 1), True),
        ],
        ids=["triangle-reversal", "k4-end-anchored", "k4-after-anchoring"],
    )
    def test_pop_restores_the_symmetries_past_a_witness(
        self, request, fixture, prefix, tail, anchored
    ):
        # The first push of `tail` finds a witness (the triangle's forward
        # one on 0,1,2,1; K4's end-anchored one when 0,1,0,2,1,2,3,0,3 forces
        # the closing vertex 2; a backward one on 0,1,0,2,1,3,0,3,2,3,
        # after every open backward alignment was anchored), the second
        # inherits it.  Popping both brings back the tied alignments.
        pt = build_partial(request.getfixturevalue(fixture), prefix)
        before = self.snapshot(pt)
        assert before[-1] is None and before[-4]
        assert bool(before[-3]) is not anchored and bool(before[-2]) is anchored
        snapshots = []
        for v in tail:
            pt.push(v)
            assert pt.smaller_witness is not None
            assert pt.forward == pt.backward == pt.anchored == []
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


class TestFeasibleNeighbors:
    def test_open_start_allows_whole_neighborhood(self, k4):
        # At length 2 only adjacency and edge capacity constrain the step,
        # even for strong enumeration.
        pt = build_partial(k4, (0, 1))
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
        assert _kind_lookahead_ok(pt, 3, 1, 2, _kind_bound(k4, cfg))

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
            assert not _kind_lookahead_ok(pt, 2, 1, 2, _kind_bound(triangle, cfg))

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
            pt = PartialTrace(search.graph, search.aut)
            for v in prefix[2:]:
                pt.push(v)
            assert feasible_neighbors(pt, cfg) == []
            assert _accept(search, pt) is accepted


class TestClosingPairs:
    """The two pairs that only the closing step completes, {w_{2m-2}, 0}
    at w_{2m-1} and {w_{2m-1}, 1} at w_0, checked on the unclosed prefix."""

    @staticmethod
    def replay(graph, cfg, trace):
        """The search state for `trace`, and whether every in-search
        kind lookahead passed on the way."""
        search = make_search(graph, cfg)
        pt = PartialTrace(search.graph, search.aut)
        passed = True
        for v in trace[2:]:
            passed = passed and _kind_lookahead_ok(pt, pt.seq[-2], pt.seq[-1], v, search.kind_bound)
            pt.push(v)
        return search, pt, passed

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
        search, pt, passed = self.replay(k4, EnumerationConfig(kind="stable", d=1), trace)
        assert passed
        assert _kind_lookahead_ok(pt, trace[-2], trace[-1], 0, 1) is at_last
        assert _kind_lookahead_ok(pt, trace[-1], 0, 1, 1) is at_start
        # Neither prefix is canonical either, so `_accept` has two reasons.
        assert pt.smaller_witness is not None
        assert not _accept(search, pt)

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
        search, pt, passed = self.replay(graph, EnumerationConfig(kind="stable", d=1), trace)
        assert passed and pt.smaller_witness is None
        assert _kind_lookahead_ok(pt, trace[-2], trace[-1], 0, 1) is at_last
        assert _kind_lookahead_ok(pt, trace[-1], 0, 1, 1) is at_start
        assert not _accept(search, pt)
        assert _accept(make_search(graph, EnumerationConfig()), pt)
        assert len(pt) == 2 * graph.m


class TestCanonicalExtension:
    def test_collapses_symmetric_candidates(self, k4):
        # The stabilizer of the base edge in Aut(K4) swaps 2 and 3, so
        # one of them represents both.
        pt = build_partial(k4, (0, 1))
        assert canonical_extension(pt, [0, 2, 3]) == [0, 2]

    def test_unsorted_input(self, k4):
        pt = build_partial(k4, (0, 1))
        assert canonical_extension(pt, [3, 0, 2]) == [0, 2]

    def test_singleton(self, k4):
        pt = build_partial(k4, (0, 1))
        assert canonical_extension(pt, [2]) == [2]

    def test_trivial_stabilizer_keeps_all(self, k4):
        # After 0,1,2 no nontrivial automorphism fixes the prefix, so no
        # candidates collapse.
        pt = build_partial(k4, (0, 1, 2))
        assert canonical_extension(pt, [0, 1, 3]) == [0, 1, 3]


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
        pt = PartialTrace(k4, aut)
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


def search_state(pt):
    """Everything a search reads off a `PartialTrace`, as plain values."""
    return (
        list(pt.seq),
        list(pt.edge_count),
        list(pt.edge_from),
        pt.zero_visits,
        [list(row) for row in pt.mate],
        [list(row) for row in pt.span],
        pt.closing,
        list(pt.forward),
        list(pt.backward),
        list(pt.anchored),
        pt.smaller_witness,
    )


class TestReplay:
    def test_witnessed_prefix_is_refused(self, triangle):
        # 0,1,2,1 has a witness, so no frontier holds it.
        search = make_search(triangle, EnumerationConfig())
        pt = PartialTrace(search.graph, search.aut)
        with pytest.raises(AssertionError, match="replayed prefix was pruned"):
            pt.move_to((0, 1, 2, 1))

    @pytest.mark.parametrize(
        "name,k,cfg",
        [
            ("tetrahedron", None, EnumerationConfig(kind="strong")),
            ("prism", 3, EnumerationConfig()),
        ],
        ids=["k4-strong", "prism3-any"],
    )
    def test_moving_matches_a_fresh_replay(self, name, k, cfg):
        # One state moved across every frontier, shallowest first, as the
        # parallel driver moves it across one frontier.
        graph = named_graph(name, k)
        search = make_search(graph, cfg)
        moved = PartialTrace(search.graph, search.aut)
        for depth in range(3, search.length):
            frontier = extend_feasibly(PartialTrace(search.graph, search.aut), search, depth)
            for prefix in frontier:
                moved.move_to(prefix)
                fresh = PartialTrace(search.graph, search.aut)
                for v in prefix[2:]:
                    fresh.push(v)
                assert search_state(moved) == search_state(fresh), prefix


class TestExtendFeasibly:
    def test_frontier_in_search_order(self, k4):
        search = make_search(k4, EnumerationConfig(kind="strong"))
        pt = PartialTrace(search.graph, search.aut)
        # The kind lookahead cuts 0,1,0: pairing 0 with itself at vertex 1
        # fills both pair slots of 0 there, leaving {0} a repetition.
        assert extend_feasibly(pt, search, 3) == [(0, 1, 2)]
        assert extend_feasibly(pt, search, 4) == [(0, 1, 2, 0), (0, 1, 2, 3)]
        frontier = extend_feasibly(pt, search, 6)
        assert frontier == sorted(frontier)
        assert pt.seq == [0, 1]
        # The frontier covers the output.
        traces = enumerate_traces(k4, EnumerationConfig(kind="strong"))
        assert {w[:6] for w in traces} <= set(frontier)

    def test_pruned_children_are_dropped(self, triangle):
        # From 0,1,2 the only extensions are 0 and 1, and 0,1,2,1 is
        # killed by its witness.
        search = make_search(triangle, EnumerationConfig())
        pt = PartialTrace(search.graph, search.aut)
        pt.push(2)
        assert extend_feasibly(pt, search, 4) == [(0, 1, 2, 0)]
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
    search = make_search(graph, cfg)
    pt = PartialTrace(search.graph, search.aut)
    got = [len(extend_feasibly(pt, search, d)) for d in range(3, 2 * graph.m)]
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
        assert enumerate_traces(graph, cfg, jobs=3) == enumerate_traces(graph, cfg)

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

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, k4, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            enumerate_traces(k4, jobs=jobs)

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
    # Replay every double trace starting 0 1 through `push` (and so
    # `prune`) and `_accept`, also past a witness, where the search would
    # have stopped.  Sorted traces share prefixes, so each step is pushed
    # once per subtree.
    search = make_search(graph, EnumerationConfig())
    pt = PartialTrace(search.graph, search.aut)
    verdicts = set()
    for w in sorted(brute_enumerate(graph, EnumerationConfig())):
        common = 2
        while common < len(pt.seq) and pt.seq[common] == w[common]:
            common += 1
        while len(pt.seq) > common:
            pt.pop()
        for v in w[common:]:
            pt.push(v)
        accepted = _accept(search, pt)
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


@pytest.mark.parametrize(
    "graph", PENDANT_START_GRAPHS.values(), ids=PENDANT_START_GRAPHS.keys()
)
def test_pendant_start_vertex_serial_and_parallel_match_oracle(graph):
    assert graph.degree(0) == 1
    for cfg in ALL_CONFIGS:
        expected = canonical_orbit_representatives(graph, cfg)
        assert enumerate_traces(graph, cfg) == expected, cfg.describe()
        assert enumerate_traces(graph, cfg, jobs=2) == expected, cfg.describe()


def test_canonical_extension_drops_exactly_the_relabel_witnesses():
    # Walk whole searches for every config.  At every node push each
    # candidate that passed the kind lookahead: `prune` gives a new
    # relabel witness (start 0, forwards) to exactly those that
    # `canonical_extension` drops, so dropping them cuts nothing more.
    graphs = [named_graph("tetrahedron"), *PENDANT_START_GRAPHS.values(), random_graphs(3, 6)[1]]
    dropped = 0
    for graph in graphs:
        for cfg in ALL_CONFIGS:
            search = make_search(graph, cfg)
            pt = PartialTrace(search.graph, search.aut)
            seq = pt.seq
            bound = search.kind_bound

            def walk():
                nonlocal dropped
                if len(seq) == search.length:
                    return
                cands = [
                    v
                    for v in feasible_neighbors(pt, cfg)
                    if not bound or _kind_lookahead_ok(pt, seq[-2], seq[-1], v, bound)
                ]
                kept = canonical_extension(pt, cands)
                dropped += len(cands) - len(kept)
                for v in cands:
                    pt.push(v)
                    w = pt.smaller_witness
                    relabel_witness = w is not None and w == SymmetryElement(w.perm, 0, False)
                    assert relabel_witness is (v not in kept), (seq, cfg.describe())
                    if w is None:
                        walk()
                    pt.pop()

            walk()
    # Not vacuous: some candidates are dropped.
    assert dropped > 0


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
        search = make_search(graph, cfg)
        bound = search.kind_bound
        pt = PartialTrace(search.graph, search.aut)
        seq = pt.seq

        def check(a, u, v):
            got = _kind_lookahead_ok(pt, a, u, v, bound)
            assert got == reference_lookahead_ok(graph, seq, a, u, v, bound), (seq, v, bound)
            seen.add(got)
            return got

        def walk():
            if len(seq) == search.length:
                check(seq[-2], seq[-1], 0)
                check(seq[-1], 0, 1)
                return
            cands = feasible_neighbors(pt, cfg)
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

    def test_antiparallel_triangle(self, triangle):
        # The co-tree of any spanning tree is a single edge: always odd.
        assert not admits_antiparallel_strong(triangle)

    def test_antiparallel_size_guard(self, monkeypatch):
        with pytest.raises(SizeGuardError, match="refuses"):
            admits_antiparallel_strong(named_graph("prism", 7))
        # A larger budget lifts the refusal.
        monkeypatch.setattr(enumerator, "ANTIPARALLEL_MAX_EDGES", 21)
        assert admits_antiparallel_strong(named_graph("prism", 7))
