import itertools
import random

import networkx as nx
import pytest

from doubletrace import (
    SymmetryElement,
    apply_symmetry,
    automorphisms,
    compose,
    identity_permutation,
    inverse_symmetry,
    invert,
    is_automorphism,
    NAMED_GRAPH_NAMES,
    named_graph,
    symmetry_elements,
    symmetry_group_order,
    Graph,
)

from conftest import brute_automorphisms


class TestPermutations:
    def test_identity(self):
        assert identity_permutation(4) == (0, 1, 2, 3)

    def test_compose_order(self):
        p = (1, 2, 0)  # 0->1, 1->2, 2->0
        q = (0, 2, 1)  # swap 1,2
        # (p . q)[1] = p[q[1]] = p[2] = 0
        assert compose(p, q) == (1, 0, 2)
        assert compose(q, p) == (2, 1, 0)

    def test_invert(self):
        p = (2, 0, 3, 1)
        assert compose(p, invert(p)) == (0, 1, 2, 3)
        assert compose(invert(p), p) == (0, 1, 2, 3)

    def test_is_automorphism(self, triangle):
        assert is_automorphism(triangle, (1, 2, 0))
        path = Graph(3, [(0, 1), (1, 2)])
        assert is_automorphism(path, (2, 1, 0))
        assert not is_automorphism(path, (1, 0, 2))
        assert not is_automorphism(path, (0, 0, 2))


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "graph_name,k,order",
        [
            ("tetrahedron", None, 24),
            ("cube", None, 48),
            ("octahedron", None, 48),
            ("prism", 3, 12),
            ("prism", 5, 20),
            ("pyramid", 4, 8),
            ("bipyramid", 3, 12),
        ],
    )
    def test_group_orders(self, graph_name, k, order):
        assert automorphisms(named_graph(graph_name, k)).order == order

    def test_dodecahedron_order(self):
        assert automorphisms(named_graph("dodecahedron")).order == 120

    def test_icosahedron_order(self):
        assert automorphisms(named_graph("icosahedron")).order == 120

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(3, [(0, 1), (0, 2), (1, 2)]),
            Graph(3, [(0, 1), (1, 2)]),
            Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            named_graph("tetrahedron"),
            named_graph("prism", 3),
            named_graph("pyramid", 4),
        ],
    )
    def test_matches_brute_force(self, graph):
        ours = set(automorphisms(graph).elements)
        assert ours == set(brute_automorphisms(graph))

    def test_matches_networkx_count(self):
        g = named_graph("prism", 6)
        nxg = nx.Graph(list(g.edges))
        matcher = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
        assert automorphisms(g).order == sum(1 for _ in matcher.isomorphisms_iter())

    def test_identity_first(self, k4):
        aut = automorphisms(k4)
        assert aut.elements[0] == (0, 1, 2, 3)

    def test_closure_under_composition(self, prism3):
        aut = automorphisms(prism3)
        elements = set(aut.elements)
        for p in aut.elements:
            assert invert(p) in elements
            for q in aut.elements:
                assert compose(p, q) in elements

    def test_all_elements_are_automorphisms(self, pyramid4):
        aut = automorphisms(pyramid4)
        assert all(is_automorphism(pyramid4, p) for p in aut)

    def test_contains(self, triangle):
        aut = automorphisms(triangle)
        assert (1, 2, 0) in aut
        assert aut.order == 6

    def test_format_one_line(self, triangle):
        text = automorphisms(triangle).format_one_line()
        assert text.splitlines()[0] == "0 1 2"
        assert len(text.splitlines()) == 6

    def test_asymmetric_graph(self):
        # Path of length 3 with one pendant: only the identity.
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        aut = automorphisms(g)
        assert aut.order == 2  # 3 and 4 are both pendants of distance 2 from 0? no:
        # vertices 3 (pendant at 2) and 4 (pendant at 1) are not symmetric,
        # but 0 and 4 are both pendants of vertex 1.
        assert set(aut.elements) == {(0, 1, 2, 3, 4), (4, 1, 2, 3, 0)}


def networkx_automorphisms(graph):
    nxg = nx.Graph(list(graph.edges))
    matcher = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
    return {tuple(m[v] for v in range(graph.n)) for m in matcher.isomorphisms_iter()}


def random_trees(rng, count):
    return [
        Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
        for n in (rng.randint(2, 14) for _ in range(count))
    ]


def sparse_random_graphs(rng, count):
    """A random spanning tree plus one to three chords."""
    out = []
    for tree in random_trees(rng, count):
        edges = set(tree.edges)
        pairs = [(u, v) for u in range(tree.n) for v in range(u + 1, tree.n)]
        for _ in range(rng.randint(1, 3)):
            edges.add(rng.choice(pairs))
        out.append(Graph(tree.n, edges))
    return out


def caterpillars(rng, count):
    """A path with up to two pendant vertices hung on each of its vertices."""
    out = []
    for _ in range(count):
        spine = rng.randint(2, 6)
        edges = [(i, i + 1) for i in range(spine - 1)]
        n = spine
        for i in range(spine):
            for _ in range(rng.randint(0, 2)):
                edges.append((i, n))
                n += 1
        out.append(Graph(n, edges))
    return out


def named_family_graphs():
    out = []
    for name in NAMED_GRAPH_NAMES:
        if name.endswith(":k"):
            out.extend(named_graph(name[:-2], k) for k in range(3, 7))
        else:
            out.append(named_graph(name))
    return out


class TestAutomorphismsAgainstNetworkx:
    @pytest.mark.parametrize(
        "family", [random_trees, sparse_random_graphs, caterpillars], ids=lambda f: f.__name__
    )
    def test_random_families(self, family):
        splits = 0
        for graph in family(random.Random(14), 40):
            elements = automorphisms(graph).elements
            assert set(elements) == networkx_automorphisms(graph)
            orbits = {frozenset(p[v] for p in elements) for v in range(graph.n)}
            splits += len(orbits) > len(set(graph.degree_sequence()))
        # Degree alone does not decide the orbits: in some graphs two
        # vertices of one degree lie in different orbits.
        assert splits > 0

    def test_named_families(self):
        for graph in named_family_graphs():
            assert set(automorphisms(graph).elements) == networkx_automorphisms(graph)


class TestSymmetryElements:
    def test_element_count(self, triangle):
        aut = automorphisms(triangle)
        elements = list(symmetry_elements(aut, 6))
        assert len(elements) == symmetry_group_order(aut, 6) == 6 * 2 * 6
        assert len(set(elements)) == len(elements)

    def test_apply_identity(self):
        gamma = SymmetryElement((0, 1, 2), 0, False)
        assert apply_symmetry(gamma, (0, 1, 0, 2, 1, 2)) == (0, 1, 0, 2, 1, 2)

    def test_apply_rotation(self):
        gamma = SymmetryElement((0, 1, 2), 2, False)
        assert apply_symmetry(gamma, (0, 1, 0, 2, 1, 2)) == (0, 2, 1, 2, 0, 1)

    def test_apply_reversal_keeps_start(self):
        # Start-preserving reversal: w_0 stays, the rest flips.
        gamma = SymmetryElement((0, 1, 2), 0, True)
        assert apply_symmetry(gamma, (0, 1, 0, 2, 1, 2)) == (0, 2, 1, 2, 0, 1)

    def test_apply_relabel(self):
        gamma = SymmetryElement((1, 0, 2), 0, False)
        assert apply_symmetry(gamma, (0, 1, 0, 2, 1, 2)) == (1, 0, 1, 2, 0, 2)

    def test_reversal_then_shift(self):
        seq = (0, 1, 2, 3)
        gamma = SymmetryElement((0, 1, 2, 3), 1, True)
        # reversal gives (0,3,2,1); shifting its start by one more step
        # along the reversed direction gives (3,2,1,0).
        assert apply_symmetry(gamma, seq) == (3, 2, 1, 0)

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError, match="shift"):
            apply_symmetry(SymmetryElement((0, 1), 4, False), (0, 1, 0, 1))

    def test_empty_walk(self):
        with pytest.raises(ValueError, match="empty"):
            apply_symmetry(SymmetryElement((0, 1), 0, False), ())

    def test_labels_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            apply_symmetry(SymmetryElement((0, 1), 0, False), (0, 1, 2, 1))

    @pytest.mark.parametrize("shift", range(6))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_inverse_roundtrip(self, shift, reverse):
        seq = (0, 1, 2, 0, 1, 2)
        gamma = SymmetryElement((1, 2, 0), shift, reverse)
        inv = inverse_symmetry(gamma, 6)
        assert apply_symmetry(inv, apply_symmetry(gamma, seq)) == seq
        assert apply_symmetry(gamma, apply_symmetry(inv, seq)) == seq

    def test_orbit_equals_convention_free_closure(self, triangle):
        """The triple action generates exactly the closure of the three
        primitive moves in any order of application."""
        aut = automorphisms(triangle)
        seq = (0, 1, 0, 2, 1, 2)
        ours = {apply_symmetry(g, seq) for g in symmetry_elements(aut, 6)}

        def rotations(w):
            return [tuple(w[i:] + w[:i]) for i in range(len(w))]

        closure = set()
        frontier = [seq]
        while frontier:
            w = frontier.pop()
            if w in closure:
                continue
            closure.add(w)
            frontier.extend(rotations(w))
            frontier.append(tuple(reversed(w)))
            for p in aut.elements:
                frontier.append(tuple(p[v] for v in w))
        assert ours == closure

    def test_group_action_composes(self, k4):
        """Applying two elements in sequence lands inside the orbit of one
        application, as a group action must."""
        aut = automorphisms(k4)
        seq = (0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3)
        orbit = {apply_symmetry(g, seq) for g in symmetry_elements(aut, 12)}
        some = [
            SymmetryElement(aut.elements[5], 3, True),
            SymmetryElement(aut.elements[17], 7, False),
        ]
        for g1 in some:
            mid = apply_symmetry(g1, seq)
            for g2 in some:
                assert apply_symmetry(g2, mid) in orbit
