import tracemalloc

import pytest

import networkx as nx

from doubletrace import (
    DisconnectedGraphError,
    Graph,
    NAMED_GRAPH_NAMES,
    named_graph,
    normalize_base_edge,
    parse_edge_list,
    parse_graph6,
)


def nx_of(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    return g


class TestGraph:
    def test_basic_structure(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.n == 4
        assert g.m == 4
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert g.neighbors(0) == (1, 3)
        assert g.degree(2) == 2
        assert g.min_degree() == 2
        assert g.degree_sequence() == (2, 2, 2, 2)

    def test_edge_ids_are_sorted_positions(self):
        g = Graph(3, [(2, 1), (0, 2), (1, 0)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert g.edge_id(0, 1) == 0
        assert g.edge_id(1, 0) == 0
        assert g.edge_id(2, 1) == 2
        assert g.edge_of(1) == (0, 2)

    def test_edge_id_missing(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert not g.has_edge(0, 2)
        with pytest.raises(ValueError):
            g.edge_id(0, 2)

    @pytest.mark.parametrize("u,v", [(-1, 0), (0, -1), (4, 0), (0, 4)])
    def test_edge_id_rejects_labels_out_of_range(self, u, v):
        # -1 must not wrap round to vertex 3, the far end of the edge {0, 3}.
        g = named_graph("tetrahedron")
        assert not g.has_edge(u, v)
        with pytest.raises(ValueError, match="no edge"):
            g.edge_id(u, v)

    def test_eid_row_matches_edge_ids(self):
        g = named_graph("tetrahedron")
        for u in range(g.n):
            for v in range(g.n):
                if g.has_edge(u, v):
                    assert g.eid_row[u][v] == g.edge_id(u, v)
                else:
                    assert v not in g.eid_row[u]

    def test_long_path_builds_no_square_table(self):
        # Each row holds one vertex's edges, in `adj` order, which is
        # increasing, so that the search's candidates come out increasing.
        # The path visits the vertices in the order 0, 7, 14, ... (mod 600).
        n = 600
        edges = [(7 * i % n, 7 * (i + 1) % n) for i in range(n - 1)]
        tracemalloc.start()
        try:
            g = Graph(n, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        for u in range(n):
            assert list(g.eid_row[u]) == list(g.adj[u]) == sorted(g.adj[u])

    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(2, [(0, 0), (0, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError) as info:
            Graph(4, [(0, 1), (2, 3)])
        assert info.value.components == [[0, 1], [2, 3]]

    def test_rejects_disconnected_into_many_components(self):
        with pytest.raises(DisconnectedGraphError) as info:
            Graph(7, [(5, 6), (4, 0), (3, 1)])
        assert info.value.components == [[0, 4], [1, 3], [2], [5, 6]]
        assert str(info.value) == "graph is not connected (components: 0 4; 1 3; 2; 5 6)"

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2), (0, 2)])
        b = Graph(3, [(2, 0), (1, 0), (2, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(3, [(0, 1), (1, 2)])

    def test_pickle_roundtrip(self):
        import pickle

        g = named_graph("prism", 3)
        assert pickle.loads(pickle.dumps(g)) == g


class TestParseEdgeList:
    def test_parse_with_comments(self):
        g = parse_edge_list("# square\n0 1\n1 2\n2 3  # last\n3 0\n")
        assert g.n == 4
        assert g.m == 4

    def test_duplicate_collapsed_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate"):
            g = parse_edge_list("0 1\n1 0\n1 2\n")
        assert g.m == 2

    def test_bad_token_count(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("0 1\n1 2 3\n")

    def test_non_integer(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list("a b\n")

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            parse_edge_list("0 0\n")

    def test_empty_input(self):
        with pytest.raises(ValueError):
            parse_edge_list("# nothing\n")

    @pytest.mark.parametrize(
        "text,missing",
        [
            ("5 7\n7 9\n", "missing: 0, 1, 2, 3, 4, 6, 8$"),
            ("0 1\n1 30\n", "missing: 2, 3, 4, 5, 6, 7, 8, 9, 10, 11 and 18 more$"),
        ],
        ids=["gaps-below-and-between", "long-gap"],
    )
    def test_label_gaps_rejected(self, text, missing):
        with pytest.raises(ValueError, match="labels must be 0..n-1 with none missing") as info:
            parse_edge_list(text)
        assert not isinstance(info.value, DisconnectedGraphError)
        assert info.match(missing)

    def test_disconnected_without_gaps_rejected(self):
        with pytest.raises(DisconnectedGraphError, match="not connected"):
            parse_edge_list("0 1\n2 3\n")


class TestParseGraph6:
    def test_complete_graph_on_four(self):
        g = parse_graph6("C~")
        assert g == named_graph("tetrahedron")

    def test_triangle(self):
        # 'Bw' is the triangle: all three bits of the upper triangle set.
        g = parse_graph6("Bw")
        assert g.n == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_path(self):
        g = parse_graph6("Bg")
        assert g.edges == ((0, 1), (1, 2))

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<C~") == parse_graph6("C~")

    @pytest.mark.parametrize("text", ["C~", "Bw", "Bg", "DQc", "E?~o"])
    def test_matches_networkx(self, text):
        ours = parse_graph6(text)
        theirs = nx.from_graph6_bytes(text.encode())
        assert ours.n == theirs.number_of_nodes()
        assert set(ours.edges) == {tuple(sorted(e)) for e in theirs.edges()}

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_graph6("C")  # body too short for n=4

    def test_rejects_trailing(self):
        with pytest.raises(ValueError):
            parse_graph6("C~~")

    def test_rejects_bad_byte(self):
        with pytest.raises(ValueError):
            parse_graph6("C\x19")

    def test_disconnected_rejected(self):
        # Two disjoint edges on four vertices.
        with pytest.raises(DisconnectedGraphError):
            parse_graph6("CB")


class TestNamedGraphs:
    @pytest.mark.parametrize(
        "name,k,n,m",
        [
            ("tetrahedron", None, 4, 6),
            ("cube", None, 8, 12),
            ("octahedron", None, 6, 12),
            ("dodecahedron", None, 20, 30),
            ("icosahedron", None, 12, 30),
            ("prism", 3, 6, 9),
            ("prism", 7, 14, 21),
            ("pyramid", 4, 5, 8),
            ("bipyramid", 3, 5, 9),
        ],
    )
    def test_sizes(self, name, k, n, m):
        g = named_graph(name, k)
        assert (g.n, g.m) == (n, m)

    @pytest.mark.parametrize(
        "name,reference",
        [
            ("tetrahedron", nx.tetrahedral_graph),
            ("cube", lambda: nx.hypercube_graph(3)),
            ("octahedron", nx.octahedral_graph),
            ("dodecahedron", nx.dodecahedral_graph),
            ("icosahedron", nx.icosahedral_graph),
        ],
    )
    def test_solids_match_networkx(self, name, reference):
        assert nx.is_isomorphic(nx_of(named_graph(name)), reference())

    def test_prism_4_is_cube(self):
        assert nx.is_isomorphic(nx_of(named_graph("prism", 4)), nx_of(named_graph("cube")))

    def test_bipyramid_3_is_k5_minus_matching_edge(self):
        g = named_graph("bipyramid", 3)
        # Two apexes of degree 3, equator of degree 4.
        assert g.degree_sequence() == (3, 3, 4, 4, 4)

    def test_case_insensitive(self):
        assert named_graph("Tetrahedron") == named_graph("tetrahedron")

    def test_family_requires_size(self):
        with pytest.raises(ValueError, match="needs a size"):
            named_graph("prism")

    def test_fixed_rejects_size(self):
        with pytest.raises(ValueError, match="takes no size"):
            named_graph("cube", 3)

    def test_small_size_rejected(self):
        with pytest.raises(ValueError, match="k >= 3"):
            named_graph("prism", 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            named_graph("torus")

    def test_names_listing(self):
        assert "tetrahedron" in NAMED_GRAPH_NAMES
        assert "prism:k" in NAMED_GRAPH_NAMES


class TestNormalizeBaseEdge:
    def test_already_adjacent_is_identity(self):
        g = named_graph("tetrahedron")
        ng, perm = normalize_base_edge(g)
        assert ng == g
        assert perm == (0, 1, 2, 3)

    def test_swaps_in_smallest_neighbor(self):
        g = Graph(3, [(0, 2), (1, 2)])  # path 0-2-1
        ng, perm = normalize_base_edge(g)
        assert perm == (0, 2, 1)
        assert ng.has_edge(0, 1)
        assert ng.edges == ((0, 1), (1, 2))

    def test_relabelled_graph_is_isomorphic(self):
        g = Graph(5, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)])  # 5-cycle, 0 not ~ 1
        ng, perm = normalize_base_edge(g)
        assert ng.has_edge(0, 1)
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges}
        assert mapped == set(ng.edges)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            normalize_base_edge(Graph(1, []))
