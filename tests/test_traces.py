import pytest

from doubletrace import (
    EnumerationConfig,
    Graph,
    automorphisms,
    format_trace,
    is_canonical,
    is_d_stable,
    is_double_trace,
    is_strong,
    named_graph,
    orientation_class,
    parse_trace,
    repetitions,
    satisfies_kind,
    satisfies_orientation,
    transition_components,
)

from conftest import naive_is_canonical, naive_orbit

# Reference traces on the triangle (vertices 0,1,2; every edge twice,
# total length 6).
T_STRONG = (0, 1, 2, 0, 1, 2)  # connected transition structure everywhere
T_WEAK = (0, 1, 0, 2, 1, 2)  # splits at vertex 1 into the singletons {0} and {2}
K4_STRONG = (0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3)


class TestEnumerationConfig:
    def test_defaults(self):
        cfg = EnumerationConfig()
        assert cfg.kind == "any"
        assert cfg.orientation == "any"
        assert cfg.describe() == "kind=any orientation=any"

    def test_stable_needs_d(self):
        with pytest.raises(ValueError, match="positive integer d"):
            EnumerationConfig(kind="stable")
        with pytest.raises(ValueError, match="positive integer d"):
            EnumerationConfig(kind="stable", d=0)
        with pytest.raises(ValueError, match="positive integer d"):
            EnumerationConfig(kind="stable", d=True)

    def test_d_only_for_stable(self):
        with pytest.raises(ValueError, match="only meaningful"):
            EnumerationConfig(kind="strong", d=1)

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            EnumerationConfig(kind="weak")

    def test_bad_orientation(self):
        with pytest.raises(ValueError, match="orientation"):
            EnumerationConfig(orientation="forward")

    def test_describe_stable(self):
        assert (
            EnumerationConfig(kind="stable", d=2).describe()
            == "kind=stable(2) orientation=any"
        )


class TestIsDoubleTrace:
    def test_accepts_triangle_traces(self, triangle):
        assert is_double_trace(triangle, T_STRONG)
        assert is_double_trace(triangle, T_WEAK)

    def test_rejects_wrong_length(self, triangle):
        assert not is_double_trace(triangle, (0, 1, 2))

    def test_rejects_non_walk(self, triangle):
        assert not is_double_trace(triangle, (0, 1, 1, 2, 0, 2))

    def test_rejects_uneven_multiplicity(self, triangle):
        # Edge {0,1} three times, {0,2} once.
        assert not is_double_trace(triangle, (0, 1, 0, 1, 0, 2))

    def test_rejects_open_wraparound(self, triangle):
        # (…, 2, 2) closure step would be a loop.
        assert not is_double_trace(triangle, (0, 1, 2, 0, 1, 0))

    def test_rejects_bad_labels(self, triangle):
        assert not is_double_trace(triangle, (0, 1, 3, 0, 1, 2))

    def test_k2_double_trace(self):
        g = Graph(2, [(0, 1)])
        assert is_double_trace(g, (0, 1))
        assert not is_double_trace(g, (0, 0))

    def test_every_cyclic_rotation_is_a_double_trace(self, k4):
        w = K4_STRONG
        for s in range(len(w)):
            assert is_double_trace(k4, w[s:] + w[:s])


class TestRepetitions:
    def test_connected_vertex_has_no_repetition(self, triangle):
        assert repetitions(triangle, T_STRONG, 0) == []
        assert transition_components(triangle, T_STRONG, 0) == [[1, 2]]

    def test_split_vertex(self, triangle):
        # At vertex 1 the walk 0,1,0,2,1,2 pairs 0 with 0 and 2 with 2.
        comps = transition_components(triangle, T_WEAK, 1)
        assert comps == [[0], [2]]
        assert repetitions(triangle, T_WEAK, 1) == [[0], [2]]
        # Vertices 0 and 2 stay connected.
        assert transition_components(triangle, T_WEAK, 0) == [[1, 2]]
        assert repetitions(triangle, T_WEAK, 0) == []

    def test_wraparound_pair_counted(self, triangle):
        # The pair at w_0 couples the last and first steps.
        comps = transition_components(triangle, (0, 2, 1, 0, 2, 1), 0)
        assert comps == [[1, 2]]

    def test_strong_predicate(self, triangle, k4):
        assert is_strong(triangle, T_STRONG)
        assert not is_strong(triangle, T_WEAK)
        assert is_strong(k4, K4_STRONG)

    def test_d_stable_relations(self, triangle):
        # A strong trace is d-stable for every d.
        for d in (1, 2, 5):
            assert is_d_stable(triangle, T_STRONG, d)
        # T_WEAK splits into singletons, so it is not even 1-stable.
        assert not is_d_stable(triangle, T_WEAK, 1)

    def test_d_stable_requires_positive_d(self, triangle):
        with pytest.raises(ValueError, match="positive"):
            is_d_stable(triangle, T_STRONG, 0)

    def test_stable_between_sizes(self):
        # On the 4-pyramid a trace can split the apex into two pairs:
        # 2-stability then fails but 1-stability holds.
        g = named_graph("pyramid", 4)
        found = None
        from doubletrace import enumerate_traces

        ones = set(enumerate_traces(g, EnumerationConfig(kind="stable", d=1)))
        twos = set(enumerate_traces(g, EnumerationConfig(kind="stable", d=2)))
        assert twos <= ones
        found = ones - twos
        assert found
        for w in found:
            assert is_d_stable(g, w, 1) and not is_d_stable(g, w, 2)

    def test_satisfies_kind(self, triangle):
        any_cfg = EnumerationConfig()
        strong_cfg = EnumerationConfig(kind="strong")
        stable_cfg = EnumerationConfig(kind="stable", d=1)
        assert satisfies_kind(triangle, T_WEAK, any_cfg)
        assert not satisfies_kind(triangle, T_WEAK, strong_cfg)
        assert not satisfies_kind(triangle, T_WEAK, stable_cfg)
        assert satisfies_kind(triangle, T_STRONG, strong_cfg)


class TestOrientation:
    def test_parallel(self, triangle):
        label, record = orientation_class(triangle, T_STRONG)
        assert label == "parallel"
        assert record[triangle.edge_id(0, 1)] == ((0, 1), (0, 1))

    def test_antiparallel(self, triangle):
        label, record = orientation_class(triangle, T_WEAK)
        assert label == "antiparallel"
        assert record[triangle.edge_id(0, 1)] == ((0, 1), (1, 0))

    def test_mixed(self, k4):
        label, _ = orientation_class(k4, K4_STRONG)
        assert label == "mixed"

    def test_satisfies_orientation(self, triangle):
        assert satisfies_orientation(triangle, T_STRONG, EnumerationConfig())
        assert satisfies_orientation(
            triangle, T_STRONG, EnumerationConfig(orientation="parallel")
        )
        assert not satisfies_orientation(
            triangle, T_STRONG, EnumerationConfig(orientation="antiparallel")
        )

    def test_reversal_swaps_parallel_classes(self, triangle):
        # Reversing a closed walk flips every traversal direction, so a
        # fully parallel trace stays parallel and an antiparallel one
        # stays antiparallel.
        rev = (T_STRONG[0],) + tuple(reversed(T_STRONG[1:]))
        assert orientation_class(triangle, rev)[0] == "parallel"


class TestIsCanonical:
    def test_triangle_canonicals(self, triangle):
        assert is_canonical(triangle, T_WEAK)
        assert is_canonical(triangle, T_STRONG)

    def test_rotation_is_not_canonical(self, triangle):
        w = T_STRONG[1:] + T_STRONG[:1]
        assert not is_canonical(triangle, w)

    def test_non_base_start_is_not_canonical(self, triangle):
        assert not is_canonical(triangle, (0, 2, 0, 1, 2, 1))

    def test_matches_naive_on_all_triangle_traces(self, triangle):
        from doubletrace import brute_enumerate

        aut = automorphisms(triangle)
        for w in brute_enumerate(triangle, EnumerationConfig(), scope="all_starts"):
            assert is_canonical(triangle, w, aut) == naive_is_canonical(triangle, w, aut)

    def test_matches_naive_on_k4_strong(self, k4):
        from doubletrace import brute_enumerate

        aut = automorphisms(k4)
        traces = brute_enumerate(k4, EnumerationConfig(kind="strong"), scope="all_starts")
        for w in traces:
            assert is_canonical(k4, w, aut) == naive_is_canonical(k4, w, aut)

    def test_exactly_one_canonical_per_orbit(self, triangle):
        aut = automorphisms(triangle)
        orbit = naive_orbit(aut, T_WEAK)
        canonicals = [w for w in orbit if is_canonical(triangle, w, aut)]
        assert canonicals == [min(orbit)]

    def test_reversal_symmetric_trace(self, triangle):
        # This fully antiparallel walk is literally fixed by the
        # start-preserving reversal, yet it is not the smallest member of
        # its orbit: the canonical representative is T_WEAK.
        from doubletrace import SymmetryElement, apply_symmetry

        w = (0, 1, 2, 0, 2, 1)
        assert orientation_class(triangle, w)[0] == "antiparallel"
        rev = SymmetryElement((0, 1, 2), 0, True)
        assert apply_symmetry(rev, w) == w
        assert not is_canonical(triangle, w)
        orbit = naive_orbit(automorphisms(triangle), w)
        assert min(orbit) == T_WEAK


class TestSegments:
    def test_prefix_order_decides_completions(self):
        """A strict inequality between equal-length prefixes persists for
        every pair of completions — the fact that lets the search reject a
        whole branch from one decided comparison."""
        import itertools

        a, b = (0, 1, 0), (0, 1, 2)
        assert a < b
        for sa in itertools.product(range(3), repeat=2):
            for sb in itertools.product(range(3), repeat=2):
                assert a + sa < b + sb


class TestFormatting:
    def test_roundtrip(self):
        assert parse_trace(format_trace(T_STRONG)) == T_STRONG

    def test_format(self):
        assert format_trace((0, 1, 2)) == "0 1 2"
