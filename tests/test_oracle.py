import re

import pytest

from doubletrace import (
    EnumerationConfig,
    Graph,
    OracleSizeError,
    SizeGuardError,
    SymmetryElement,
    apply_symmetry,
    automorphisms,
    brute_enumerate,
    canonical_orbit_representatives,
    emit_orbit_graph,
    enumerate_traces,
    is_canonical,
    is_double_trace,
    named_graph,
    orbit_partition,
    satisfies_kind,
    satisfies_orientation,
    symmetry_group_order,
    verify_against_oracle,
)
from doubletrace import oracle
from doubletrace.oracle import OrbitReport, VerificationReport, subgroup_elements

T_WEAK = (0, 1, 0, 2, 1, 2)
T_STRONG = (0, 1, 2, 0, 1, 2)
T_STRONG_REVERSED = (0, 2, 1, 0, 2, 1)


class TestBruteEnumerate:
    @pytest.mark.parametrize(
        "scope,kind,count",
        [
            ("all_starts", "any", 24),
            ("all_starts", "strong", 6),
            ("simple_only", "any", 4),
            ("simple_only", "strong", 1),
        ],
    )
    def test_triangle_counts(self, triangle, scope, kind, count):
        out = brute_enumerate(triangle, EnumerationConfig(kind=kind), scope=scope)
        assert len(out) == count

    def test_triangle_simple_set(self, triangle):
        assert sorted(brute_enumerate(triangle)) == [
            (0, 1, 0, 2, 1, 2),
            (0, 1, 2, 0, 1, 2),
            (0, 1, 2, 0, 2, 1),
            (0, 1, 2, 1, 0, 2),
        ]

    def test_triangle_orientation_filters(self, triangle):
        par = brute_enumerate(triangle, EnumerationConfig(orientation="parallel"))
        anti = brute_enumerate(triangle, EnumerationConfig(orientation="antiparallel"))
        assert sorted(par) == [T_STRONG]
        assert sorted(anti) == [
            (0, 1, 0, 2, 1, 2),
            (0, 1, 2, 0, 2, 1),
            (0, 1, 2, 1, 0, 2),
        ]
        # On the triangle every double trace is parallel or antiparallel:
        # mixed traversal would need a third edge visit somewhere.
        assert len(par) + len(anti) == 4

    def test_triangle_stable_one_matches_strong(self, triangle):
        # Degree-2 vertices only split into singletons, so 1-stable and
        # strong coincide on the triangle.
        stable = brute_enumerate(triangle, EnumerationConfig(kind="stable", d=1))
        strong = brute_enumerate(triangle, EnumerationConfig(kind="strong"))
        assert stable == strong == [T_STRONG]

    def test_k4_strong_counts(self, k4):
        assert len(brute_enumerate(k4, EnumerationConfig(kind="strong"), "all_starts")) == 672
        assert len(brute_enumerate(k4, EnumerationConfig(kind="strong"))) == 56

    def test_outputs_satisfy_predicates(self, k4):
        cfg = EnumerationConfig(kind="strong", orientation="antiparallel")
        for w in brute_enumerate(k4, cfg, scope="all_starts"):
            assert is_double_trace(k4, w)
            assert satisfies_kind(k4, w, cfg)
            assert satisfies_orientation(k4, w, cfg)

    @pytest.mark.parametrize("scope", ["simple_only", "all_starts"])
    @pytest.mark.parametrize("name", ["K2", "P3", "triangle", "K4"])
    def test_stable_for_every_d_matches_kind_predicate(self, request, name, scope):
        # A repetition-free trace is d-stable for every d, also for
        # d >= n, where no neighbourhood has a proper subset that large.
        graph = {
            "K2": Graph(2, [(0, 1)]),
            "P3": request.getfixturevalue("path3"),
            "triangle": request.getfixturevalue("triangle"),
            "K4": request.getfixturevalue("k4"),
        }[name]
        unrestricted = brute_enumerate(graph, scope=scope)
        for d in range(1, graph.n + 2):
            cfg = EnumerationConfig(kind="stable", d=d)
            expected = [w for w in unrestricted if satisfies_kind(graph, w, cfg)]
            assert brute_enumerate(graph, cfg, scope=scope) == expected, d
        strong = brute_enumerate(graph, EnumerationConfig(kind="strong"), scope=scope)
        stable_n = brute_enumerate(graph, EnumerationConfig(kind="stable", d=graph.n), scope=scope)
        assert stable_n == strong != []

    def test_walk_longer_than_the_recursion_limit(self, monkeypatch):
        # 1 198 steps on a 600-vertex path; its one double trace goes out
        # and back.
        monkeypatch.setenv("TRACE_ENUM_GUARD_OVERRIDE", "1")
        path600 = Graph(600, [(v, v + 1) for v in range(599)])
        traces = brute_enumerate(path600)
        assert traces == enumerate_traces(path600)
        assert len(traces) == 1

    def test_bad_scope(self, triangle):
        with pytest.raises(ValueError, match="scope"):
            brute_enumerate(triangle, scope="everything")

    def test_simple_scope_needs_base_edge(self):
        g = Graph(3, [(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="adjacent"):
            brute_enumerate(g)


class TestGuards:
    def test_all_starts_guard(self, monkeypatch, k4):
        monkeypatch.setattr(oracle, "ALL_STARTS_MAX_EDGES", 3)
        with pytest.raises(OracleSizeError, match="refuses"):
            brute_enumerate(k4, scope="all_starts")

    def test_simple_guard(self, monkeypatch, k4):
        monkeypatch.setattr(oracle, "SIMPLE_MAX_EDGES", 3)
        with pytest.raises(OracleSizeError, match="TRACE_ENUM_GUARD_OVERRIDE"):
            brute_enumerate(k4)

    def test_env_override_lifts_guard(self, monkeypatch, k4):
        monkeypatch.setattr(oracle, "ALL_STARTS_MAX_EDGES", 3)
        monkeypatch.setenv("TRACE_ENUM_GUARD_OVERRIDE", "1")
        out = brute_enumerate(k4, EnumerationConfig(kind="strong"), "all_starts")
        assert len(out) == 672

    def test_real_limits(self):
        # prism(5) has 15 edges: within the simple-scope limit, beyond the
        # all-starts limit; prism(6) has 18: beyond both.
        with pytest.raises(OracleSizeError):
            brute_enumerate(named_graph("prism", 5), scope="all_starts")
        with pytest.raises(OracleSizeError):
            brute_enumerate(named_graph("prism", 6))

    @pytest.fixture
    def small_raw_cap(self, monkeypatch):
        # A cached trace set would be returned without running the DFS.
        oracle._raw_double_traces.cache_clear()
        monkeypatch.setattr(oracle, "RAW_TRACES_MAX", 100)
        yield
        oracle._raw_double_traces.cache_clear()

    def test_raw_trace_cap(self, small_raw_cap, k4):
        # K4 has 8 160 all-starts sequences, within the edge guard.
        with pytest.raises(OracleSizeError, match="more than 100 raw traces") as exc:
            brute_enumerate(k4, scope="all_starts")
        assert "TRACE_ENUM_GUARD_OVERRIDE" in str(exc.value)

    def test_env_override_lifts_raw_trace_cap(self, small_raw_cap, monkeypatch, k4):
        monkeypatch.setenv("TRACE_ENUM_GUARD_OVERRIDE", "1")
        assert len(brute_enumerate(k4, scope="all_starts")) == 8160

    def test_size_error_is_value_error(self):
        assert issubclass(OracleSizeError, SizeGuardError)
        assert issubclass(OracleSizeError, ValueError)


class TestOrbitPartition:
    @pytest.fixture
    def k4_strong_all(self, k4):
        return brute_enumerate(k4, EnumerationConfig(kind="strong"), "all_starts")

    def test_full_group_orbits(self, k4, k4_strong_all):
        aut = automorphisms(k4)
        report = orbit_partition(k4_strong_all, aut, "gamma")
        assert report.total == 672
        assert len(report.orbits) == 3
        assert report.sizes == [288, 288, 96]
        assert report.size_counts() == {288: 2, 96: 1}
        # Orbit sizes divide the group order (orbit-stabilizer).
        order = symmetry_group_order(aut, 12)
        assert order == 576
        for orbit in report.orbits:
            assert order % orbit.size == 0
        # Each representative is the orbit minimum: canonical and rooted.
        for orbit in report.orbits:
            assert orbit.representative[:2] == (0, 1)
            assert is_canonical(k4, orbit.representative, aut)

    @pytest.mark.parametrize(
        "subgroup,orbit_count,size",
        [("aut", 28, 24), ("reversal", 336, 2), ("shift", 56, 12)],
    )
    def test_subgroup_orbits(self, k4, k4_strong_all, subgroup, orbit_count, size):
        report = orbit_partition(k4_strong_all, automorphisms(k4), subgroup)
        assert len(report.orbits) == orbit_count
        assert report.size_counts() == {size: orbit_count}

    def test_triangle_orbits(self, triangle):
        aut = automorphisms(triangle)
        traces = brute_enumerate(triangle, scope="all_starts")
        report = orbit_partition(traces, aut, "gamma")
        assert report.sizes == [18, 6]
        assert [o.representative for o in report.orbits] == [T_WEAK, T_STRONG]
        order = symmetry_group_order(aut, 6)
        assert order == 72
        assert all(order % o.size == 0 for o in report.orbits)

    def test_rejects_unclosed_set(self, triangle):
        with pytest.raises(ValueError, match="not closed"):
            orbit_partition([T_STRONG], automorphisms(triangle), "gamma")

    def test_empty_set(self, triangle):
        report = orbit_partition([], automorphisms(triangle), "gamma")
        assert report.total == 0 and report.orbits == []

    def test_to_json(self, triangle):
        traces = brute_enumerate(triangle, scope="all_starts")
        payload = orbit_partition(traces, automorphisms(triangle), "gamma").to_json()
        assert payload["subgroup"] == "gamma"
        assert payload["total"] == 24
        assert payload["orbit_count"] == 2
        assert payload["orbits"][0]["representative"] == list(T_WEAK)

    def test_subgroup_elements_sizes(self, triangle):
        aut = automorphisms(triangle)
        assert len(subgroup_elements("gamma", aut, 6)) == 72
        assert len(subgroup_elements("aut", aut, 6)) == 6
        assert len(subgroup_elements("reversal", aut, 6)) == 2
        assert len(subgroup_elements("shift", aut, 6)) == 6
        with pytest.raises(ValueError, match="subgroup"):
            subgroup_elements("mirror", aut, 6)


class TestCanonicalRepresentatives:
    def test_triangle(self, triangle):
        assert canonical_orbit_representatives(triangle) == [T_WEAK, T_STRONG]

    def test_k4_strong(self, k4):
        reps = canonical_orbit_representatives(k4, EnumerationConfig(kind="strong"))
        assert reps == [
            (0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3),
            (0, 1, 2, 0, 1, 3, 2, 0, 3, 1, 2, 3),
            (0, 1, 2, 0, 1, 3, 2, 1, 3, 0, 2, 3),
        ]

    @pytest.mark.parametrize(
        "graph_name,kind",
        [("triangle", "any"), ("k4", "strong")],
    )
    def test_matches_canonicity_filter(self, request, graph_name, kind):
        # Two independent roads to the same set: orbit minima on one hand,
        # the canonicity predicate filtering the brute set on the other.
        graph = request.getfixturevalue(graph_name)
        cfg = EnumerationConfig(kind=kind)
        reps = canonical_orbit_representatives(graph, cfg)
        aut = automorphisms(graph)
        filtered = [w for w in brute_enumerate(graph, cfg) if is_canonical(graph, w, aut)]
        assert reps == sorted(filtered)

    def test_rejects_unclosed_set(self, monkeypatch, triangle):
        # T_WEAK's orbit has other members that start 0 1.
        monkeypatch.setattr(oracle, "brute_enumerate", lambda *args, **kwargs: [T_WEAK])
        with pytest.raises(ValueError, match="not closed"):
            canonical_orbit_representatives(triangle)


class TestVerifyAgainstOracle:
    def test_k4_strong(self, k4):
        report = verify_against_oracle(k4, EnumerationConfig(kind="strong"))
        assert report.equal
        assert report.enumerator_count == report.oracle_count == 3
        assert report.missing == [] and report.extra == []
        assert report.summary().startswith("OK:")
        assert "enumerator=3 oracle=3" in report.summary()

    def test_triangle_default_config(self, triangle):
        report = verify_against_oracle(triangle)
        assert report.equal and report.oracle_count == 2

    @pytest.mark.parametrize(
        "name,k,kind,expected",
        [("pyramid", 4, "strong", 52), ("prism", 3, "strong", 25)],
    )
    def test_mid_size_graphs(self, name, k, kind, expected):
        graph = named_graph(name, k)
        report = verify_against_oracle(graph, EnumerationConfig(kind=kind))
        assert report.equal
        assert report.enumerator_count == expected

    def test_mismatch_summary(self, triangle):
        report = VerificationReport(
            graph=triangle,
            config=EnumerationConfig(),
            equal=False,
            enumerator_count=1,
            oracle_count=2,
            missing=[T_WEAK],
            extra=[],
        )
        text = report.summary()
        assert text.startswith("MISMATCH:")
        assert "missing 1" in text and "extra 0" in text


def parse_dot(text):
    nodes = re.findall(r"^\s*(t\d+) \[", text, flags=re.M)
    edges = re.findall(r"^\s*(t\d+) -- (t\d+);", text, flags=re.M)
    return nodes, edges


def component_sizes(nodes, edges):
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    sizes = {}
    for v in nodes:
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values(), reverse=True)


class TestOrbitGraph:
    def test_single_fixed_trace(self, triangle):
        # This trace is its own reversal (read backwards from the end it
        # repeats itself), so it forms a one-element reversal orbit.
        dot = emit_orbit_graph([(0, 1, 2, 0, 2, 1)], automorphisms(triangle), "reversal")
        nodes, edges = parse_dot(dot)
        assert len(nodes) == 1 and edges == []
        assert 'label="0 1 2 0 2 1"' in dot

    def test_reversal_pair(self, triangle):
        dot = emit_orbit_graph(
            [T_STRONG, T_STRONG_REVERSED], automorphisms(triangle), "reversal"
        )
        nodes, edges = parse_dot(dot)
        assert len(nodes) == 2 and len(edges) == 1

    def test_reads_an_iterator_once(self, triangle):
        traces = iter([T_STRONG, T_STRONG_REVERSED])
        nodes, edges = parse_dot(emit_orbit_graph(traces, automorphisms(triangle), "reversal"))
        assert len(nodes) == 2 and len(edges) == 1

    def test_components_match_orbits(self, k4):
        traces = brute_enumerate(k4, EnumerationConfig(kind="strong"), "all_starts")
        aut = automorphisms(k4)
        dot = emit_orbit_graph(traces, aut, "gamma")
        nodes, edges = parse_dot(dot)
        assert len(nodes) == 672
        assert component_sizes(nodes, edges) == [288, 288, 96]

    @pytest.mark.parametrize("subgroup", ["gamma", "aut", "reversal", "shift"])
    def test_each_trace_joined_to_its_orbit_minimum(self, k4, subgroup):
        traces = brute_enumerate(k4, EnumerationConfig(kind="strong"), "all_starts")
        aut = automorphisms(k4)
        dot = emit_orbit_graph(traces, aut, subgroup)
        trace_of = {
            node: tuple(int(v) for v in label.split())
            for node, label in re.findall(r'^\s*(t\d+) \[label="([\d ]+)"\];', dot, flags=re.M)
        }
        _, edges = parse_dot(dot)
        minima = {o.representative for o in orbit_partition(traces, aut, subgroup).orbits}
        # One edge from each trace that is not its orbit's minimum ...
        assert sorted(trace_of[b] for _, b in edges) == sorted(set(traces) - minima)
        # ... to that minimum.
        elements = subgroup_elements(subgroup, aut, 12)
        for a, b in edges:
            assert trace_of[a] == min(apply_symmetry(el, trace_of[b]) for el in elements)

    def test_k4_any_edge_count(self, k4):
        traces = brute_enumerate(k4, scope="all_starts")
        dot = emit_orbit_graph(traces, automorphisms(k4), "gamma")
        nodes, edges = parse_dot(dot)
        # 8 160 traces in 21 orbits.
        assert len(nodes) == 8160
        assert len(edges) == 8139

    def test_rejects_unclosed_set(self, triangle):
        with pytest.raises(ValueError, match="not closed"):
            emit_orbit_graph([T_STRONG], automorphisms(triangle), "gamma")
