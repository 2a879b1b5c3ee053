"""Independent brute-force enumeration and orbit analysis of double traces.

This module is the cross-check for the branch-and-bound enumerator and
deliberately shares nothing with it beyond the Graph type and
permutation tuples.  Traces are enumerated by plain backtracking,
repetitions are detected by direct subset enumeration instead of the
component method, and canonical representatives are found as
lexicographic minima over explicitly generated orbit members.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .automorphism import AutGroup, SymmetryElement, automorphisms
from .graph import Graph, SizeGuardError
from .traces import EnumerationConfig

ALL_STARTS_MAX_EDGES = 12
SIMPLE_MAX_EDGES = 15
GUARD_ENV = "TRACE_ENUM_GUARD_OVERRIDE"

SCOPES = ("simple_only", "all_starts")


class OracleSizeError(SizeGuardError):
    """Raised when a graph exceeds the brute-force guards."""


def _guard(graph: Graph, scope: str) -> None:
    if os.environ.get(GUARD_ENV):
        return
    limit = ALL_STARTS_MAX_EDGES if scope == "all_starts" else SIMPLE_MAX_EDGES
    if graph.m > limit:
        raise OracleSizeError(
            f"brute-force enumeration with scope {scope!r} refuses graphs with "
            f"more than {limit} edges (got {graph.m}); set {GUARD_ENV}=1 to override"
        )


@lru_cache(maxsize=16)
def _raw_double_traces(graph: Graph, scope: str) -> tuple[tuple[int, ...], ...]:
    """Every double-trace vertex sequence, by exhaustive backtracking."""
    length = 2 * graph.m
    adj = graph.adj
    eid = {}
    for u in range(graph.n):
        for v in adj[u]:
            eid[(u, v)] = graph.edge_id(u, v)
    count = [0] * graph.m
    out: list[tuple[int, ...]] = []

    def dfs(seq: list[int], first: int) -> None:
        u = seq[-1]
        if len(seq) == length:
            e = eid.get((u, first))
            if e is not None and count[e] == 1:
                out.append(tuple(seq))
            return
        for v in adj[u]:
            e = eid[(u, v)]
            if count[e] < 2:
                count[e] += 1
                seq.append(v)
                dfs(seq, first)
                seq.pop()
                count[e] -= 1

    if scope == "all_starts":
        for start in range(graph.n):
            dfs([start], start)
    else:
        if graph.n < 2 or not graph.has_edge(0, 1):
            raise ValueError("simple_only scope needs vertices 0 and 1 adjacent")
        e01 = eid[(0, 1)]
        count[e01] = 1
        dfs([0, 1], 0)
        count[e01] = 0
    return tuple(out)


@lru_cache(maxsize=64)
def _repetition_profiles(graph: Graph, scope: str) -> tuple[int, ...]:
    """Smallest repetition order of each raw trace (graph.n means none).

    Detected by checking every nonempty proper neighbourhood subset
    against the definition, smallest subsets first.
    """
    traces = _raw_double_traces(graph, scope)
    n = graph.n
    length = 2 * graph.m
    masks_by_vertex = []
    for v in range(n):
        neigh = graph.adj[v]
        deg = len(neigh)
        masks = sorted(range(1, (1 << deg) - 1), key=lambda m: bin(m).count("1"))
        subsets = [
            (bin(mask).count("1"), frozenset(neigh[t] for t in range(deg) if mask >> t & 1))
            for mask in masks
        ]
        masks_by_vertex.append(subsets)
    profiles = []
    for seq in traces:
        visit_pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, v in enumerate(seq):
            visit_pairs[v].append((seq[i - 1], seq[(i + 1) % length]))
        best = n
        for v in range(n):
            pairs = visit_pairs[v]
            for size, subset in masks_by_vertex[v]:
                if size >= best:
                    break
                if all((a in subset) == (b in subset) for a, b in pairs):
                    best = size
                    break
        profiles.append(best)
    return tuple(profiles)


def _orientation_label(graph: Graph, seq: Sequence[int]) -> str:
    length = len(seq)
    first_dir: dict[int, tuple[int, int]] = {}
    parallel = True
    antiparallel = True
    for i in range(length):
        u, v = seq[i], seq[(i + 1) % length]
        e = graph.edge_id(u, v)
        if e not in first_dir:
            first_dir[e] = (u, v)
        elif first_dir[e] == (u, v):
            antiparallel = False
        else:
            parallel = False
    if parallel:
        return "parallel"
    if antiparallel:
        return "antiparallel"
    return "mixed"


def brute_enumerate(
    graph: Graph,
    config: EnumerationConfig | None = None,
    scope: str = "simple_only",
) -> list[tuple[int, ...]]:
    """All double-trace sequences of the requested kind and orientation.

    scope "simple_only" keeps walks starting with the base edge (0, 1);
    "all_starts" enumerates every start vertex and direction.  Guarded by
    edge-count limits; the TRACE_ENUM_GUARD_OVERRIDE environment variable
    lifts them.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    if config is None:
        config = EnumerationConfig()
    _guard(graph, scope)
    traces = _raw_double_traces(graph, scope)
    if config.kind == "any":
        keep = list(traces)
    else:
        # Profiles use graph.n for "no repetition", and any repetition has
        # order at most n - 2, so strong means profile > n - 1.  So does
        # d-stable for d >= n - 1: there every repetition is too small.
        bound = graph.n - 1 if config.kind == "strong" else min(config.d, graph.n - 1)
        profiles = _repetition_profiles(graph, scope)
        keep = [seq for seq, prof in zip(traces, profiles) if prof > bound]
    if config.orientation != "any":
        keep = [seq for seq in keep if _orientation_label(graph, seq) == config.orientation]
    return keep


def _relabelled(perm: Sequence[int], seq: Sequence[int]) -> tuple[int, ...]:
    return tuple(perm[v] for v in seq)


def _rotations(seq: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [seq[i:] + seq[:i] for i in range(len(seq))]


def _apply_element(element: SymmetryElement, seq: Sequence[int]) -> tuple[int, ...]:
    """Oracle-local action; relabel first, then rotate, then reverse.

    The composition order differs from the main code path on purpose;
    both generate the same group, so orbits agree.
    """
    perm, shift, reverse = element
    length = len(seq)
    cur = tuple(perm[v] for v in seq)
    cur = cur[shift:] + cur[:shift]
    if reverse:
        cur = (cur[0],) + tuple(cur[:0:-1])
    return cur


def subgroup_elements(subgroup: str, aut: AutGroup, length: int) -> list[SymmetryElement]:
    identity = tuple(range(aut.n))
    if subgroup == "gamma":
        return [
            SymmetryElement(p, shift, reverse)
            for p in aut.elements
            for reverse in (False, True)
            for shift in range(length)
        ]
    if subgroup == "aut":
        return [SymmetryElement(p, 0, False) for p in aut.elements]
    if subgroup == "reversal":
        return [
            SymmetryElement(identity, 0, False),
            SymmetryElement(identity, 0, True),
        ]
    if subgroup == "shift":
        return [SymmetryElement(identity, shift, False) for shift in range(length)]
    raise ValueError(f"unknown subgroup {subgroup!r}")


@dataclass(frozen=True)
class Orbit:
    size: int
    representative: tuple[int, ...]


@dataclass
class OrbitReport:
    subgroup: str
    total: int
    orbits: list[Orbit] = field(default_factory=list)

    @property
    def sizes(self) -> list[int]:
        return sorted((o.size for o in self.orbits), reverse=True)

    def size_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for o in self.orbits:
            counts[o.size] = counts.get(o.size, 0) + 1
        return counts

    def to_json(self) -> dict:
        return {
            "subgroup": self.subgroup,
            "total": self.total,
            "orbit_count": len(self.orbits),
            "orbits": [
                {"size": o.size, "representative": list(o.representative)}
                for o in self.orbits
            ],
        }


def orbit_partition(
    traces: Iterable[tuple[int, ...]], aut: AutGroup, subgroup: str = "gamma"
) -> OrbitReport:
    """Partition a trace set closed under the subgroup's action into orbits."""
    trace_set = {tuple(t) for t in traces}
    if not trace_set:
        return OrbitReport(subgroup, 0, [])
    length = len(next(iter(trace_set)))
    elements = subgroup_elements(subgroup, aut, length)
    todo = set(trace_set)
    orbits = []
    while todo:
        seed = todo.pop()
        orbit = {_apply_element(el, seed) for el in elements}
        stray = orbit - trace_set
        if stray:
            raise ValueError(
                f"trace set is not closed under subgroup {subgroup!r}: "
                f"missing {sorted(stray)[0]}"
            )
        todo -= orbit
        orbits.append(Orbit(len(orbit), min(orbit)))
    orbits.sort(key=lambda o: o.representative)
    return OrbitReport(subgroup, len(trace_set), orbits)


def _simple_orbit_members(aut: AutGroup, seq: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All orbit members of seq that start with the base edge (0, 1)."""
    length = len(seq)
    out: set[tuple[int, ...]] = set()
    for p in aut.elements:
        for r in (_relabelled(p, seq), _relabelled(p, seq)[::-1]):
            for i in range(length):
                if r[i] == 0 and r[(i + 1) % length] == 1:
                    out.add(r[i:] + r[:i])
    return out


def canonical_orbit_representatives(
    graph: Graph, config: EnumerationConfig | None = None
) -> list[tuple[int, ...]]:
    """Lexicographic minimum of every orbit, computed from the brute set.

    The minimum of an orbit always starts with the base edge (every trace
    traverses it, so a rotation brings it to the front), so scanning the
    simple-scope set suffices.
    """
    aut = automorphisms(graph)
    simple = brute_enumerate(graph, config, scope="simple_only")
    simple_set = set(simple)
    todo = set(simple)
    reps = []
    while todo:
        seed = todo.pop()
        members = _simple_orbit_members(aut, seed)
        if not members <= simple_set:
            raise AssertionError("orbit member missing from brute-force set")
        todo -= members
        reps.append(min(members))
    reps.sort()
    return reps


@dataclass
class VerificationReport:
    graph: Graph
    config: EnumerationConfig
    equal: bool
    enumerator_count: int
    oracle_count: int
    missing: list[tuple[int, ...]]
    extra: list[tuple[int, ...]]

    def summary(self) -> str:
        status = "OK" if self.equal else "MISMATCH"
        line = (
            f"{status}: {self.config.describe()} "
            f"enumerator={self.enumerator_count} oracle={self.oracle_count}"
        )
        if not self.equal:
            line += f" (missing {len(self.missing)}, extra {len(self.extra)})"
        return line


def verify_against_oracle(
    graph: Graph, config: EnumerationConfig | None = None
) -> VerificationReport:
    """Compare the branch-and-bound output with the oracle's representatives."""
    from .enumerator import enumerate_traces

    if config is None:
        config = EnumerationConfig()
    expected = canonical_orbit_representatives(graph, config)
    actual = enumerate_traces(graph, config)
    expected_set = set(expected)
    actual_set = set(actual)
    return VerificationReport(
        graph=graph,
        config=config,
        equal=expected_set == actual_set,
        enumerator_count=len(actual),
        oracle_count=len(expected),
        missing=sorted(expected_set - actual_set),
        extra=sorted(actual_set - expected_set),
    )


def emit_orbit_graph(
    traces: Iterable[tuple[int, ...]], aut: AutGroup, subgroup: str = "gamma"
) -> str:
    """DOT text with one node per trace and edges inside each orbit."""
    orbit_partition(traces, aut, subgroup)  # validates closure
    trace_list = sorted({tuple(t) for t in traces})
    index = {t: i for i, t in enumerate(trace_list)}
    length = len(trace_list[0]) if trace_list else 0
    elements = subgroup_elements(subgroup, aut, length) if trace_list else []
    lines = [f'graph "{subgroup}-orbits" {{']
    for t, i in index.items():
        label = " ".join(str(v) for v in t)
        lines.append(f'  t{i} [label="{label}"];')
    seen_edges = set()
    for t in trace_list:
        for el in elements:
            u = _apply_element(el, t)
            if u == t:
                continue
            a, b = index[t], index[u]
            key = (a, b) if a < b else (b, a)
            if key not in seen_edges:
                seen_edges.add(key)
                lines.append(f"  t{key[0]} -- t{key[1]};")
    lines.append("}")
    return "\n".join(lines)
