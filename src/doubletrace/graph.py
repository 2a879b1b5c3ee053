"""Simple connected graphs with a fixed vertex labelling.

Vertices are integers 0..n-1 and edges carry stable integer ids (their
position in the sorted edge tuple).  The walk enumeration code in this
package additionally assumes that the two base vertices 0 and 1 are
adjacent; `normalize_base_edge` turns any connected graph into such a
labelling and reports the permutation it applied.
"""

from __future__ import annotations

import warnings
from itertools import islice
from typing import Iterable, Sequence


class SizeGuardError(ValueError):
    """Raised when a graph is too large for an exhaustive check to accept."""


class DisconnectedGraphError(ValueError):
    """Raised when a graph is not connected.  Carries the components."""

    def __init__(self, components: Iterable[Iterable[int]]):
        self.components = [sorted(c) for c in components]
        listing = "; ".join(" ".join(str(v) for v in c) for c in self.components)
        super().__init__(f"graph is not connected (components: {listing})")


def components(vertices: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the graph on `vertices` joined by `pairs`.

    Each component is sorted, and they come in increasing order of their
    smallest vertex.
    """
    parent = {x: x for x in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps: dict[int, list[int]] = {}
    # In increasing order, so every list is sorted and the lists appear
    # in the order of their smallest vertex.
    for x in sorted(parent):
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())


class Graph:
    """Immutable simple connected undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "m", "edges", "adj", "eid_row")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        normalized: list[tuple[int, int]] = []
        for u, v in edges:
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"vertex labels must be integers, got {u!r} {v!r}")
            if u == v:
                raise ValueError(f"loop edge {u} {v} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u} {v} out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e[0]} {e[1]}")
            seen.add(e)
            normalized.append(e)
        normalized.sort()
        self.n = n
        self.m = len(normalized)
        self.edges: tuple[tuple[int, int], ...] = tuple(normalized)
        # The enumeration inner loop's lookup: each vertex's edge ids by
        # neighbour, O(m) in all.  The edges come sorted, so every row is
        # filled in increasing neighbour order, the order of `adj`.
        eid_row: list[dict[int, int]] = [{} for _ in range(n)]
        for i, (u, v) in enumerate(self.edges):
            eid_row[u][v] = eid_row[v][u] = i
        self.eid_row: tuple[dict[int, int], ...] = tuple(eid_row)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in eid_row)
        comps = components(range(n), self.edges)
        if len(comps) > 1:
            raise DisconnectedGraphError(comps)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min(len(a) for a in self.adj)

    def _eid(self, u: int, v: int) -> int:
        # -1 also for a u outside 0..n-1, which would wrap round as an index.
        return self.eid_row[u].get(v, -1) if 0 <= u < self.n else -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._eid(u, v) >= 0

    def edge_id(self, u: int, v: int) -> int:
        e = self._eid(u, v)
        if e < 0:
            raise ValueError(f"no edge {u} {v}")
        return e

    def edge_of(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(a) for a in self.adj))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __reduce__(self):
        return (Graph, (self.n, list(self.edges)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_edge_list(text: str) -> Graph:
    """Parse a whitespace separated edge list, one edge per line.

    `#` starts a comment.  Duplicate edges are collapsed with a warning;
    loops, labels that leave a gap below the largest one and disconnected
    graphs are rejected.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_label = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two vertex labels, got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: vertex labels must be integers") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: vertex labels must be non-negative")
        if u == v:
            raise ValueError(f"line {lineno}: loop edge {u} {v} is not allowed")
        e = (u, v) if u < v else (v, u)
        max_label = max(max_label, u, v)
        if e in seen:
            warnings.warn(f"duplicate edge {e[0]} {e[1]} collapsed", stacklevel=2)
            continue
        seen.add(e)
        edges.append(e)
    if not edges:
        raise ValueError("edge list contains no edges")
    used = {x for e in edges for x in e}
    if len(used) <= max_label:
        missing = max_label + 1 - len(used)
        shown = [str(x) for x in islice((x for x in range(max_label) if x not in used), 10)]
        more = f" and {missing - len(shown)} more" if missing > len(shown) else ""
        raise ValueError(
            "vertex labels must be 0..n-1 with none missing; "
            f"missing: {', '.join(shown)}{more}"
        )
    return Graph(max_label + 1, edges)


def parse_graph6(text: str) -> Graph:
    """Parse a single graph6-encoded graph (optionally with >>graph6<< header)."""
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):].strip()
    if not line:
        raise ValueError("empty graph6 input")
    data = []
    for ch in line:
        val = ord(ch) - 63
        if not (0 <= val <= 63):
            raise ValueError(f"invalid graph6 character {ch!r}")
        data.append(val)
    if data[0] < 63:
        n = data[0]
        idx = 1
    else:
        if len(data) < 4:
            raise ValueError("truncated graph6 size field")
        if data[1] == 63:
            raise ValueError("graph6 graphs with n >= 258048 are not supported")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        idx = 4
    if n < 1:
        raise ValueError("graph6 graph has no vertices")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(data) - idx != nchars:
        raise ValueError(
            f"graph6 body has {len(data) - idx} characters, expected {nchars} for n={n}"
        )
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            bit = (data[idx + k // 6] >> (5 - k % 6)) & 1
            if bit:
                edges.append((i, j))
            k += 1
    if not edges:
        raise ValueError("graph6 graph has no edges")
    return Graph(n, edges)


def _complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _cube_graph() -> Graph:
    edges = []
    for u in range(8):
        for b in range(3):
            v = u ^ (1 << b)
            if u < v:
                edges.append((u, v))
    return Graph(8, edges)


def _octahedron_graph() -> Graph:
    non_edges = {(0, 3), (1, 4), (2, 5)}
    edges = [
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if (i, j) not in non_edges
    ]
    return Graph(6, edges)


# Hamiltonian-cycle-plus-chords description of the dodecahedral graph.
_DODECAHEDRON_CHORDS = [10, 7, 4, -4, -7, 10, -4, 7, -7, 4] * 2


def _dodecahedron_graph() -> Graph:
    edges = {(i, (i + 1) % 20) for i in range(20)}
    for i, off in enumerate(_DODECAHEDRON_CHORDS):
        j = (i + off) % 20
        edges.add((min(i, j), max(i, j)))
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    return Graph(20, sorted(edges))


def _icosahedron_graph() -> Graph:
    # Two apexes capping a pentagonal antiprism.
    edges = []
    upper = list(range(1, 6))
    lower = list(range(6, 11))
    for i in range(5):
        edges.append((0, upper[i]))
        edges.append((11, lower[i]))
        edges.append((upper[i], upper[(i + 1) % 5]))
        edges.append((lower[i], lower[(i + 1) % 5]))
        edges.append((upper[i], lower[i]))
        edges.append((upper[i], lower[(i + 1) % 5]))
    return Graph(12, edges)


def _prism_graph(k: int) -> Graph:
    edges = []
    for i in range(k):
        j = (i + 1) % k
        edges.append((i, j))
        edges.append((k + i, k + j))
        edges.append((i, k + i))
    return Graph(2 * k, edges)


def _pyramid_graph(k: int) -> Graph:
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, k) for i in range(k)]
    return Graph(k + 1, edges)


def _bipyramid_graph(k: int) -> Graph:
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, k) for i in range(k)]
    edges += [(i, k + 1) for i in range(k)]
    return Graph(k + 2, edges)


_FIXED_GRAPHS = {
    "tetrahedron": lambda: _complete_graph(4),
    "cube": _cube_graph,
    "octahedron": _octahedron_graph,
    "dodecahedron": _dodecahedron_graph,
    "icosahedron": _icosahedron_graph,
}

_FAMILY_GRAPHS = {
    "prism": _prism_graph,
    "pyramid": _pyramid_graph,
    "bipyramid": _bipyramid_graph,
}

NAMED_GRAPH_NAMES = tuple(sorted(_FIXED_GRAPHS)) + tuple(
    f"{name}:k" for name in sorted(_FAMILY_GRAPHS)
)


def named_graph(name: str, k: int | None = None) -> Graph:
    """Return a named graph; prism/pyramid/bipyramid need a size k >= 3."""
    key = name.strip().lower()
    if key in _FIXED_GRAPHS:
        if k is not None:
            raise ValueError(f"graph {key!r} takes no size parameter")
        return _FIXED_GRAPHS[key]()
    if key in _FAMILY_GRAPHS:
        if k is None:
            raise ValueError(f"graph family {key!r} needs a size, e.g. {key}:4")
        if k < 3:
            raise ValueError(f"graph family {key!r} needs k >= 3, got {k}")
        return _FAMILY_GRAPHS[key](k)
    raise ValueError(f"unknown graph name {name!r}")


def normalize_base_edge(graph: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Relabel so that vertices 0 and 1 are adjacent.

    Returns the relabelled graph and the applied permutation `p`
    (new label of old vertex v is p[v]).  When 0 and 1 are already
    adjacent the graph is returned unchanged with the identity.
    """
    identity = tuple(range(graph.n))
    if graph.n >= 2 and graph.has_edge(0, 1):
        return graph, identity
    if graph.n < 2:
        raise ValueError("graph needs at least two vertices")
    target = min(graph.neighbors(0))
    perm = list(identity)
    perm[1], perm[target] = perm[target], perm[1]
    relabelled = Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])
    return relabelled, tuple(perm)
