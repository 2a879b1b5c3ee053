"""Double traces and their predicates.

A double trace of a connected graph with m edges is a closed walk
w_0 ... w_{2m-1} (indices mod 2m) that traverses every edge exactly
twice.  Traces are stored as tuples of vertices of length 2m; the
closing step from w_{2m-1} back to w_0 is implicit.

At a vertex v, every visit w_i = v contributes the unordered pair
{w_{i-1}, w_{i+1}} to the transition structure of v, a multigraph on the
neighbourhood N(v).  A nonempty proper subset N of N(v) is a repetition
if every visit enters from N exactly when it leaves into N; these are
exactly the unions of connected components of the transition structure,
so repetitions exist at v iff the structure is disconnected.  A trace is
strong when no vertex has a repetition and d-stable when every
repetition has more than d vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .automorphism import AutGroup, automorphisms
from .graph import Graph, components

KINDS = ("any", "strong", "stable")
ORIENTATIONS = ("any", "parallel", "antiparallel")


@dataclass(frozen=True)
class EnumerationConfig:
    """Which double traces to accept: kind plus orientation restriction."""

    kind: str = "any"
    d: int | None = None
    orientation: str = "any"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.orientation not in ORIENTATIONS:
            raise ValueError(
                f"orientation must be one of {ORIENTATIONS}, got {self.orientation!r}"
            )
        if self.kind == "stable":
            if isinstance(self.d, bool) or not isinstance(self.d, int) or self.d < 1:
                raise ValueError("stable kind needs a positive integer d")
        elif self.d is not None:
            raise ValueError("d is only meaningful for kind 'stable'")

    def describe(self) -> str:
        kind = f"stable({self.d})" if self.kind == "stable" else self.kind
        return f"kind={kind} orientation={self.orientation}"


def is_double_trace(graph: Graph, seq: Sequence[int]) -> bool:
    """True iff seq is a closed walk using every edge exactly twice."""
    length = len(seq)
    if length != 2 * graph.m or length == 0:
        return False
    for v in seq:
        if not isinstance(v, int) or not 0 <= v < graph.n:
            return False
    counts = [0] * graph.m
    for i in range(length):
        u, v = seq[i], seq[(i + 1) % length]
        if not graph.has_edge(u, v):
            return False
        counts[graph.edge_id(u, v)] += 1
    return all(c == 2 for c in counts)


def _transition_pairs(graph: Graph, seq: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Per-vertex transition pairs {w_{i-1}, w_{i+1}} of every visit."""
    length = len(seq)
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for i, v in enumerate(seq):
        pairs[v].append((seq[i - 1], seq[(i + 1) % length]))
    return pairs


def transition_components(graph: Graph, seq: Sequence[int], v: int) -> list[list[int]]:
    """Connected components of the transition structure at v, sorted."""
    return components(graph.neighbors(v), _transition_pairs(graph, seq)[v])


def repetitions(graph: Graph, seq: Sequence[int], v: int) -> list[list[int]]:
    """Minimal repetitions at v: the components, when there are at least two."""
    comps = transition_components(graph, seq, v)
    return comps if len(comps) >= 2 else []


def is_strong(graph: Graph, seq: Sequence[int]) -> bool:
    """True iff the transition structure is connected at every vertex."""
    # A component at v has at most deg(v) < n vertices, so strong is n-stable.
    return is_d_stable(graph, seq, graph.n)


def is_d_stable(graph: Graph, seq: Sequence[int], d: int) -> bool:
    """True iff every vertex is connected or splits into components larger than d."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    for v, pairs in enumerate(_transition_pairs(graph, seq)):
        comps = components(graph.neighbors(v), pairs)
        if len(comps) > 1 and min(len(c) for c in comps) <= d:
            return False
    return True


def satisfies_kind(graph: Graph, seq: Sequence[int], config: EnumerationConfig) -> bool:
    if config.kind == "strong":
        return is_strong(graph, seq)
    if config.kind == "stable":
        return is_d_stable(graph, seq, config.d)
    return True


def orientation_class(
    graph: Graph, seq: Sequence[int]
) -> tuple[str, dict[int, tuple[tuple[int, int], ...]]]:
    """Classify edge traversal directions.

    Returns ("parallel" | "antiparallel" | "mixed", record) where record
    maps each edge id to its traversal directions in trace order.
    """
    length = len(seq)
    record: dict[int, list[tuple[int, int]]] = {e: [] for e in range(graph.m)}
    for i in range(length):
        u, v = seq[i], seq[(i + 1) % length]
        record[graph.edge_id(u, v)].append((u, v))
    all_parallel = True
    all_antiparallel = True
    for dirs in record.values():
        if len(dirs) != 2:
            return "mixed", {e: tuple(d) for e, d in record.items()}
        if dirs[0] == dirs[1]:
            all_antiparallel = False
        else:
            all_parallel = False
    if all_parallel:
        label = "parallel"
    elif all_antiparallel:
        label = "antiparallel"
    else:
        label = "mixed"
    return label, {e: tuple(d) for e, d in record.items()}


def satisfies_orientation(graph: Graph, seq: Sequence[int], config: EnumerationConfig) -> bool:
    if config.orientation == "any":
        return True
    return orientation_class(graph, seq)[0] == config.orientation


def is_canonical(graph: Graph, seq: Sequence[int], aut: AutGroup | None = None) -> bool:
    """True iff seq is lexicographically minimal in its symmetry orbit.

    Checks every combination of automorphism, rotation and reversal.  An
    image can only precede seq when its first vertex does not exceed
    seq[0], so for each automorphism only the few alignments mapping some
    visited vertex onto seq[0] need a full comparison.
    """
    if aut is None:
        aut = automorphisms(graph)
    w = tuple(seq)
    length = len(w)
    if length == 0:
        raise ValueError("empty walk")
    w0 = w[0]
    fwd = w + w
    rev = w[::-1] + w[::-1]
    for p in aut.elements:
        for s in range(length):
            c = p[w[s]]
            if c > w0:
                continue
            if c < w0:
                return False
            # Forward image starting at s.
            for j in range(1, length):
                a = p[fwd[s + j]]
                b = w[j]
                if a != b:
                    if a < b:
                        return False
                    break
            # Backward image starting at s.
            base = length - 1 - s
            for j in range(1, length):
                a = p[rev[base + j]]
                b = w[j]
                if a != b:
                    if a < b:
                        return False
                    break
    return True


def format_trace(seq: Sequence[int]) -> str:
    return " ".join(str(v) for v in seq)


def parse_trace(line: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in line.split())
