"""Graph automorphisms and the symmetry group acting on closed walks.

Permutations are plain tuples `p` of length n with `p[v]` the image of
vertex v.  The symmetry group of a double trace of length L = 2m is the
direct product of the automorphism group with the dihedral group of
rotations and the start-preserving reversal, so its elements are triples
(permutation, shift, reverse) of size |Aut(G)| * 2L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .graph import Graph


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Composition p after q: (p . q)[v] = p[q[v]]."""
    return tuple(p[x] for x in q)


def invert(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def is_automorphism(graph: Graph, p: Sequence[int]) -> bool:
    if sorted(p) != list(range(graph.n)):
        return False
    return all(graph.has_edge(p[u], p[v]) for u, v in graph.edges)


@dataclass(frozen=True)
class AutGroup:
    """Explicit list of all automorphisms of a graph, identity first."""

    n: int
    elements: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, p: object) -> bool:
        return tuple(p) in self.elements  # type: ignore[arg-type]

    def format_one_line(self) -> str:
        """One permutation per line in one-line image notation."""
        return "\n".join(" ".join(str(x) for x in p) for p in self.elements)


def automorphisms(graph: Graph) -> AutGroup:
    """All automorphisms, by backtracking along a breadth-first tree.

    Vertices are matched in breadth-first order from a vertex of minimum
    degree.  The root may map to any vertex of its degree and every later
    vertex to a neighbour of its tree parent's image, which finds every
    automorphism because the graph is connected.  An image must have the
    vertex's degree and be adjacent to exactly the images of its
    neighbours matched so far, so each full assignment is an
    automorphism.  The backtracking keeps its own stack, so the number of
    vertices is not bounded by the recursion limit.
    """
    n = graph.n
    adj = graph.adj
    deg = [len(a) for a in adj]
    root = deg.index(min(deg))
    order = [root]
    # parent[v] < 0 until v is reached; the root is its own parent.
    parent = [-1] * n
    parent[root] = root
    for u in order:
        for v in adj[u]:
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
    masks = [0] * n
    for u in range(n):
        for v in adj[u]:
            masks[u] |= 1 << v
    image = [-1] * n
    # Bit mask of the images taken so far.
    taken = 0
    found: list[tuple[int, ...]] = []
    # tried[k]: how many of its candidate images order[k] has tried so far.
    tried = [0] * n
    k = 0
    while k >= 0:
        if k == n:
            found.append(tuple(image))
            k -= 1
            continue
        v = order[k]
        if image[v] >= 0:
            taken ^= 1 << image[v]
            image[v] = -1
        target = 0
        for u in adj[v]:
            if image[u] >= 0:
                target |= 1 << image[u]
        candidates = adj[image[parent[v]]] if k else range(n)
        for i in range(tried[k], len(candidates)):
            x = candidates[i]
            if deg[x] == deg[v] and not (taken >> x) & 1 and masks[x] & taken == target:
                image[v] = x
                taken |= 1 << x
                tried[k] = i + 1
                k += 1
                break
        else:
            tried[k] = 0
            k -= 1
    found.sort()
    return AutGroup(n, tuple(found))


class SymmetryElement(NamedTuple):
    """One symmetry of closed walks: relabel after rotating after reversing."""

    perm: tuple[int, ...]
    shift: int
    reverse: bool


def symmetry_elements(aut: AutGroup, length: int) -> Iterator[SymmetryElement]:
    """All |Aut| * 2 * length symmetry elements for walks of this length."""
    for p in aut.elements:
        for reverse in (False, True):
            for shift in range(length):
                yield SymmetryElement(p, shift, reverse)


def symmetry_group_order(aut: AutGroup, length: int) -> int:
    return aut.order * 2 * length


def apply_symmetry(gamma: SymmetryElement, seq: Sequence[int]) -> tuple[int, ...]:
    """Apply reversal (start-preserving), then rotation, then relabelling."""
    perm, shift, reverse = gamma
    length = len(seq)
    if length == 0:
        raise ValueError("empty walk")
    if not 0 <= shift < length:
        raise ValueError(f"shift {shift} out of range for walk length {length}")
    if reverse:
        base = [seq[-(shift + j) % length] for j in range(length)]
    else:
        base = list(seq[shift:]) + list(seq[:shift])
    try:
        return tuple(perm[v] for v in base)
    except IndexError:
        raise ValueError("walk labels exceed permutation length") from None


def inverse_symmetry(gamma: SymmetryElement, length: int) -> SymmetryElement:
    """The triple that undoes gamma on walks of the given length."""
    perm, shift, reverse = gamma
    if reverse:
        return SymmetryElement(invert(perm), shift, True)
    return SymmetryElement(invert(perm), (-shift) % length, False)
