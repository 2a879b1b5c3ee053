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


def equitable_partition(graph: Graph) -> list[list[int]]:
    """Coarsest degree-based equitable partition (iterated neighbour counts)."""
    colors = [graph.degree(v) for v in range(graph.n)]
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[u] for u in graph.adj[v])))
            for v in range(graph.n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [palette[signatures[v]] for v in range(graph.n)]
        if new_colors == colors:
            break
        colors = new_colors
    cells: dict[int, list[int]] = {}
    for v in range(graph.n):
        cells.setdefault(colors[v], []).append(v)
    return [sorted(cells[c]) for c in sorted(cells)]


def automorphisms(graph: Graph) -> AutGroup:
    """All automorphisms, by backtracking over the equitable partition.

    Vertices are matched in breadth-first order starting from a smallest
    cell, candidate images are drawn from the vertex's own cell, and every
    partial assignment is checked for adjacency consistency against all
    previously matched vertices.  The backtracking keeps its own stack,
    so the number of vertices is not bounded by the recursion limit.
    """
    n = graph.n
    cells = equitable_partition(graph)
    cell_index = [0] * n
    for ci, cell in enumerate(cells):
        for v in cell:
            cell_index[v] = ci
    start_cell = min(cells, key=lambda c: (len(c), c[0]))
    # Breadth-first vertex order keeps early assignments adjacent to each
    # other, which makes the consistency check prune quickly.
    order = []
    seen = [False] * n
    queue = [start_cell[0]]
    seen[start_cell[0]] = True
    while queue:
        u = queue.pop(0)
        order.append(u)
        for v in graph.adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    masks = [0] * n
    for u in range(n):
        for v in graph.adj[u]:
            masks[u] |= 1 << v
    image = [-1] * n
    # Bit mask of the images taken so far.
    taken = 0
    found: list[tuple[int, ...]] = []
    # tried[k]: how many images from its cell order[k] has tried so far.
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
        # x may be v's image iff its neighbours among the images taken
        # are exactly the images of v's neighbours matched so far.
        target = 0
        for u in graph.adj[v]:
            if image[u] >= 0:
                target |= 1 << image[u]
        cell = cells[cell_index[v]]
        for i in range(tried[k], len(cell)):
            x = cell[i]
            if not (taken >> x) & 1 and masks[x] & taken == target:
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
