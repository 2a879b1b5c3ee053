"""Branch-and-bound enumeration of canonical double traces.

The search grows prefixes w_0 w_1 ... starting from the fixed base edge
(0, 1) and keeps exactly one lexicographically minimal representative
per symmetry orbit.  Three mechanisms cooperate:

* `feasible_neighbors` extends a prefix only along edges with unused
  capacity, respecting orientation constraints; `_kind_lookahead_ok`
  then drops the one extension that may close a forbidden repetition
  at the vertex just left behind.
* `prune` tracks the symmetry alignments still tied with the prefix,
  in the manner of orderly generation: an automorphism read forwards
  or backwards from some start s of the closed walk.  Only alignments
  whose first arc maps onto (0, 1) can produce a smaller image, so only
  those are compared.  Each forward alignment gains one comparison per
  step; a backward one is decided as soon as its start is pushed, on
  w_s, ..., w_0.  An image strictly smaller on the prefix is a witness
  that no completion can be canonical, so the branch dies; a larger
  one is dropped; a tie keeps the alignment.
* `canonical_extension` makes the forward comparisons before the push:
  it keeps exactly the candidates to which no tied forward alignment
  gives a smaller image.  So it saves the pushes that a forward witness
  would kill and cuts nothing more.  The forward alignments at start 0
  are the prefix stabiliser less the identity, so of each orbit of the
  stabiliser only the smallest candidate is kept, and symmetric
  subtrees are searched once.

Most alignments are decided on the third element of their image, so
both checks read it from an index instead of comparing each alignment.
An alignment that starts on the arc (a, b) maps it onto (0, 1), and
the third element of its image is perm[z] for the neighbour z of b
that the walk takes next (forwards) or came from (backwards); it is
compared with w_2.  Once w_2 is pushed, `PartialTrace` indexes the
automorphisms of each arc by the 2-arc (a, b, z).  So the forward
alignments that start on the last arc stay pending until the next
step: `canonical_extension` drops a candidate for which one of them
maps below w_2, and `prune` adds only those that tie.  A new backward
alignment is compared past w_2 only if its third element ties with
it.  This is the canonical-augmentation test of McKay's
orderly generation (J. Algorithms, 1998), read on the 2-arcs that the
symmetries map onto the start of the walk.

The walk's end is known early.  When it leaves vertex 0 for the last
time, the one traversal left at 0 is the closing step, so w_{2m-1} is
the neighbour c of 0 whose edge still has capacity
(`PartialTrace.closing`).  The push that forces c counts the closing
step in the edge counts, so from then on `feasible_neighbors` no longer
offers the step c -> 0, which would strand the walk at 0.  On that push
`prune` compares each tied backward alignment's next image element,
perm[c], with w_{s+1}; those that start later tie there (see
`PartialTrace`), so it is compared once.

A prefix of full length 2m is a leaf.  Closing it is one more step,
from w_{2m-1} back to w_0 = 0, and `_accept` checks only what that
step adds: the closing edge's direction (its capacity follows from the
length); the two transition pairs it completes, at w_{2m-1} and at w_0,
by the same kind lookahead as every other step; and canonicity, from
the parts of the images that read across the closing arc: the wrapped
tails of the alignments still tied, the forward ones pending on the
last arc included, and the two alignments that start on the closing
arc, each compared up to its first difference.  The 2-arc index
decides the last arc's forward alignments and the closing arc's, in
both directions, on their third element, so only the tails of the tied
ones are walked.  Every other step was checked on the way down, so
each accepted leaf is a canonical double trace of the requested kind
and orientation.

Only the kind lookahead reads the transition structure at each vertex
(`PartialTrace.mate` and `span`), so the state keeps it only under a
kind bound (strong or stable), and for kind any `push` and `pop` skip
it.  An edge's first traversal direction (`PartialTrace.edge_from`) is
read only while the edge is used, so `pop` does not reset it when the
edge empties.

One loop, `_descend`, runs the search, in place on a single
`PartialTrace`: the one search state, holding the configuration, the
prefix and the symmetries tied with it; every function below the front
end reads the configuration from it.  `push` extends the prefix and
its symmetries and `pop` restores both from one undo journal, as in
backtracking with dancing links (Knuth, TAOCP 7.2.2.1).  The parallel
path (`jobs > 1`) uses it with a stop depth: first through
`extend_feasibly`, to find the shallowest depth whose frontier, the
prefixes the search enters there, has at least `FRONTIER_PER_JOB`
prefixes per process; then in each of `jobs` processes, the caller
included, each of which walks that frontier with its one search state
and, below each prefix whose index it takes from a shared counter,
searches to full length.  So the split is dealt on demand and differs
from run to run, but each prefix's traces are put back in frontier
order, and the output is identical to the serial search's.

The search holds no trace: `_descend` yields each accepted walk, and
its caller keeps what it needs of them.  `enumerate_traces` keeps the
sorted list.  `count_traces` keeps only the number, so its memory is
proportional to the depth of the search, and with `jobs > 1` each
process sends back one count per frontier prefix it searched.

Two configurations have no trace on some graphs, and both functions
answer [] or 0 for them without searching, and without computing the
automorphism group: parallel orientation on a graph with a vertex of
odd degree, and strong antiparallel traces on a graph that fails the
spanning-tree test of `admits_antiparallel_strong` (above its size
limit, its parity half: odd cycle rank m - n + 1).  `no_trace_reason`
decides both and says why.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .automorphism import AutGroup, SymmetryElement, automorphisms, is_automorphism
from .graph import Graph, SizeGuardError, components
from .traces import EnumerationConfig

# Not called here: perfbench/tracing.py wraps these names on this module.
from .traces import (  # noqa: F401
    is_canonical,
    is_double_trace,
    satisfies_kind,
    satisfies_orientation,
)

# `_enumerate_parallel` splits at the shallowest frontier with at least
# this many prefixes per process, so that, dealt on demand, the subtrees
# left when one process finishes are small and none waits long for the
# others.  With jobs=2 on a 2-core VM, 32, 64 and 128 were no faster on
# octahedron strong (1.46-1.52 s against 1.42 s, medians of 3) and slower
# on cube strong (28-72 ms against 22 ms, medians of 5).
FRONTIER_PER_JOB = 16

# What a search makes of the traces below one prefix: a list or a count.
_Part = TypeVar("_Part")

# `admits_antiparallel_strong` enumerates spanning trees, so it refuses
# graphs with more edges than this.
ANTIPARALLEL_MAX_EDGES = 16


def _require_base_edge(graph: Graph) -> None:
    if graph.n < 2 or not graph.has_edge(0, 1):
        raise ValueError(
            "enumeration needs vertices 0 and 1 adjacent; "
            "relabel with normalize_base_edge first"
        )


class PartialTrace:
    """The search state: the configuration searched, a prefix of a double
    trace and the symmetries still tied with it.

    `config` is the `EnumerationConfig`, and `bound` its kind bound: the
    kind lookahead rejects a split vertex whose smallest transition
    component has at most `bound` neighbours, n for strong traces, d for
    d-stable ones and 0, no lookahead, for kind any.

    A new state holds the base prefix 0 1, which needs vertices 0 and 1
    adjacent.  Tied with it are the forward alignments at start 0 of the
    automorphisms other than the identity fixing 0 and 1, and the
    backward alignments starting on the arc (1, 0), which read 0 1 from
    the root.

    The walk's bookkeeping: per-edge use counts, the closing step's
    included once it is forced (see `closing`); first traversal
    directions, meaningful only while their edge is used (-1 before its
    first use, stale after a pop empties it); and, when `bound` is
    positive, the transition structure already completed at each vertex
    (a visit's pair is complete once both its neighbours in the walk are
    known; the pairs at w_0 and at the final vertex close only when the
    walk does); with no bound `mate` and `span` are None.
    A neighbour has two pair slots at u, one per traversal of their
    edge, so the pairs at u form paths and cycles over u's neighbours.
    `mate[u][a]` is the far end of the path ending at the neighbour a (a
    itself while unpaired) and `span[u][a]` the path's number of
    neighbours; both are keyed by neighbour, as in SIMPATH's mate array
    (Knuth, TAOCP 7.1.4), and kept up to date at path ends only.

    `closing` is the walk's last vertex w_{2m-1} once it is forced, else
    -1.  Vertex 0 has 2 deg(0) traversals: w_0 uses one, each later visit
    two, and the closing step one.  So after every departure from 0 an
    odd number of traversals at 0 is spare, and when a single edge at 0
    still has spare capacity, just one traversal is left: the closing
    step, which runs from that edge's end c, so every completion ends
    c, 0.  The push that forces c counts the closing step as the edge's
    second traversal, which fills it.  A prefix that ends at 0 still has
    to leave it, so popping the step that left 0 unforces c and uncounts
    the closing step.

    The symmetries, which `prune` advances on every push: an alignment
    is an automorphism with a start s and a direction, whose image of the
    closed walk is read from w_s forwards or backwards and relabelled.
    The image can precede a walk starting 0 1 only if its first arc maps
    onto (0, 1), so `_arc_index[a][b]` holds the automorphisms mapping
    the arc (a, b) onto (0, 1), and only those are ever compared; like
    `mate`, it is keyed by neighbour, so it has one cell per arc.

    `_two_arc` indexes the same automorphisms by the third element of
    their image, against the prefix's w_2.  A forward alignment on the
    arc (a, b) that steps on to the neighbour z of b, and a backward one
    that came to b from z, both compare perm[z] with w_2 after the tie
    on (0, 1).  So `_two_arc[a][b][z]` is a pair: the ones with perm[z]
    == w_2, and the first with perm[z] < w_2 (None if there is none),
    in `_arc_index` order; the tied ones are only those ahead of the
    first smaller one, since no alignment after a witness is compared.
    It is built whenever w_2 is pushed, which a search does once per
    value, and arcs with no automorphism share one row per b, so it
    takes O(m + |Aut| Delta) memory, Delta the maximum degree.
    Two lists hold the alignments tied with the prefix:

    * `forward`, the (perm, s) pairs for forward alignments whose image
      matches the prefix so far, which `canonical_extension` also reads
      before a push.  Those at start 0 are the pointwise stabiliser of
      the prefix less the identity, and they head the list, so a witness
      among them is the one `prune` reports: it keeps the list's order
      and appends new alignments at starts s >= 1.  The alignments
      that start on the last arc (w_{p-2}, w_{p-1}), s = p - 2, tie by
      definition and are not in the list: they are pending, read from
      `_arc_index` and, from the next step on, from `_two_arc`;
    * `backward`, the (perm, s) pairs for backward alignments whose image
      matched all of w_s, ..., w_0, and, once the closing vertex c =
      w_{2m-1} is forced, its next element, perm[c] against w_{s+1}.
      The rest of the image waits for the leaf.  `prune` compares
      perm[c] only on the push that forces c: a backward alignment that
      starts on it or later ties there.  Its image matches w_s, ...,
      w_0, so it maps the prefix up to w_s, reversed, onto itself, with
      perm[0] = w_s, and edge use there is perm-invariant.  At 0 one edge
      has a traversal left, the one to c, so at w_s one edge has, the
      one to perm[c], and the walk goes on to w_{s+1} = perm[c].

    `smaller_witness` is an alignment whose image is strictly smaller:
    no completion of the prefix is canonical, nothing more is tracked,
    and every descendant inherits it.

    `prune` replaces these three fields and never changes a list in them,
    so the journal entry of a push keeps their previous values by
    reference, next to the walk bookkeeping it changed, and `pop`
    restores the prefix and its symmetries together.
    """

    __slots__ = (
        "graph",
        "config",
        "bound",
        "seq",
        "edge_count",
        "edge_from",
        "mate",
        "span",
        "closing",
        "forward",
        "backward",
        "smaller_witness",
        "_arc_index",
        "_two_arc",
        "_journal",
    )

    def __init__(self, graph: Graph, aut: AutGroup, config: EnumerationConfig):
        _require_base_edge(graph)
        e = graph.edge_id(0, 1)
        self.graph = graph
        self.config = config
        self.bound: int = {"strong": graph.n, "stable": config.d}.get(config.kind, 0)
        self.seq = [0, 1]
        self.edge_count = [0] * graph.m
        self.edge_count[e] = 1
        self.edge_from = [-1] * graph.m
        self.edge_from[e] = 0
        self.mate: list[dict[int, int]] | None = None
        self.span: list[dict[int, int]] | None = None
        if self.bound:
            self.mate = [{a: a for a in row} for row in graph.adj]
            self.span = [dict.fromkeys(row, 1) for row in graph.adj]
        # A leaf 0 is left for the last time at the root, and the closing
        # step is the edge's second traversal.
        self.closing = -1
        if graph.degree(0) == 1:
            self.closing = 1
            self.edge_count[e] = 2
        self._arc_index: list[dict[int, tuple[tuple[int, ...], ...]]] = [
            dict.fromkeys(row, ()) for row in graph.adj
        ]
        for p in aut.elements:
            self._arc_index[p.index(0)][p.index(1)] += (p,)
        identity = tuple(range(aut.n))
        self.forward = [(p, 0) for p in self._arc_index[0][1] if p != identity]
        self.backward = [(p, 1) for p in self._arc_index[1][0]]
        self.smaller_witness: SymmetryElement | None = None
        self._two_arc: list[dict[int, dict[int, tuple]]] = []
        self._journal: list[tuple] = []

    def _index_two_arcs(self, w2: int) -> list[dict[int, dict[int, tuple]]]:
        """`_two_arc` for the prefixes whose third vertex is w2."""
        adj = self.graph.adj
        empty = [dict.fromkeys(row, ((), None)) for row in adj]
        index = []
        for row in self._arc_index:
            cells = {}
            for b, perms in row.items():
                if not perms:
                    cells[b] = empty[b]
                    continue
                by_next = cells[b] = {}
                for z in adj[b]:
                    tied = []
                    below = None
                    for p in perms:
                        if p[z] < w2:
                            below = p
                            break
                        if p[z] == w2:
                            tied.append(p)
                    by_next[z] = (tuple(tied), below)
            index.append(cells)
        return index

    def push(self, v: int) -> None:
        """Append v (the caller guarantees feasibility) and `prune`."""
        seq = self.seq
        u = seq[-1]
        e = self.graph.eid_row[u][v]
        edge_count = self.edge_count
        if edge_count[e] == 0:
            self.edge_from[e] = u
        edge_count[e] += 1
        mates = self.mate
        if mates is None:
            ea = eb = span_a = span_b = -1
        else:
            mate = mates[u]
            ea = mate[seq[-2]]
            if ea == v:
                # The pair closes a path into a cycle, which nothing extends.
                ea = eb = span_a = span_b = -1
            else:
                eb = mate[v]
                span = self.span[u]
                span_a = span[ea]
                span_b = span[eb]
                mate[ea] = eb
                mate[eb] = ea
                span[ea] = span[eb] = span_a + span_b
        self._journal.append(
            (e, ea, eb, span_a, span_b,
             self.forward, self.backward, self.smaller_witness)
        )
        seq.append(v)
        if len(seq) == 3:
            self._two_arc = self._index_two_arcs(v)
        if u == 0:
            # The end is forced when a single edge at 0 has spare capacity;
            # the scan stops at the second one.  The closing step is then
            # counted as that edge's second traversal.
            closing = -1
            for c, e0 in self.graph.eid_row[0].items():
                if edge_count[e0] < 2:
                    if closing >= 0:
                        break
                    closing = c
                    closing_edge = e0
            else:
                self.closing = closing
                edge_count[closing_edge] += 1
        prune(self)

    def pop(self) -> None:
        """Undo the most recent push, the symmetries that its `prune`
        replaced included (not valid below the base prefix)."""
        v = self.seq.pop()
        (e, ea, eb, span_a, span_b,
         self.forward, self.backward, self.smaller_witness) = self._journal.pop()
        edge_count = self.edge_count
        edge_count[e] -= 1
        u = self.seq[-1]
        if u == 0 and self.closing >= 0:
            # The step left 0 for the last time: uncount the closing step.
            edge_count[self.graph.eid_row[0][self.closing]] -= 1
            self.closing = -1
        if ea >= 0:
            # The pair joined the paths ending at w_{p-2} and at v.
            mate = self.mate[u]
            mate[ea] = self.seq[-2]
            mate[eb] = v
            span = self.span[u]
            span[ea] = span_a
            span[eb] = span_b

    def __len__(self) -> int:
        return len(self.seq)


def _kind_lookahead_ok(partial: PartialTrace, a: int, u: int, v: int, bound: int) -> bool:
    """The in-search kind check: False if the pair {a, v} at u dooms u.

    Stepping from u = w_{p-1} to v completes the pair {w_{p-2}, v} at u.
    If the transition component containing that pair has every pair slot
    filled, later visits can never connect it to the rest of the
    neighbourhood, so it survives as a component of the final structure.
    When it is also a proper subset of size <= bound, every completion
    has a forbidden repetition at u and the branch is dead.  A component
    is a path or a cycle (see `PartialTrace`), saturated exactly when it
    is a cycle.  Both a and v have a free slot, so both end paths, and
    the pair closes a cycle exactly when v is the far end of a's path,
    `mate[u][a] == v`; that covers the self-pair {a, a} of an
    unpaired a and a pair repeated at u.  So of the steps out of u only
    the one to that far end can fail.  Every component is saturated by
    its last pair, so each one is checked exactly when it becomes final,
    at the start vertex too.  The two pairs that only the closing step
    completes, {w_{2m-2}, w_0} at w_{2m-1} and {w_{2m-1}, w_1} at w_0,
    are checked the same way by `_accept`.
    """
    mate = partial.mate[u]
    if mate[a] != v:
        return True
    size = partial.span[u][a]
    # `mate[u]` has one entry per neighbour of u.
    return size > bound or size == len(mate)


def feasible_neighbors(partial: PartialTrace) -> list[int]:
    """Vertices that may extend the prefix by one step.

    Enforces edge capacity and, in the state's configuration,
    orientation consistency on second traversals.  Once the closing
    vertex c is forced, the closing step c -> 0 is counted in
    `edge_count`, so the edge c-0 is full and 0 is not offered: stepping
    there would strand the walk at 0.  At full length that step is
    `_accept`'s to decide.  The kind is not checked here; that is
    `_kind_lookahead_ok`'s job.
    """
    u = partial.seq[-1]
    row = partial.graph.eid_row[u]
    edge_count = partial.edge_count
    orientation = partial.config.orientation
    out = []
    if orientation == "any":
        # A loop: in CPython 3.11 a comprehension here is slower.
        for v, e in row.items():
            if edge_count[e] < 2:
                out.append(v)
        return out
    parallel = orientation == "parallel"
    edge_from = partial.edge_from
    for v, e in row.items():
        c = edge_count[e]
        if c == 2:
            continue
        # A second traversal repeats the first one's direction, or reverses it.
        if c == 1 and edge_from[e] != (u if parallel else v):
            continue
        out.append(v)
    return out


def canonical_extension(partial: PartialTrace, candidates: Sequence[int]) -> list[int]:
    """The candidates v, in their given order, to which no tied forward
    alignment (perm, s) gives a smaller image: once v = w_p is pushed,
    `prune` compares perm[v] with w_{p-s} (v itself at start 0, where
    the alignment fixes the prefix), and a smaller image is a witness.
    The alignments pending on the last arc compare perm[v] with w_2, so
    the index's first witness for the 2-arc (w_{p-2}, w_{p-1}, v)
    decides them."""
    seq = partial.seq
    p = len(seq)
    forward = partial.forward
    pending = partial._two_arc[seq[-2]][seq[-1]] if p > 2 else None
    out = []
    for v in candidates:
        if pending is not None and pending[v][1] is not None:
            continue
        for perm, s in forward:
            if perm[v] < (seq[p - s] if s else v):
                break
        else:
            out.append(v)
    return out


def prune(partial: PartialTrace) -> PartialTrace:
    """Advance the tied alignments over the last vertex of the prefix.

    `push` calls this once per step, and `pop` restores what it replaced.
    Pushing v = w_{p-1} after u = w_{p-2} decides, in this order: each
    tied forward alignment by one more comparison, perm[v] against
    w_{p-1-s}, the prefix stabiliser at start 0 first, and then those
    pending on the arc (w_{p-3}, u), against w_2, read from the 2-arc
    index (the search has made these in `canonical_extension` before the
    push); if the push leaves u = 0 and forces the closing vertex c,
    each tied backward alignment by perm[c] against w_{s+1} (those that
    start later tie there, see `PartialTrace`); and the backward
    alignments that start at v on the arc (v, u), whose image window
    w_{p-1}, ..., w_0 is now complete, on perm[w_{p-3}] against w_2 by
    the index, then on the rest.  The forward alignments that start on
    the arc (u, v) tie on it and stay pending.  A larger image drops its
    alignment, a tie keeps it, and the first smaller one is recorded as
    `smaller_witness`, after which nothing is tracked: a push below a
    witness only passes it on.  Returns `partial`.
    """
    if partial.smaller_witness is not None:
        return partial
    seq = partial.seq
    p = len(seq)
    v = seq[-1]
    u = seq[-2]
    two_arc = partial._two_arc
    witness = None
    forward = []
    for alignment in partial.forward:
        perm, s = alignment
        a = perm[v]
        b = seq[p - 1 - s]
        if a == b:
            forward.append(alignment)
        elif a < b:
            witness = SymmetryElement(perm, s, False)
            break
    # The base arc's alignments are the stabiliser, at start 0, so the
    # first pending ones start on the arc (w_1, w_2).
    if witness is None and p > 3:
        tied, below = two_arc[seq[-3]][u][v]
        if below is not None:
            witness = SymmetryElement(below, p - 3, False)
        else:
            for perm in tied:
                forward.append((perm, p - 3))
    backward = partial.backward
    closing = partial.closing
    if witness is None and u == 0 and closing >= 0 and backward:
        # This push forced the end: every completion ends w_{2m-1} =
        # closing, so a backward image from s reads perm[closing] right
        # after w_0, against w_{s+1}.
        tied = []
        for alignment in backward:
            perm, s = alignment
            a = perm[closing]
            b = seq[s + 1]
            if a == b:
                tied.append(alignment)
            elif a < b:
                length = 2 * partial.graph.m
                witness = SymmetryElement(perm, (length - s) % length, True)
                break
        backward = tied
    started = []
    if witness is None:
        # The image from v reads 0, 1, perm[w_{p-3}], ...: the index
        # decides perm[w_{p-3}] against w_2, and the tied ones go on.
        tied, below = two_arc[v][u][seq[-3]]
        for perm in tied:
            for j in range(3, p):
                a = perm[seq[p - 1 - j]]
                b = seq[j]
                if a != b:
                    break
            else:
                started.append((perm, p - 1))
                continue
            if a < b:
                below = perm
                break
        if below is not None:
            length = 2 * partial.graph.m
            witness = SymmetryElement(below, (length - p + 1) % length, True)
    if witness is not None:
        partial.forward = partial.backward = []
        partial.smaller_witness = witness
        return partial
    partial.forward = forward
    partial.backward = backward + started if started else backward
    return partial


def _accept(partial: PartialTrace) -> bool:
    """Whether a full-length prefix the search entered closes into a
    trace of the state's configuration to emit.

    The closing step back to w_0 = 0 must respect the orientation, and
    the two pairs it completes must pass the kind lookahead: {w_{2m-2},
    0} at w_{2m-1} and {w_{2m-1}, 1} at w_0.  They are checked on the
    prefix as it stands, without pushing the closing step.  Its edge
    always has capacity: the unused traversals have odd degree only at
    the walk's two ends, so the single one left after 2m - 1 steps joins
    w_{2m-1} and w_0, and `edge_count` has counted it since the push
    that forced w_{2m-1}.
    The search entered the prefix, so it has no witness, and the trace
    is canonical if no image read from the closed walk precedes it.
    `prune` compared every alignment on the prefix, so only two kinds
    remain: the wrapped tails of the alignments still tied (each backward
    one read from the first element of its tail, perm[w_{2m-1}], and the
    forward ones pending on the last arc, at s = 2m - 2, matched on only
    their first two), and the two alignments that start on the closing arc
    (w_{2m-1}, 0), forwards at s = 2m - 1 and backwards at s = 0.  Each
    tail is compared element by element up to its first difference.
    The alignments from the last arc forwards and from the closing arc
    both ways compare the third element of their image first, which
    `_two_arc` decides: a witness there rejects the leaf at once, and
    only the tied ones' tails are walked, from their fourth element.
    """
    seq = partial.seq
    last = seq[-1]
    orientation = partial.config.orientation
    if orientation != "any":
        # The closing edge's second traversal runs last -> 0.
        first_from_last = partial.edge_from[partial.graph.eid_row[last][0]] == last
        if first_from_last != (orientation == "parallel"):
            return False
    bound = partial.bound
    if bound and not (
        _kind_lookahead_ok(partial, seq[-2], last, 0, bound)
        and _kind_lookahead_ok(partial, last, 0, 1, bound)
    ):
        return False
    length = len(seq)
    if length == 2:
        # A single edge: every image of 0 1 is 0 1.
        return True
    # From the last arc forwards (s = 2m - 2), then from the closing arc
    # forwards (s = 2m - 1) and backwards (s = 0).
    two_arc = partial._two_arc
    before = seq[-2]
    pending, below = two_arc[before][last][0]
    if below is not None:
        return False
    closing_forward, below = two_arc[last][0][1]
    if below is not None:
        return False
    closing_backward, below = two_arc[0][last][before]
    if below is not None:
        return False
    # A forward image from s reads w_0 .. w_{s-1} at positions 2m - s ..
    # 2m - 1; a tied one from the last arc goes on from w_1, from the
    # closing arc from w_2.
    for perm, s in partial.forward:
        if _precedes(perm, seq, seq[length - s :]):
            return False
    for perm in pending:
        if _precedes(perm, seq[1:], seq[3:]):
            return False
    for perm in closing_forward:
        if _precedes(perm, seq[2:], seq[3:]):
            return False
    # A backward image from s reads w_{2m-1} .. w_{s+1} at positions s + 1
    # .. 2m - 1; a tied one from the closing arc goes on from w_{2m-3}.
    for perm, s in partial.backward:
        if _precedes(perm, reversed(seq), seq[s + 1 :]):
            return False
    for perm in closing_backward:
        if _precedes(perm, seq[-3::-1], seq[3:]):
            return False
    return True


def _precedes(perm: Sequence[int], xs: Iterable[int], bs: Sequence[int]) -> bool:
    """Whether perm applied to xs is smaller than bs at their first
    difference, over the length of the shorter."""
    for x, b in zip(xs, bs):
        a = perm[x]
        if a != b:
            return a < b
    return False


def _descend(partial: PartialTrace, stop: int) -> Iterator[tuple[int, ...]]:
    """Yield the walks of the subtree under one prefix, down to length
    `stop`.

    At full length a prefix is a leaf and is yielded if `_accept` takes
    it.  At a shorter stop the prefix itself is yielded and the search
    backtracks.  A prefix's candidates are its feasible steps that pass
    the kind lookahead and `canonical_extension`, tried in increasing
    order, so the walks come in lexicographic order.  Each is a new
    tuple, and the search holds none of them, so the caller decides what
    to keep.  Children are explored by push/pop on the one search state,
    whose push advances the tied symmetries and whose pop restores them;
    a push that meets a witness, which only a backward alignment can
    give here, is dropped.  The stack is explicit, so depth is not
    bounded by the recursion limit.  It keeps a frame only at a branch
    point, a prefix with two candidates or more: the candidate list, the
    index of the next one to try and the prefix's length.  A prefix with
    one candidate pushes it and keeps nothing, so backtracking pops
    straight to the deepest branch point with a candidate left.  The
    prefix is restored once the walks are exhausted.
    """
    seq = partial.seq
    bound = partial.bound
    leaf = stop == 2 * partial.graph.m
    push = partial.push
    pop = partial.pop
    base = p = len(seq)
    if p == stop:
        if not leaf or _accept(partial):
            yield tuple(seq)
        return
    frames: list[list] = []
    while True:
        # Expand the prefix: its candidates, in increasing order.
        cands = feasible_neighbors(partial)
        if bound and cands:
            # Only the step to the far end of a's path can fail.
            a = seq[-2]
            u = seq[-1]
            v = partial.mate[u][a]
            if v in cands and not _kind_lookahead_ok(partial, a, u, v, bound):
                cands.remove(v)
        cands = canonical_extension(partial, cands)
        # Push the next candidate, backtracking past dead ends, witnesses
        # and leaves, until a prefix to expand is entered.
        while True:
            if cands:
                v = cands[0]
                if len(cands) > 1:
                    frames.append([cands, 1, p])
            elif frames:
                frame = frames[-1]
                cands, i, depth = frame
                while p > depth:
                    pop()
                    p -= 1
                v = cands[i]
                i += 1
                if i == len(cands):
                    frames.pop()
                else:
                    frame[1] = i
            else:
                while p > base:
                    pop()
                    p -= 1
                return
            push(v)
            p += 1
            if partial.smaller_witness is not None:
                cands = ()
            elif p == stop:
                if not leaf or _accept(partial):
                    yield tuple(seq)
                cands = ()
            else:
                break


def _count(walks: Iterable[tuple[int, ...]]) -> int:
    """The number of walks, keeping none of them."""
    return sum(1 for _ in walks)


def extend_feasibly(partial: PartialTrace, depth: int) -> list[tuple[int, ...]]:
    """The prefixes of length `depth` that the search under `partial` enters.

    They come in search order, and each has passed every check the full
    search applies on the way down: feasibility, the kind lookahead,
    the forward comparisons of `canonical_extension` and the rest of
    `prune`.  `depth` must be shorter than a full trace.
    """
    return list(_descend(partial, depth))


def _search_dealt(
    partial: PartialTrace,
    depth: int,
    counter,
    collect: Callable[[Iterator[tuple[int, ...]]], _Part],
) -> list[tuple[int, _Part]]:
    """Search below the frontier prefixes dealt to this process.

    Walks the frontier of length `depth` under `partial`, and below each
    prefix whose index it took from the shared `counter` searches to full
    length, then takes the next index.  Every process walks the same
    frontier in the same order and the counter only grows, so each index
    is searched once.  Returns (index, part) for each prefix searched,
    the part being what `collect` makes of the traces below it.
    """

    def take() -> int:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        return index

    length = 2 * partial.graph.m
    parts = []
    index = take()
    for position, _ in enumerate(_descend(partial, depth)):
        if position == index:
            parts.append((index, collect(_descend(partial, length))))
            index = take()
    return parts


def _search_child(partial, depth, counter, collect, conn) -> None:
    """A worker process: its share of the frontier, sent back whole once
    the counter runs out, so that it never waits on the caller mid-search."""
    conn.send(_search_dealt(partial, depth, counter, collect))
    conn.close()


def _search(
    graph: Graph,
    config: EnumerationConfig | None,
    jobs: int,
    aut: AutGroup | None,
    collect: Callable[[Iterator[tuple[int, ...]]], _Part],
) -> list[_Part]:
    """The front end of `enumerate_traces` and `count_traces`: check the
    arguments, decide the root and search.

    Returns what `collect` makes of the traces of each searched subtree,
    in search order: one part serially, one per frontier prefix in
    parallel, and none where `no_trace_reason` rules out every trace,
    which it decides before the automorphism group is computed.  A
    passed `aut` must hold automorphisms of `graph` only.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if config is None:
        config = EnumerationConfig()
    _require_base_edge(graph)
    if aut is not None and (
        aut.n != graph.n or not all(is_automorphism(graph, p) for p in aut.elements)
    ):
        raise ValueError("aut holds a permutation that is not an automorphism of the graph")
    if no_trace_reason(graph, config) is not None:
        return []
    if aut is None:
        aut = automorphisms(graph)
    partial = PartialTrace(graph, aut, config)
    if jobs > 1:
        return _enumerate_parallel(partial, jobs, collect)
    return [collect(_descend(partial, 2 * graph.m))]


def enumerate_traces(
    graph: Graph,
    config: EnumerationConfig | None = None,
    *,
    jobs: int = 1,
    aut: AutGroup | None = None,
) -> list[tuple[int, ...]]:
    """All canonical double traces of the requested kind, sorted.

    The graph must have its base edge normalized (vertices 0 and 1
    adjacent).  Every returned trace starts with 0, 1 and passes the full
    double-trace, kind, orientation and canonicity predicates.  With
    `jobs > 1` the subtrees below one frontier of the same search are
    dealt out to that many processes, the caller included; the result is
    the same.  `jobs` below 1 is a `ValueError`.
    `aut` may pass in the graph's automorphism group if it is already
    known.  It must be the whole group, as `automorphisms(graph)`
    returns it: a proper subgroup is not detected, and the output then
    has one trace per orbit of the smaller group.  One holding a
    permutation that is not an automorphism of `graph` is a
    `ValueError`.  A configuration that `no_trace_reason` rules out
    returns [] without a search.
    """
    parts = _search(graph, config, jobs, aut, list)
    # A single part, the serial search's, is returned without a copy.
    return parts[0] if len(parts) == 1 else list(chain.from_iterable(parts))


def count_traces(
    graph: Graph,
    config: EnumerationConfig | None = None,
    *,
    jobs: int = 1,
    aut: AutGroup | None = None,
) -> int:
    """`len(enumerate_traces(graph, config, jobs=jobs, aut=aut))`, in
    memory proportional to the depth of the search: no trace is kept,
    and with `jobs > 1` each process sends back one count per frontier
    prefix it searched.  As there, a passed `aut` must be the whole
    automorphism group; a proper subgroup counts the orbits of the
    smaller group."""
    return sum(_search(graph, config, jobs, aut, _count))


def _enumerate_parallel(
    partial: PartialTrace,
    jobs: int,
    collect: Callable[[Iterator[tuple[int, ...]]], _Part],
) -> list[_Part]:
    """Split the search at the shallowest frontier wide enough for `jobs`.

    `jobs - 1` child processes and the caller each walk the frontier and
    take its prefixes on demand from one shared counter, so a heavy
    subtree holds up only the process searching it.  Each process sends
    back what `collect` makes of each prefix's traces.  The frontier's
    prefixes have equal length and come in lexicographic order, and each
    subtree's traces come sorted, so the parts are returned in frontier
    order, and concatenating lists of traces gives the sorted output.

    A frontier of at most one prefix, or one that stays narrower down to
    the last step before full length (at most one leaf below each
    prefix), has nothing worth a process: the caller searches alone, and
    the one part is the serial search's.  A child that fails makes this
    raise `RuntimeError`; no child outlives the call.
    """
    import multiprocessing

    length = 2 * partial.graph.m
    width = 1
    depth = len(partial)
    while 0 < width < FRONTIER_PER_JOB * jobs and depth + 1 < length:
        depth += 1
        width = len(extend_feasibly(partial, depth))
    if width < 2 or depth + 1 >= length:
        return [collect(_descend(partial, length))]
    counter = multiprocessing.Value("i", 0)
    parts: list = [None] * width
    children = []
    try:
        for _ in range(jobs - 1):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_search_child,
                args=(partial, depth, counter, collect, sender),
                daemon=True,
            )
            child.start()
            sender.close()
            children.append((child, receiver))
        for index, part in _search_dealt(partial, depth, counter, collect):
            parts[index] = part
        for child, receiver in children:
            try:
                for index, part in receiver.recv():
                    parts[index] = part
            except EOFError:
                pass
            child.join()
            if child.exitcode != 0:
                raise RuntimeError(
                    f"search worker process failed with exit code {child.exitcode}"
                )
    finally:
        for child, receiver in children:
            receiver.close()
            if child.is_alive():
                child.terminate()
            child.join()
    return parts


def no_trace_reason(graph: Graph, config: EnumerationConfig) -> str | None:
    """Why no trace of `config` exists on `graph`, or None if no
    structural test rules every trace out.

    A parallel trace of any kind crosses each edge twice the same way, so
    it enters each vertex as often as it leaves: every degree is even.  A
    strong antiparallel one needs a spanning tree whose co-tree
    components all have an even number of edges; above
    `ANTIPARALLEL_MAX_EDGES` only the parity half is tested, an even
    number of co-tree edges, m - n + 1.
    """
    if config.orientation == "parallel":
        if admits_parallel_strong(graph):
            return None
        kind = " strong" if config.kind == "strong" else ""
        return f"no parallel{kind} trace exists: some vertex has odd degree"
    if config.kind != "strong" or config.orientation != "antiparallel":
        return None
    if graph.m <= ANTIPARALLEL_MAX_EDGES:
        admitted = admits_antiparallel_strong(graph)
    else:
        admitted = (graph.m - graph.n + 1) % 2 == 0
    if admitted:
        return None
    return (
        "no antiparallel strong trace exists: every spanning tree "
        "leaves a co-tree with an odd component"
    )


def admits_parallel_strong(graph: Graph) -> bool:
    """A parallel strong trace exists iff every degree is even."""
    return all(graph.degree(v) % 2 == 0 for v in range(graph.n))


def admits_antiparallel_strong(graph: Graph) -> bool:
    """An antiparallel strong trace exists iff some spanning tree leaves a
    co-tree whose components all have an even number of edges.

    Exhaustive over spanning trees, so refuses graphs with more than
    `ANTIPARALLEL_MAX_EDGES` edges.
    """
    if graph.m > ANTIPARALLEL_MAX_EDGES:
        raise SizeGuardError(
            f"antiparallel feasibility check refuses graphs with more than "
            f"{ANTIPARALLEL_MAX_EDGES} edges (got {graph.m})"
        )
    n = graph.n
    if (graph.m - (n - 1)) % 2 == 1:
        # Components partition an odd number of edges, so one is always odd.
        return False
    edges = graph.edges
    vertices = range(n)
    for tree in combinations(range(graph.m), n - 1):
        # n - 1 edges span the graph iff they leave one component.
        if len(components(vertices, (edges[e] for e in tree))) > 1:
            continue
        chosen = set(tree)
        cotree = [edges[e] for e in range(graph.m) if e not in chosen]
        comps = components(vertices, cotree)
        component_of = {v: i for i, comp in enumerate(comps) for v in comp}
        sizes = Counter(component_of[u] for u, _ in cotree)
        if all(size % 2 == 0 for size in sizes.values()):
            return True
    return False
