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
  one is dropped; a tie keeps the alignment.  The forward alignments
  tied at start 0 are the prefix stabiliser, less the identity.
* `canonical_extension` keeps one smallest candidate per orbit of that
  stabiliser, so symmetric subtrees are searched once.  The candidates
  it drops are exactly those to which `prune` would give a witness at
  start 0, so it saves their pushes and cuts nothing more.

The walk's end is known early.  When it leaves vertex 0 for the last
time, the one traversal left at 0 is the closing step, so w_{2m-1} is
the neighbour c of 0 whose edge still has capacity
(`PartialTrace.closing`).  From then on `feasible_neighbors` no longer
offers the step c -> 0, which would strand the walk at 0, and `prune`
compares each tied backward alignment's next image element, perm[c],
with w_{s+1}.

A prefix of full length 2m is a leaf.  Closing it is one more step,
from w_{2m-1} back to w_0 = 0, and `_accept` checks only what that
step adds: the closing edge's direction (its capacity follows from the
length); the two transition pairs it completes, at w_{2m-1} and at w_0,
by the same kind lookahead as every other step; and canonicity, from
the parts of the images that read across the closing arc: the wrapped
tails of the alignments still tied and the two alignments that start on
that arc.  Every other step was checked on the way down, so each
accepted leaf is a canonical double trace of the requested kind and
orientation.

One loop, `_descend`, runs the search, in place on a single
`PartialTrace`: the one search state, holding the prefix and the
symmetries tied with it.  `push` extends both and `pop` restores both
from one undo journal, as in backtracking with dancing links (Knuth,
TAOCP 7.2.2.1).  The parallel path (`jobs > 1`) uses it twice: first
with a stop depth, through `extend_feasibly`, to list the prefixes the
search enters at the shallowest depth with at least `FRONTIER_PER_JOB`
prefixes per process; then in each of `jobs` processes, the caller
included, which take the next prefix from a shared counter until none
is left, move their one search state to it (`PartialTrace.move_to`) and
search below it to full length.  So the split is dealt on demand and
differs from run to run, but each prefix's traces are put back in
frontier order, and the output is identical to the serial search's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .automorphism import AutGroup, SymmetryElement, automorphisms
from .graph import Graph, SizeGuardError
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

# `admits_antiparallel_strong` enumerates spanning trees, so it refuses
# graphs with more edges than this.
ANTIPARALLEL_MAX_EDGES = 16


class PartialTrace:
    """The search state: a prefix of a double trace and the symmetries
    still tied with it.

    A new one holds the base prefix 0 1, which needs vertices 0 and 1
    adjacent.  Tied with it are the forward alignments at start 0 of the
    automorphisms other than the identity fixing 0 and 1, and the
    backward alignments starting on the arc (1, 0), which read 0 1 from
    the root.

    The walk's bookkeeping: per-edge use counts and first traversal
    directions, the number of visits to vertex 0 (`zero_visits`), and the
    transition structure already completed at each vertex (a visit's
    pair is complete once both its neighbours in the walk are known; the
    pairs at w_0 and at the final vertex close only when the walk does).
    A neighbour has two pair slots at u, one per traversal of their
    edge, so the pairs at u form paths and cycles over u's neighbours.
    `mate[u][i]` is the index of the far end of the path ending at
    adj[u][i] (i itself while that neighbour is unpaired) and
    `span[u][i]` the path's number of neighbours; both are kept up to
    date at path ends only.

    `closing` is the walk's last vertex w_{2m-1} once it is forced, else
    -1.  Vertex 0 has 2 deg(0) traversals: w_0 uses one, each later visit
    two, and the closing step one.  So when the walk leaves 0 on its
    deg(0)-th visit, the one traversal left at 0 is the closing step, and
    it runs from the one neighbour c whose edge to 0 still has capacity:
    every completion ends c, 0.  A prefix that ends at 0 still has to
    leave it, so popping the step that left 0 unforces c.

    The symmetries, which `prune` advances on every push: an alignment
    is an automorphism with a start s and a direction, whose image of the
    closed walk is read from w_s forwards or backwards and relabelled.
    The image can precede a walk starting 0 1 only if its first arc maps
    onto (0, 1), so `_arc_index[a][b]` holds the automorphisms mapping
    the arc (a, b) onto (0, 1), and only those are ever compared.  Three
    sets stay tied with the prefix:

    * `forward`, the (perm, s) pairs for forward alignments whose image
      matches the prefix so far.  Those at start 0 are the pointwise
      stabiliser of the prefix less the identity, and they head the list:
      `prune` keeps its order and appends new alignments at starts s >= 1;
    * `backward`, the (perm, s) pairs for backward alignments whose image
      matched all of w_s, ..., w_0; the rest of that image reads the
      walk's end, w_{2m-1} first;
    * `anchored`, the backward alignments whose image also matched its
      next element, perm[w_{2m-1}] against w_{s+1}, once the closing
      vertex w_{2m-1} was forced.  The rest waits for the leaf.

    `smaller_witness` is an alignment whose image is strictly smaller:
    no completion of the prefix is canonical, nothing more is tracked,
    and every descendant inherits it.

    `prune` replaces these four fields and never changes a list in them,
    so the journal entry of a push keeps their previous values by
    reference, next to the walk bookkeeping it changed, and `pop`
    restores the prefix and its symmetries together.
    """

    __slots__ = (
        "graph",
        "seq",
        "edge_count",
        "edge_from",
        "zero_visits",
        "mate",
        "span",
        "closing",
        "forward",
        "backward",
        "anchored",
        "smaller_witness",
        "_arc_index",
        "_journal",
    )

    def __init__(self, graph: Graph, aut: AutGroup):
        if graph.n < 2 or not graph.has_edge(0, 1):
            raise ValueError(
                "enumeration needs vertices 0 and 1 adjacent; "
                "relabel with normalize_base_edge first"
            )
        e = graph.edge_id(0, 1)
        self.graph = graph
        self.seq = [0, 1]
        self.edge_count = [0] * graph.m
        self.edge_count[e] = 1
        self.edge_from = [-1] * graph.m
        self.edge_from[e] = 0
        self.zero_visits = 1
        self.mate: list[list[int]] = [list(range(len(a))) for a in graph.adj]
        self.span: list[list[int]] = [[1] * len(a) for a in graph.adj]
        # A leaf 0 is left for the last time at the root.
        self.closing = 1 if graph.degree(0) == 1 else -1
        n = aut.n
        rows: list[list[list[tuple[int, ...]]]] = [[[] for _ in range(n)] for _ in range(n)]
        for p in aut.elements:
            rows[p.index(0)][p.index(1)].append(p)
        self._arc_index = tuple(tuple(tuple(cell) for cell in row) for row in rows)
        identity = tuple(range(n))
        self.forward = [(p, 0) for p in self._arc_index[0][1] if p != identity]
        self.backward = [(p, 1) for p in self._arc_index[1][0]]
        self.anchored: list[tuple[tuple[int, ...], int]] = []
        self.smaller_witness: SymmetryElement | None = None
        self._journal: list[tuple] = []

    def push(self, v: int) -> None:
        """Append v (the caller guarantees feasibility) and `prune`."""
        seq = self.seq
        u = seq[-1]
        e = self.graph.eid_row[u][v]
        first = self.edge_count[e] == 0
        if first:
            self.edge_from[e] = u
        self.edge_count[e] += 1
        if v == 0:
            self.zero_visits += 1
        idx = self.graph.nbr_index[u]
        ia = idx[seq[-2]]
        ib = idx[v]
        mate = self.mate[u]
        ea = mate[ia]
        if ea == ib:
            # The pair closes a path into a cycle, which nothing extends.
            ea = eb = span_a = span_b = -1
        else:
            eb = mate[ib]
            span = self.span[u]
            span_a = span[ea]
            span_b = span[eb]
            mate[ea] = eb
            mate[eb] = ea
            span[ea] = span[eb] = span_a + span_b
        self._journal.append(
            (e, first, ia, ib, ea, eb, span_a, span_b,
             self.forward, self.backward, self.anchored, self.smaller_witness)
        )
        seq.append(v)
        if u == 0 and self.zero_visits == len(self.graph.adj[0]):
            eid_0 = self.graph.eid_row[0]
            for c in self.graph.adj[0]:
                if self.edge_count[eid_0[c]] < 2:
                    self.closing = c
                    break
        prune(self)

    def pop(self) -> None:
        """Undo the most recent push, the symmetries that its `prune`
        replaced included (not valid below the base prefix)."""
        v = self.seq.pop()
        (e, first, ia, ib, ea, eb, span_a, span_b, self.forward,
         self.backward, self.anchored, self.smaller_witness) = self._journal.pop()
        self.edge_count[e] -= 1
        if first:
            self.edge_from[e] = -1
        if v == 0:
            self.zero_visits -= 1
        u = self.seq[-1]
        if u == 0:
            self.closing = -1
        if ea >= 0:
            mate = self.mate[u]
            mate[ea] = ia
            mate[eb] = ib
            span = self.span[u]
            span[ea] = span_a
            span[eb] = span_b

    def move_to(self, prefix: Sequence[int]) -> None:
        """Pop back to the longest prefix shared with `prefix` and push the
        rest of it.  `prefix` starts 0 1, and no push may meet a witness:
        a prefix the search entered has none."""
        seq = self.seq
        common = 2
        while common < len(seq) and common < len(prefix) and seq[common] == prefix[common]:
            common += 1
        while len(seq) > common:
            self.pop()
        for v in prefix[common:]:
            self.push(v)
            if self.smaller_witness is not None:
                raise AssertionError("replayed prefix was pruned")

    def __len__(self) -> int:
        return len(self.seq)


def _kind_bound(graph: Graph, config: EnumerationConfig) -> int:
    """Reject a split vertex whose smallest component is <= this bound."""
    if config.kind == "strong":
        return graph.n
    if config.kind == "stable":
        return config.d  # type: ignore[return-value]
    return 0


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
    `mate[u][idx a] == idx v`; that covers the self-pair {a, a} of an
    unpaired a and a pair repeated at u.  So of the steps out of u only
    the one to that far end can fail.  Every component is saturated by
    its last pair, so each one is checked exactly when it becomes final,
    at the start vertex too.  The two pairs that only the closing step
    completes, {w_{2m-2}, w_0} at w_{2m-1} and {w_{2m-1}, w_1} at w_0,
    are checked the same way by `_accept`.
    """
    idx = partial.graph.nbr_index[u]
    ia = idx[a]
    if partial.mate[u][ia] != idx[v]:
        return True
    size = partial.span[u][ia]
    return size > bound or size == len(idx)


def feasible_neighbors(partial: PartialTrace, config: EnumerationConfig) -> list[int]:
    """Vertices that may extend the prefix by one step.

    Enforces edge capacity and orientation consistency on second
    traversals.  Once the closing vertex c is forced, the step c -> 0
    would spend the traversal the walk's end needs, so 0 is not offered;
    at full length that step is `_accept`'s to decide.  The kind is not
    checked here; that is `_kind_lookahead_ok`'s job.
    """
    graph = partial.graph
    u = partial.seq[-1]
    orientation = config.orientation
    any_dir = orientation == "any"
    parallel = orientation == "parallel"
    edge_count = partial.edge_count
    edge_from = partial.edge_from
    eid_u = graph.eid_row[u]
    # The edge c-0 has exactly one traversal used while c is forced.
    reserved = 0 if u == partial.closing else -1
    out = []
    for v in graph.adj[u]:
        e = eid_u[v]
        c = edge_count[e]
        if c == 2:
            continue
        if c == 1:
            if v == reserved:
                continue
            if not any_dir:
                if parallel:
                    if edge_from[e] != u:
                        continue
                elif edge_from[e] != v:
                    continue
        out.append(v)
    return out


def canonical_extension(partial: PartialTrace, candidates: Sequence[int]) -> list[int]:
    """One smallest candidate per orbit of the prefix stabiliser, whose
    elements other than the identity are the start-0 head of `forward`."""
    forward = partial.forward
    if not forward or forward[0][1] or len(candidates) <= 1:
        return sorted(candidates)
    remaining = set(candidates)
    out = []
    for v in sorted(candidates):
        if v not in remaining:
            continue
        out.append(v)
        for perm, s in forward:
            if s:
                break
            remaining.discard(perm[v])
    return out


def prune(partial: PartialTrace) -> PartialTrace:
    """Advance the tied alignments over the last vertex of the prefix.

    `push` calls this once per step, and `pop` restores what it replaced.
    Pushing v = w_{p-1} after u = w_{p-2} decides, in this order: each
    tied forward alignment by one more comparison, perm[v] against
    w_{p-1-s}, the prefix stabiliser at start 0 first; once the closing
    vertex c is forced, each backward alignment tied on w_s, ..., w_0
    that has not read it yet by perm[c] against w_{s+1} (all of them at
    the step that forces c, afterwards those tied one step earlier); and
    the backward alignments that start at v on the arc (v, u), whose
    image window w_{p-1}, ..., w_0 is now complete.  Then the forward
    alignments that start on the arc (u, v), which tie on it, join.  A
    larger image drops its alignment, a tie keeps it, and the first
    smaller one is recorded as `smaller_witness`, after which nothing is
    tracked: a push below a witness only passes it on.  Returns `partial`.
    """
    if partial.smaller_witness is not None:
        return partial
    seq = partial.seq
    p = len(seq)
    v = seq[-1]
    u = seq[-2]
    length = 2 * partial.graph.m
    arc_index = partial._arc_index
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
    open_backward = partial.backward
    anchored = partial.anchored
    closing = partial.closing
    if witness is None and closing >= 0 and open_backward:
        # Every completion ends w_{2m-1} = closing, so a backward image
        # from s reads perm[closing] right after w_0, against w_{s+1}.
        tied = []
        for alignment in open_backward:
            perm, s = alignment
            a = perm[closing]
            b = seq[s + 1]
            if a == b:
                tied.append(alignment)
            elif a < b:
                witness = SymmetryElement(perm, (length - s) % length, True)
                break
        open_backward = []
        if tied:
            anchored = anchored + tied
    backward = []
    if witness is None:
        for perm in arc_index[v][u]:
            for j in range(2, p):
                a = perm[seq[p - 1 - j]]
                b = seq[j]
                if a != b:
                    if a < b:
                        witness = SymmetryElement(perm, (length - p + 1) % length, True)
                    break
            else:
                backward.append((perm, p - 1))
            if witness is not None:
                break
    if witness is not None:
        partial.forward = partial.backward = partial.anchored = []
        partial.smaller_witness = witness
        return partial
    forward += [(perm, p - 2) for perm in arc_index[u][v]]
    partial.forward = forward
    partial.backward = open_backward + backward if backward else open_backward
    partial.anchored = anchored
    return partial


@dataclass(frozen=True)
class _Search:
    """What one search holds fixed; child processes receive it whole."""

    graph: Graph
    config: EnumerationConfig
    aut: AutGroup
    length: int
    # `_kind_bound` of the config; 0 (kind any) means no kind check.
    kind_bound: int


def _accept(search: _Search, partial: PartialTrace) -> bool:
    """Whether a full-length prefix closes into a trace to emit.

    The closing step back to w_0 = 0 must respect the orientation, and
    the two pairs it completes must pass the kind lookahead: {w_{2m-2},
    0} at w_{2m-1} and {w_{2m-1}, 1} at w_0.  They are checked on the
    prefix as it stands, without pushing the closing step.  Its edge
    always has capacity: the unused traversals have odd degree only at
    the walk's two ends, so the single one left after 2m - 1 steps joins
    w_{2m-1} and w_0.
    The trace is canonical if the prefix has no witness and no image
    read from the closed walk precedes it.  `prune` compared every
    alignment on the prefix, so only two kinds remain: the wrapped tails
    of the alignments still tied (an anchored backward one has already
    matched the first element of its tail), and the two alignments that
    start on the closing arc (w_{2m-1}, 0), forwards at s = 2m - 1 and
    backwards at s = 0.
    """
    if partial.smaller_witness is not None:
        return False
    seq = partial.seq
    last = seq[-1]
    orientation = search.config.orientation
    if orientation != "any":
        # The closing edge's second traversal runs last -> 0.
        first_from_last = partial.edge_from[search.graph.eid_row[last][0]] == last
        if first_from_last != (orientation == "parallel"):
            return False
    bound = search.kind_bound
    if bound and not (
        _kind_lookahead_ok(partial, seq[-2], last, 0, bound)
        and _kind_lookahead_ok(partial, last, 0, 1, bound)
    ):
        return False
    length = len(seq)
    arc_index = partial._arc_index
    # A forward image from s reads w_0 .. w_{s-1} at positions 2m - s ..
    # 2m - 1; from the closing arc (s = 2m - 1) its position 1 is a tie.
    closing = [(perm, length - 1) for perm in arc_index[last][0]]
    for perm, s in partial.forward + closing:
        if [perm[x] for x in seq[:s]] < seq[length - s :]:
            return False
    # A backward image from s reads w_{2m-1} .. w_{s+1} at positions s + 1
    # .. 2m - 1; from the closing arc (s = 0) its position 1 is a tie.
    closing = [(perm, 0) for perm in arc_index[0][last]]
    for perm, s in partial.backward + partial.anchored + closing:
        tail = seq[s + 1 :]
        if [perm[x] for x in tail[::-1]] < tail:
            return False
    return True


def _descend(
    partial: PartialTrace, search: _Search, stop: int, out: list[tuple[int, ...]]
) -> None:
    """Exhaust the subtree under one prefix down to length `stop`.

    At full length a prefix is a leaf and goes to `out` if `_accept`
    takes it.  At a shorter stop the prefix itself goes to `out` and the
    search backtracks.  Candidates are tried in increasing order, so
    `out` grows in lexicographic order.  Children are explored by
    push/pop on the one search state, whose push advances the tied
    symmetries and whose pop restores them; each stack frame keeps only
    the candidate list for its prefix and the index of the next one to
    try.  The prefix is restored on return.
    """
    seq = partial.seq
    config = search.config
    bound = search.kind_bound
    leaf = stop == search.length
    adj = search.graph.adj
    nbr_index = search.graph.nbr_index

    def expand() -> list[int]:
        cands = feasible_neighbors(partial, config)
        if bound and cands:
            # Only the step to the far end of a's path can fail.
            a = seq[-2]
            u = seq[-1]
            v = adj[u][partial.mate[u][nbr_index[u][a]]]
            if v in cands and not _kind_lookahead_ok(partial, a, u, v, bound):
                cands.remove(v)
        return canonical_extension(partial, cands)

    if len(seq) == stop:
        if not leaf or _accept(search, partial):
            out.append(tuple(seq))
        return
    frames: list[list] = [[expand(), 0]]
    while frames:
        frame = frames[-1]
        cands = frame[0]
        i = frame[1]
        if i >= len(cands):
            frames.pop()
            if frames:
                partial.pop()
            continue
        frame[1] = i + 1
        partial.push(cands[i])
        if partial.smaller_witness is not None:
            partial.pop()
            continue
        if len(seq) == stop:
            if not leaf or _accept(search, partial):
                out.append(tuple(seq))
            partial.pop()
            continue
        frames.append([expand(), 0])


def extend_feasibly(partial: PartialTrace, search: _Search, depth: int) -> list[tuple[int, ...]]:
    """The prefixes of length `depth` that the search under `partial` enters.

    They come in search order, and each has passed every check the full
    search applies on the way down: feasibility, the kind lookahead,
    canonical extension and `prune`.  `depth` must be shorter than a
    full trace.
    """
    out: list[tuple[int, ...]] = []
    _descend(partial, search, depth, out)
    return out


def _search_dealt(
    partial: PartialTrace,
    search: _Search,
    prefixes: list[tuple[int, ...]],
    counter,
) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Search below the frontier prefixes dealt to this process.

    Takes the next prefix index from the shared `counter` until none is
    left, moves `partial` to that prefix and searches it to full length.
    Returns (index, traces) for each prefix taken.
    """
    parts = []
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(prefixes):
            return parts
        partial.move_to(prefixes[index])
        traces: list[tuple[int, ...]] = []
        _descend(partial, search, search.length, traces)
        parts.append((index, traces))


def _search_child(partial, search, prefixes, counter, conn) -> None:
    """A worker process: its share of the frontier, sent back whole once
    the counter runs out, so that it never waits on the caller mid-search."""
    conn.send(_search_dealt(partial, search, prefixes, counter))
    conn.close()


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
    known.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if config is None:
        config = EnumerationConfig()
    if aut is None:
        aut = automorphisms(graph)
    search = _Search(graph, config, aut, 2 * graph.m, _kind_bound(graph, config))
    partial = PartialTrace(graph, aut)
    if jobs > 1:
        return _enumerate_parallel(partial, search, jobs)
    out: list[tuple[int, ...]] = []
    _descend(partial, search, search.length, out)
    return out


def _enumerate_parallel(
    partial: PartialTrace, search: _Search, jobs: int
) -> list[tuple[int, ...]]:
    """Split the search at the shallowest frontier wide enough for `jobs`.

    `jobs - 1` child processes and the caller take frontier prefixes on
    demand from one shared counter, so a heavy subtree holds up only the
    process searching it.  Each process moves one search state from
    prefix to prefix.  The frontier's prefixes have equal length and come
    in lexicographic order, and each subtree's traces come sorted, so
    concatenating them in frontier order gives the sorted output.

    A frontier of at most one prefix, or one that stays narrower down to
    the last step before full length (at most one leaf below each
    prefix), has nothing worth a process: the caller searches it alone.
    A child that fails makes this raise `RuntimeError`; no child outlives
    the call.
    """
    import multiprocessing

    prefixes = [tuple(partial.seq)]
    depth = len(partial)
    while 0 < len(prefixes) < FRONTIER_PER_JOB * jobs and depth + 1 < search.length:
        depth += 1
        prefixes = extend_feasibly(partial, search, depth)
    split = len(prefixes) > 1 and depth + 1 < search.length
    counter = multiprocessing.Value("i", 0)
    parts: list[list[tuple[int, ...]] | None] = [None] * len(prefixes)
    children = []
    try:
        for _ in range(jobs - 1 if split else 0):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_search_child,
                args=(partial, search, prefixes, counter, sender),
                daemon=True,
            )
            child.start()
            sender.close()
            children.append((child, receiver))
        for index, traces in _search_dealt(partial, search, prefixes, counter):
            parts[index] = traces
        for child, receiver in children:
            try:
                for index, traces in receiver.recv():
                    parts[index] = traces
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
    return [trace for part in parts for trace in part]  # type: ignore[union-attr]


def admits_parallel_strong(graph: Graph) -> bool:
    """A parallel strong trace exists iff every degree is even."""
    return all(graph.degree(v) % 2 == 0 for v in range(graph.n))


def admits_antiparallel_strong(graph: Graph) -> bool:
    """An antiparallel strong trace exists iff some spanning tree leaves a
    co-tree whose components all have an even number of edges.

    Exhaustive over spanning trees, so refuses graphs with more than
    `ANTIPARALLEL_MAX_EDGES` edges.
    """
    from itertools import combinations

    if graph.m > ANTIPARALLEL_MAX_EDGES:
        raise SizeGuardError(
            f"antiparallel feasibility check refuses graphs with more than "
            f"{ANTIPARALLEL_MAX_EDGES} edges (got {graph.m})"
        )
    n = graph.n
    cotree_size = graph.m - (n - 1)
    if cotree_size % 2 == 1:
        # Components partition an odd number of edges, so one is always odd.
        return False
    edge_list = graph.edges
    for tree_edges in combinations(range(graph.m), n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for e in tree_edges:
            u, v = edge_list[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if not acyclic:
            continue
        # n-1 acyclic edges form a spanning tree; inspect the co-tree.
        chosen = set(tree_edges)
        comp_parent: dict[int, int] = {}

        def cfind(x: int) -> int:
            while comp_parent[x] != x:
                comp_parent[x] = comp_parent[comp_parent[x]]
                x = comp_parent[x]
            return x

        sizes: dict[int, int] = {}
        for e in range(graph.m):
            if e in chosen:
                continue
            u, v = edge_list[e]
            comp_parent.setdefault(u, u)
            comp_parent.setdefault(v, v)
            ru, rv = cfind(u), cfind(v)
            if ru != rv:
                comp_parent[ru] = rv
        for e in range(graph.m):
            if e in chosen:
                continue
            r = cfind(edge_list[e][0])
            sizes[r] = sizes.get(r, 0) + 1
        if all(size % 2 == 0 for size in sizes.values()):
            return True
    return False
