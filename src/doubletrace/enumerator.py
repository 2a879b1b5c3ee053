"""Branch-and-bound enumeration of canonical double traces.

The search grows prefixes w_0 w_1 ... starting from the fixed base edge
(0, 1) and keeps exactly one lexicographically minimal representative
per symmetry orbit.  Three mechanisms cooperate:

* `feasible_neighbors` extends a prefix only along edges with unused
  capacity, respecting orientation constraints; `_kind_lookahead_ok`
  then drops the extensions that complete a forbidden repetition at the
  vertex just left behind.
* `canonical_extension` keeps one smallest candidate per orbit of the
  prefix-fixing automorphisms, so symmetric subtrees are searched once.
* `prune` tracks the symmetry alignments still tied with the prefix,
  in the manner of orderly generation: an automorphism read forwards
  or backwards from some start s of the closed walk.  Only alignments
  whose first arc maps onto (0, 1) can produce a smaller image, so only
  those are compared.  Each forward alignment gains one comparison per
  step; a backward one is decided as soon as its start is pushed, on
  w_s, ..., w_0.  An image strictly smaller on the prefix is a witness
  that no completion can be canonical, so the branch dies; a larger
  one is dropped; a tie keeps the alignment.

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

Disabling `canonical_extension` and the `prune` cut yields a plainer
search with the same output, only slower.  `prune` itself always runs,
since it keeps the relabel stabiliser that `canonical_extension` reads
and the tied alignments that `_accept` reads; with `use_prune=False` a
witness cuts nothing, but the prefix's descendants inherit it and
`_accept` rejects their leaves.

One loop, `_descend`, runs the search, in place on a single
`PartialTrace`.  The parallel path (`jobs > 1`) uses it twice: first
with a stop depth, through `extend_feasibly`, to list the prefixes the
search enters at the shallowest depth with at least `FRONTIER_PER_JOB`
prefixes per worker; then in each worker, which replays every jobs-th
of those prefixes and searches below it to full length.  Workers share
no state, and the split is the same on every run.
"""

from __future__ import annotations

import warnings
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
# this many prefixes per worker, so that one heavy subtree does not
# leave the other workers idle.
FRONTIER_PER_JOB = 16


class PartialTrace:
    """Mutable prefix of a double trace with incremental bookkeeping.

    Tracks per-edge use counts and first traversal directions, per-vertex
    visit counts, and the transition structure already completed at each
    vertex (a visit's pair is complete once both its neighbours in the
    walk are known; the pairs at w_0 and at the final vertex close only
    when the walk does).

    `closing` is the walk's last vertex w_{2m-1} once it is forced, else
    -1.  Vertex 0 has 2 deg(0) traversals: w_0 uses one, each later visit
    two, and the closing step one.  So when the walk leaves 0 on its
    deg(0)-th visit, the one traversal left at 0 is the closing step, and
    it runs from the one neighbour c whose edge to 0 still has capacity:
    every completion ends c, 0.  A prefix that ends at 0 still has to
    leave it, so popping the step that left 0 unforces c.
    """

    __slots__ = (
        "graph",
        "seq",
        "edge_count",
        "edge_from",
        "visits",
        "tmask",
        "pdeg",
        "closing",
        "_journal",
    )

    def __init__(self, graph: Graph):
        self.graph = graph
        self.seq: list[int] = []
        self.edge_count = [0] * graph.m
        self.edge_from = [-1] * graph.m
        self.visits = [0] * graph.n
        # Transition structure as bitmasks over neighbour indices: at each
        # vertex u, tmask[u][i] holds the neighbours paired with adj[u][i]
        # and pdeg[u][i] how many pair slots of adj[u][i] are used (0..2).
        self.tmask: list[list[int]] = [[0] * len(a) for a in graph.adj]
        self.pdeg: list[list[int]] = [[0] * len(a) for a in graph.adj]
        self.closing = -1
        self._journal: list[tuple[int, bool, int, int, int, int, int]] = []

    @classmethod
    def initial(cls, graph: Graph) -> "PartialTrace":
        if graph.n < 2 or not graph.has_edge(0, 1):
            raise ValueError(
                "enumeration needs vertices 0 and 1 adjacent; "
                "relabel with normalize_base_edge first"
            )
        pt = cls(graph)
        pt.seq = [0, 1]
        e = graph.edge_id(0, 1)
        pt.edge_count[e] = 1
        pt.edge_from[e] = 0
        pt.visits[0] = 1
        pt.visits[1] = 1
        if graph.degree(0) == 1:
            pt.closing = 1
        return pt

    def push(self, v: int) -> None:
        """Append v; caller guarantees feasibility."""
        seq = self.seq
        u = seq[-1]
        e = self.graph.eid_row[u][v]
        first = self.edge_count[e] == 0
        if first:
            self.edge_from[e] = u
        self.edge_count[e] += 1
        self.visits[v] += 1
        if len(seq) >= 2:
            idx = self.graph.nbr_index[u]
            ia = idx[seq[-2]]
            ib = idx[v]
            tm = self.tmask[u]
            old_a = tm[ia]
            old_b = tm[ib]
            tm[ia] = old_a | (1 << ib)
            tm[ib] = tm[ib] | (1 << ia)
            pd = self.pdeg[u]
            pd[ia] += 1
            pd[ib] += 1
            self._journal.append((e, first, u, ia, old_a, ib, old_b))
        else:
            self._journal.append((e, first, -1, 0, 0, 0, 0))
        seq.append(v)
        if u == 0 and self.visits[0] == len(self.graph.adj[0]):
            eid_0 = self.graph.eid_row[0]
            for c in self.graph.adj[0]:
                if self.edge_count[eid_0[c]] < 2:
                    self.closing = c
                    break

    def pop(self) -> None:
        """Undo the most recent push (not valid below the initial prefix)."""
        v = self.seq.pop()
        e, first, u, ia, old_a, ib, old_b = self._journal.pop()
        self.edge_count[e] -= 1
        if first:
            self.edge_from[e] = -1
        self.visits[v] -= 1
        if self.seq[-1] == 0:
            self.closing = -1
        if u >= 0:
            tm = self.tmask[u]
            tm[ia] = old_a
            tm[ib] = old_b
            pd = self.pdeg[u]
            pd[ia] -= 1
            pd[ib] -= 1

    def __len__(self) -> int:
        return len(self.seq)


def _kind_bound(graph: Graph, config: EnumerationConfig) -> int:
    """Reject a split vertex whose smallest component is <= this bound."""
    if config.kind == "strong":
        return graph.n
    if config.kind == "stable":
        return config.d  # type: ignore[return-value]
    return 0


def _kind_lookahead_ok(partial: PartialTrace, v: int, bound: int) -> bool:
    """The in-search kind check: False if stepping to v dooms the vertex left.

    Stepping to v completes the pair {w_{p-2}, v} at u = w_{p-1}.  If the
    transition component containing that pair has every pair slot filled,
    later visits can never connect it to the rest of the neighbourhood,
    so it survives as a component of the final structure.  When it is
    also a proper subset of size <= bound, every completion has a
    forbidden repetition at u and the branch is dead.  Every component
    is saturated by its last pair, so each one is checked exactly when
    it becomes final, at the start vertex too.  The two pairs that only
    the closing step completes, at w_{2m-1} and at w_0, are checked the
    same way by `_accept`.
    """
    graph = partial.graph
    seq = partial.seq
    u = seq[-1]
    idx_u = graph.nbr_index[u]
    tm = partial.tmask[u]
    comp = (1 << idx_u[seq[-2]]) | (1 << idx_u[v])
    frontier = comp
    while frontier:
        lb = frontier & -frontier
        frontier ^= lb
        new = tm[lb.bit_length() - 1] & ~comp
        comp |= new
        frontier |= new
    full = (1 << len(tm)) - 1
    if comp == full:
        return True
    size = comp.bit_count()
    if size > bound:
        return True
    pd = partial.pdeg[u]
    total = 2  # the pair completed by this step
    c = comp
    while c:
        lb = c & -c
        c ^= lb
        total += pd[lb.bit_length() - 1]
    return total != 2 * size


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


class RetainedSymmetries:
    """Symmetry alignments still tied with a search prefix.

    An alignment is an automorphism with a start s and a direction: its
    image of the closed walk is read from w_s forwards or backwards and
    relabelled.  The image can precede a walk starting 0 1 only if its
    first arc maps onto (0, 1), so `_arc_index[a][b]` holds the
    automorphisms mapping the arc (a, b) onto (0, 1), and only those are
    ever compared.  Three sets stay tied with the prefix:

    * `relabels`, the forward alignments at start 0: the pointwise
      stabiliser of the prefix, always holding the identity;
    * `forward`, the (perm, s) pairs for forward alignments at starts
      s >= 1 whose image matches the prefix so far;
    * `backward`, the (perm, s) pairs for backward alignments whose image
      matched all of w_s, ..., w_0; the rest of that image reads the
      walk's end, w_{2m-1} first;
    * `anchored`, the backward alignments whose image also matched its
      next element, perm[w_{2m-1}] against w_{s+1}, once the closing
      vertex w_{2m-1} was forced.  The rest waits for the leaf.

    `smaller_witness` is an alignment whose image is strictly smaller:
    no completion of the prefix is canonical, and every descendant
    inherits it.
    """

    __slots__ = (
        "length",
        "relabels",
        "forward",
        "backward",
        "anchored",
        "smaller_witness",
        "_arc_index",
    )

    def __init__(
        self,
        length: int,
        relabels: tuple[tuple[int, ...], ...],
        forward: tuple[tuple[tuple[int, ...], int], ...],
        backward: tuple[tuple[tuple[int, ...], int], ...],
        anchored: tuple[tuple[tuple[int, ...], int], ...],
        smaller_witness: SymmetryElement | None,
        arc_index: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...],
    ):
        self.length = length
        self.relabels = relabels
        self.forward = forward
        self.backward = backward
        self.anchored = anchored
        self.smaller_witness = smaller_witness
        self._arc_index = arc_index

    @classmethod
    def initial(cls, aut: AutGroup, length: int) -> "RetainedSymmetries":
        """The alignments tied with the base prefix 0 1.

        Besides the relabellings fixing 0 and 1, the backward alignments
        starting on the arc (1, 0) read 0 1 from the root.
        """
        n = aut.n
        rows: list[list[list[tuple[int, ...]]]] = [[[] for _ in range(n)] for _ in range(n)]
        for p in aut.elements:
            rows[p.index(0)][p.index(1)].append(p)
        arc_index = tuple(tuple(tuple(cell) for cell in row) for row in rows)
        return cls(
            length,
            arc_index[0][1],
            (),
            tuple((p, 1) for p in arc_index[1][0]),
            (),
            None,
            arc_index,
        )


def canonical_extension(
    partial: PartialTrace, candidates: Sequence[int], retained: RetainedSymmetries
) -> list[int]:
    """One smallest candidate per orbit of the prefix-fixing relabellings."""
    relabels = retained.relabels
    if len(relabels) <= 1 or len(candidates) <= 1:
        return sorted(candidates)
    remaining = set(candidates)
    out = []
    for v in sorted(candidates):
        if v not in remaining:
            continue
        out.append(v)
        for p in relabels:
            remaining.discard(p[v])
    return out


def prune(retained: RetainedSymmetries, partial: PartialTrace) -> RetainedSymmetries:
    """Advance the tied alignments over the last vertex of the prefix.

    Pushing v = w_{p-1} after u = w_{p-2} narrows the relabel stabiliser
    to the relabellings fixing v; once the closing vertex c is forced,
    compares perm[c] with w_{s+1} for every backward alignment tied on
    w_s, ..., w_0 that has not read it yet (all of them at the step that
    forces c, afterwards those tied one step earlier); decides the
    backward alignments that start at v on the arc (v, u), whose image
    window w_{p-1}, ..., w_0 is now complete; advances every tied forward
    alignment by one comparison; and lets in the forward alignments that
    start on the arc (u, v), which tie on it.  An alignment whose image
    is larger is dropped, a tie keeps it, and a smaller image is recorded
    as `smaller_witness`, deciding in that order.  Below a witness only
    the relabel stabiliser is still tracked, and the witness is passed on.
    """
    seq = partial.seq
    p = len(seq)
    v = seq[-1]
    u = seq[-2]
    length = retained.length
    arc_index = retained._arc_index
    witness = retained.smaller_witness
    relabels = []
    for perm in retained.relabels:
        x = perm[v]
        if x == v:
            relabels.append(perm)
        elif x < v and witness is None:
            witness = SymmetryElement(perm, 0, False)
    open_backward = retained.backward
    anchored = retained.anchored
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
        open_backward = ()
        if tied:
            anchored += tuple(tied)
    backward = []
    forward = []
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
    if witness is None:
        for alignment in retained.forward:
            perm, s = alignment
            a = perm[v]
            b = seq[p - 1 - s]
            if a == b:
                forward.append(alignment)
            elif a < b:
                witness = SymmetryElement(perm, s, False)
                break
    if witness is not None:
        return RetainedSymmetries(length, tuple(relabels), (), (), (), witness, arc_index)
    forward += [(perm, p - 2) for perm in arc_index[u][v]]
    return RetainedSymmetries(
        length,
        tuple(relabels),
        tuple(forward),
        open_backward + tuple(backward) if backward else open_backward,
        anchored,
        None,
        arc_index,
    )


@dataclass(frozen=True)
class _Search:
    """What one search holds fixed; pool workers receive it whole."""

    graph: Graph
    config: EnumerationConfig
    aut: AutGroup
    length: int
    # `_kind_bound` of the config; 0 (kind any) means no kind check.
    kind_bound: int
    use_prune: bool
    use_canonical_extension: bool

    def root(self) -> tuple[PartialTrace, RetainedSymmetries]:
        """The base-edge prefix and the symmetries retained on it."""
        return PartialTrace.initial(self.graph), RetainedSymmetries.initial(
            self.aut, self.length
        )


def _accept(search: _Search, partial: PartialTrace, rs: RetainedSymmetries) -> bool:
    """Whether a full-length prefix closes into a trace to emit.

    The closing step back to w_0 = 0 must respect the orientation, and
    the two pairs it completes must pass the kind lookahead (the pair at
    w_{2m-1} is the step to 0; the pair at w_0 is the step from 0 on to
    w_1 = 1).  Its edge always has capacity: the unused traversals have
    odd degree only at the walk's two ends, so the single one left after
    2m - 1 steps joins w_{2m-1} and w_0.
    The trace is canonical if the prefix has no witness and no image
    read from the closed walk precedes it.  `prune` compared every
    alignment on the prefix, so only two kinds remain: the wrapped tails
    of the alignments still tied (an anchored backward one has already
    matched the first element of its tail), and the two alignments that
    start on the closing arc (w_{2m-1}, 0), forwards at s = 2m - 1 and
    backwards at s = 0.
    """
    if rs.smaller_witness is not None:
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
    if bound:
        if not _kind_lookahead_ok(partial, 0, bound):
            return False
        partial.push(0)
        ok = _kind_lookahead_ok(partial, 1, bound)
        partial.pop()
        if not ok:
            return False
    length = len(seq)
    arc_index = rs._arc_index
    # A forward image from s reads w_0 .. w_{s-1} at positions 2m - s ..
    # 2m - 1; from the closing arc (s = 2m - 1) its position 1 is a tie.
    closing = tuple((perm, length - 1) for perm in arc_index[last][0])
    for perm, s in rs.forward + closing:
        if [perm[x] for x in seq[:s]] < seq[length - s :]:
            return False
    # A backward image from s reads w_{2m-1} .. w_{s+1} at positions s + 1
    # .. 2m - 1; from the closing arc (s = 0) its position 1 is a tie.
    closing = tuple((perm, 0) for perm in arc_index[0][last])
    for perm, s in rs.backward + rs.anchored + closing:
        tail = seq[s + 1 :]
        if [perm[x] for x in tail[::-1]] < tail:
            return False
    return True


def _descend(
    partial: PartialTrace,
    retained: RetainedSymmetries,
    search: _Search,
    stop: int,
    out: list[tuple[int, ...]],
) -> None:
    """Exhaust the subtree under one prefix down to length `stop`.

    At full length a prefix is a leaf and goes to `out` if `_accept`
    takes it.  At a shorter stop the prefix itself goes to `out` and the
    search backtracks.  Candidates are tried in increasing order, so
    `out` grows in lexicographic order.  Children are explored by
    push/pop on a single PartialTrace rather than by copying; each stack
    frame keeps the candidate list for its prefix and the symmetries
    retained there.  The prefix is restored on return.
    """
    seq = partial.seq
    config = search.config
    bound = search.kind_bound
    use_prune = search.use_prune
    use_canonical_extension = search.use_canonical_extension
    leaf = stop == search.length

    def expand(rs: RetainedSymmetries) -> list[int]:
        cands = feasible_neighbors(partial, config)
        if bound and cands:
            cands = [v for v in cands if _kind_lookahead_ok(partial, v, bound)]
        if use_canonical_extension:
            cands = canonical_extension(partial, cands, rs)
        return cands

    if len(seq) == stop:
        if not leaf or _accept(search, partial, retained):
            out.append(tuple(seq))
        return
    frames: list[list] = [[expand(retained), 0, retained]]
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
        child_rs = prune(frame[2], partial)
        if use_prune and child_rs.smaller_witness is not None:
            partial.pop()
            continue
        if len(seq) == stop:
            if not leaf or _accept(search, partial, child_rs):
                out.append(tuple(seq))
            partial.pop()
            continue
        frames.append([expand(child_rs), 0, child_rs])


def extend_feasibly(
    partial: PartialTrace, retained: RetainedSymmetries, search: _Search, depth: int
) -> list[tuple[int, ...]]:
    """The prefixes of length `depth` that the search under `partial` enters.

    They come in search order, and each has passed every check the full
    search applies on the way down: feasibility, the kind lookahead,
    canonical extension and `prune`.  `depth` must be shorter than a
    full trace.
    """
    out: list[tuple[int, ...]] = []
    _descend(partial, retained, search, depth, out)
    return out


def _enumerate_subtrees(
    search: _Search, prefixes: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Replay each frontier prefix from the root and search it to full length."""
    out: list[tuple[int, ...]] = []
    for prefix in prefixes:
        partial, rs = search.root()
        for v in prefix[len(partial) :]:
            partial.push(v)
            rs = prune(rs, partial)
            if search.use_prune and rs.smaller_witness is not None:
                raise AssertionError("replayed prefix was pruned")
        _descend(partial, rs, search, search.length, out)
    return out


def enumerate_traces(
    graph: Graph,
    config: EnumerationConfig | None = None,
    *,
    use_prune: bool = True,
    use_canonical_extension: bool = True,
    jobs: int = 1,
    aut: AutGroup | None = None,
) -> list[tuple[int, ...]]:
    """All canonical double traces of the requested kind, sorted.

    The graph must have its base edge normalized (vertices 0 and 1
    adjacent).  Every returned trace starts with 0, 1 and passes the full
    double-trace, kind, orientation and canonicity predicates.  The two
    `use_*` switches disable individual search accelerations; each leaves
    the result unchanged and exists for testing and diagnostics.  With
    `jobs > 1` the subtrees below one frontier of the same search are
    dealt out to that many worker processes.
    """
    if config is None:
        config = EnumerationConfig()
    if config.kind == "stable" and config.d > graph.min_degree():
        warnings.warn(
            f"stable({config.d}) exceeds the minimum degree {graph.min_degree()}",
            stacklevel=2,
        )
    if aut is None:
        aut = automorphisms(graph)
    search = _Search(
        graph,
        config,
        aut,
        2 * graph.m,
        _kind_bound(graph, config),
        use_prune,
        use_canonical_extension,
    )
    partial, rs0 = search.root()
    if jobs > 1:
        return _enumerate_parallel(partial, rs0, search, jobs)
    out: list[tuple[int, ...]] = []
    _descend(partial, rs0, search, search.length, out)
    return out


def _enumerate_parallel(
    partial: PartialTrace, rs0: RetainedSymmetries, search: _Search, jobs: int
) -> list[tuple[int, ...]]:
    """Split the search at the shallowest frontier wide enough for `jobs`.

    Frontier prefix i goes to worker i mod jobs.  A frontier that stays
    narrower down to the last step before full length is split as it is;
    an empty one means there is nothing to search.
    """
    import multiprocessing

    prefixes = [tuple(partial.seq)]
    depth = len(partial)
    while 0 < len(prefixes) < FRONTIER_PER_JOB * jobs and depth + 1 < search.length:
        depth += 1
        prefixes = extend_feasibly(partial, rs0, search, depth)
    args = [(search, prefixes[i::jobs]) for i in range(min(jobs, len(prefixes)))]
    out: list[tuple[int, ...]] = []
    if args:
        with multiprocessing.Pool(len(args)) as pool:
            for part in pool.starmap(_enumerate_subtrees, args):
                out.extend(part)
    out.sort()
    return out


def admits_parallel_strong(graph: Graph) -> bool:
    """A parallel strong trace exists iff every degree is even."""
    return all(graph.degree(v) % 2 == 0 for v in range(graph.n))


def admits_d_stable(graph: Graph, d: int) -> bool:
    """A d-stable trace exists iff the minimum degree is at least d."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return graph.min_degree() >= d


def admits_antiparallel_strong(graph: Graph, max_edges: int = 16) -> bool:
    """An antiparallel strong trace exists iff some spanning tree leaves a
    co-tree whose components all have an even number of edges.

    Exhaustive over spanning trees, so refuses graphs beyond max_edges.
    """
    from itertools import combinations

    if graph.m > max_edges:
        raise SizeGuardError(
            f"antiparallel feasibility check refuses graphs with more than "
            f"{max_edges} edges (got {graph.m})"
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
