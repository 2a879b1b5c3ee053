"""Outside-in tracing of the doubletrace search for the benchmark's traced run.

`Tracer.install` swaps timing and counting wrappers in for module attributes
of `doubletrace.enumerator` and `doubletrace.cli`; `uninstall` puts the
originals back.  The package itself is not changed.

Two kinds of record are kept in memory and written when the run ends:

* spans, one per call, for the rare calls (rows, `enumerate_traces`,
  `cli.main`, graph building, `automorphisms`, `extend_feasibly`):
  name, start, end, parent span and row;
* aggregates for the hot stages, which run up to a million times a row
  (`feasible_neighbors`, `canonical_extension`, `prune` and the four leaf
  predicates): calls, seconds and stage counts per (row, enclosing span
  name, stage).  A span per call would cost hundreds of megabytes and
  distort the timings it is meant to show.

The hot stages call no wrapped function, so their self time is their
time.  A span's self time is its duration minus the time its children
cover, hot stages included.

Pool workers forked by `enumerate_traces(..., jobs=2)` restore the
originals right after the fork: they run untraced, and their CPU time is
read from `RUSAGE_CHILDREN` instead.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict

clock = time.perf_counter

# Hot stages, all attributes of doubletrace.enumerator:
# (attribute, stage name, what its counts hold).
HOT_STAGES = (
    ("feasible_neighbors", "enumerator.feasible_neighbors", "returned"),
    ("canonical_extension", "enumerator.canonical_extension", "in_out"),
    ("prune", "enumerator.prune", "witness"),
    ("is_double_trace", "traces.is_double_trace", "reject"),
    ("satisfies_kind", "traces.satisfies_kind", "reject"),
    ("satisfies_orientation", "traces.satisfies_orientation", "reject"),
    ("is_canonical", "traces.is_canonical", "reject"),
)

# Rare calls recorded as spans: (module, attribute, span name).
SPAN_CALLS = (
    ("enumerator", "automorphisms", "automorphism"),
    ("enumerator", "extend_feasibly", "parallel.frontier"),
    ("cli", "enumerate_traces", "enumerator.search"),
    ("cli", "named_graph", "graph.build"),
    ("cli", "normalize_base_edge", "graph.build"),
    ("cli", "parse_edge_list", "graph.build"),
)


def _new_stage() -> list:
    # calls, seconds, and two counts: candidates returned by feasible_neighbors;
    # candidates in and out of canonical_extension; prune witnesses found;
    # leaves a predicate rejected.
    return [0, 0.0, 0, 0]


class Untraced:
    """Stand-in for `Tracer` in untraced passes: calls straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def row(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Spans and stage aggregates of one traced pass."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, row, extra].
        self.spans: list[list] = []
        self._open: list[int] = []
        self._row: str | None = None
        self._stages: dict[tuple, defaultdict] = {}
        self.stage = self._stage_table(None)
        self._saved: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self.uninstall)

    # -- spans -----------------------------------------------------------

    def _stage_table(self, container: str | None) -> defaultdict:
        key = (self._row, container)
        table = self._stages.get(key)
        if table is None:
            table = self._stages[key] = defaultdict(_new_stage)
        return table

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), None, parent, self._row, None])
        self._open.append(index)
        self.stage = self._stage_table(name)
        return index

    def _exit(self, index: int, extra=None) -> None:
        span = self.spans[index]
        span[2] = clock()
        span[5] = extra
        self._open.pop()
        self.stage = self._stage_table(self.spans[self._open[-1]][0] if self._open else None)

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span; `automorphism` spans keep the group order."""
        index = self._enter(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            self._exit(index, out.order if name == "automorphism" and out is not None else None)

    @contextlib.contextmanager
    def row(self, name: str):
        self._row = name
        index = self._enter("row")
        try:
            yield
        finally:
            self._exit(index)
            self._row = None
            self.stage = self._stage_table(None)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _stage_wrapper(self, name, fn, kind):
        tracer = self
        if kind == "returned":

            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                t1 = clock()
                rec = tracer.stage[name]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += len(out)
                return out

        elif kind == "in_out":

            def wrapper(partial, candidates, *args, **kwargs):
                t0 = clock()
                out = fn(partial, candidates, *args, **kwargs)
                t1 = clock()
                rec = tracer.stage[name]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += len(candidates)
                rec[3] += len(out)
                return out

        elif kind == "witness":

            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                t1 = clock()
                rec = tracer.stage[name]
                rec[0] += 1
                rec[1] += t1 - t0
                if out.smaller_witness is not None:
                    rec[2] += 1
                return out

        else:

            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                t1 = clock()
                rec = tracer.stage[name]
                rec[0] += 1
                rec[1] += t1 - t0
                if not out:
                    rec[2] += 1
                return out

        return wrapper

    def install(self) -> None:
        import doubletrace.cli
        import doubletrace.enumerator

        modules = {"enumerator": doubletrace.enumerator, "cli": doubletrace.cli}
        enumerator = doubletrace.enumerator
        for attr, name, kind in HOT_STAGES:
            self._patch(enumerator, attr, self._stage_wrapper(name, getattr(enumerator, attr), kind))
        for module_name, attr, name in SPAN_CALLS:
            module = modules[module_name]
            self._patch(module, attr, self._span_wrapper(name, getattr(module, attr)))

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results ---------------------------------------------------------

    def stage_totals(self, row: str | None = None) -> dict[str, list]:
        """Stage aggregates summed over enclosing spans (and rows, unless given)."""
        totals: dict[str, list] = defaultdict(_new_stage)
        for (row_name, _), table in self._stages.items():
            if row is not None and row_name != row:
                continue
            for name, rec in table.items():
                total = totals[name]
                for i, value in enumerate(rec):
                    total[i] += value
        return totals

    def stage_containers(self) -> set:
        """Names of the spans that hot stages ran directly inside (None: no span)."""
        return {container for (_, container), table in self._stages.items() if table}

    def span_totals(self, name: str, within: str | None = None) -> tuple[int, float]:
        """Calls and seconds of spans called `name`, optionally below a span called `within`."""
        calls = 0
        seconds = 0.0
        for span in self.spans:
            if span[0] == name and (within is None or self._below(span, within)):
                calls += 1
                seconds += span[2] - span[1]
        return calls, seconds

    def _below(self, span: list, ancestor: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def self_seconds(self, name: str) -> float:
        """Duration of the spans called `name` minus the time their children cover."""
        spans = self.spans
        total = 0.0
        for span in spans:
            duration = span[2] - span[1]
            if span[0] == name:
                total += duration
            if span[3] >= 0 and spans[span[3]][0] == name:
                total -= duration
        for (_, container), table in self._stages.items():
            if container == name:
                total -= sum(rec[1] for rec in table.values())
        return total

    def write(self, path: str) -> None:
        stages = [
            {"row": row, "parent": container, "stage": name,
             "calls": rec[0], "seconds": rec[1], "count_a": rec[2], "count_b": rec[3]}
            for (row, container), table in self._stages.items()
            for name, rec in table.items()
        ]
        spans = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "row": s[4], "extra": s[5]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "stages": stages}, handle)
