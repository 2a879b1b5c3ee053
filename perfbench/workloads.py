"""One pass of a doubletrace benchmark workload, in a process of its own.

    PYTHONPATH=src python3 perfbench/workloads.py --workload NAME --seed N
        [--relabel] [--trace] [--setup-only]

prints one JSON object: the set-up time, every row's time, CPU and trace
count, the peak RSS, and whether each row's output was correct.  A fresh
process per pass makes the import part of set-up and keeps peak RSS a
property of this pass alone.  `perfbench/run.py` starts the passes and
reports the medians.

The package sees only its public entry points: `named_graph`,
`normalize_base_edge`, `automorphisms`, `enumerate_traces` and
`doubletrace.cli.main`.  Outputs are checked after each row, outside the
timed region.

`WORKLOADS` below defines each workload with why it was chosen and the
layer metrics it is meant to move.

Graphs carry the reference labels of `named_graph` unless `--relabel` is
given: then every graph is relabelled by a random permutation drawn from
the seed and its name, followed by `normalize_base_edge` (seed 0 keeps the
reference labels).  A relabelling moves a row's time by up to 2x, so by
default the graphs keep the reference labels and the seed only orders the
rows: runs on different seeds then measure the same work.
"""

from __future__ import annotations

import time

# Set-up is timed from here, before doubletrace is imported.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Callable  # noqa: E402

from tracing import Tracer, Untraced  # noqa: E402

# Each workload: what it runs, why it was chosen, and which layer metrics
# a change should move on it (and so which end-to-end numbers).
WORKLOADS = {
    "strong-tables": {
        "rows": "the non-slow `doubletrace tables` rows except prism:7 (about 20 s on its "
                "own): tetrahedron, cube, octahedron, prism:3-6, pyramid:4, bipyramid:3, "
                "each kind=strong and then strong with its restricted orientation; 18 "
                "serial enumerate_traces calls with aut= passed as cmd_tables does",
        "why": "it holds the headline row, octahedron strong, where leaf acceptance "
               "(is_canonical, the strong re-check in satisfies_kind) dominates and the "
               "kind lookahead cuts the most candidates",
        "moves": ["traces.leaf_accept_s", "traces.is_canonical.s",
                  "traces.is_canonical.rejects", "traces.satisfies_kind.s",
                  "enumerator.lookahead.cut", "automorphism.s (setup_s)"],
    },
    "strong-tables-jobs2": {
        "rows": "the same 18 calls with jobs=2",
        "why": "the only workload through the parallel path (frontier built by "
               "extend_feasibly, a multiprocessing.Pool per call); strong-tables is its "
               "serial baseline",
        "moves": ["parallel.worker_cpu_s", "parallel.cpu_util", "parallel.frontier_s",
                  "parallel.frontier_nodes", "automorphism.s (setup_s)"],
    },
    "double-stable-cli": {
        "rows": "doubletrace enumerate through doubletrace.cli.main, in process with "
                "stdout captured: pyramid:5 and bipyramid:3 unrestricted, pyramid:6 "
                "--kind stable --d 2, bipyramid:3 --kind stable --d 1",
        "why": "kind=any switches the kind lookahead off and stable(d) weakens it and "
               "rejects leaves in satisfies_kind; the most nodes per trace, the only "
               "CLI layer and the most traces held in memory",
        "moves": ["enumerator.prune.s", "enumerator.feasible_neighbors.s",
                  "enumerator.loop_self_s", "enumerator.nodes",
                  "traces.satisfies_kind.rejects", "enumerator.automorphisms.s",
                  "cli.overhead_s", "cli.main_s"],
    },
}

# The table row left out of strong-tables: it alone takes about 20 s.
SKIPPED_TABLE_ROWS = ("prism:7",)

# double-stable-cli rows: graph, stability order d (None for unrestricted
# traces), and on the reference labels the trace count and the sha256 of
# the sorted trace lines.  The count holds on every labelling.
CLI_ROWS = (
    ("pyramid:5", None, 22560,
     "894735fe4b115a980afbf9abd6a81ca2cc05484fb4d4735dd041f86ee627aa6b"),
    ("bipyramid:3", None, 15239,
     "65254de497c7ff9fad7df1f3f42d1b5fdd0da1014ca44ab5ce88abb1fdb62c30"),
    ("pyramid:6", 2, 8568,
     "264fa12b872ef49a1110cbdbf368ab85a42d5cd3078d71fbc350f8fdbb5fafce"),
    ("bipyramid:3", 1, 925,
     "123d3b266a2b66bc535a088780aa98c6fde3dc022c4d60a5a37678749ea48972"),
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class Row:
    """One enumeration call of a workload and what its output must be."""

    name: str
    graph: Any
    config: Any
    expected: int
    # Runs the row with the given tracer; returns the traces, or the CLI's text.
    run: Callable[[Any], Any]
    aut: Any = None
    # Set on the reference labels of double-stable-cli rows.
    digest: str | None = None
    # Set when the graph was relabelled: check every trace with the predicates.
    full_check: bool = False


@dataclass
class RowResult:
    name: str
    seconds: float = 0.0
    cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    traces: int = 0
    output_bytes: int = 0
    error: str | None = None


def row_name(spec: str, config_name: str) -> str:
    return f"{spec.replace(':', '-')}.{config_name}"


def _graph(spec: str, seed: int, relabel: bool, tracer):
    from doubletrace import Graph, named_graph, normalize_base_edge

    name, _, size = spec.partition(":")
    graph = tracer.call("graph.build", named_graph, name, int(size) if size else None)
    if not relabel or seed == 0:
        return graph
    perm = list(range(graph.n))
    random.Random(f"{seed}/{spec}").shuffle(perm)
    relabelled = tracer.call(
        "graph.build", Graph, graph.n, [(perm[u], perm[v]) for u, v in graph.edges]
    )
    return tracer.call("graph.build", normalize_base_edge, relabelled)[0]


def _table_rows(jobs: int, seed: int, relabel: bool, tracer) -> list[list[Row]]:
    from doubletrace import EnumerationConfig, automorphisms, enumerate_traces
    from doubletrace.cli import _TABLE_ROWS

    groups = []
    for _, spec, strong_count, orientation, oriented_count, slow in _TABLE_ROWS:
        if slow or spec in SKIPPED_TABLE_ROWS:
            continue
        graph = _graph(spec, seed, relabel, tracer)
        aut = tracer.call("automorphism", automorphisms, graph)
        group = []
        for config, config_name, expected in (
            (EnumerationConfig(kind="strong"), "strong", strong_count),
            (EnumerationConfig(kind="strong", orientation=orientation),
             f"strong-{orientation}", oriented_count),
        ):
            def run(tracer, graph=graph, config=config, aut=aut):
                return tracer.call(
                    "enumerator.search", enumerate_traces, graph, config, jobs=jobs, aut=aut
                )

            group.append(Row(row_name(spec, config_name), graph, config, expected, run,
                             aut=aut, full_check=relabel and seed != 0))
        groups.append(group)
    return groups


def _cli_rows(seed: int, relabel: bool, tracer) -> list[list[Row]]:
    from doubletrace import EnumerationConfig
    from doubletrace import cli

    groups = []
    for spec, d, expected, digest in CLI_ROWS:
        if d is None:
            argv, config, config_name = ["enumerate"], EnumerationConfig(), "any"
        else:
            argv = ["enumerate", "--kind", "stable", "--d", str(d)]
            config, config_name = EnumerationConfig(kind="stable", d=d), f"stable{d}"
        graph = None
        if relabel and seed != 0:
            graph = _graph(spec, seed, relabel, tracer)
            path = os.path.join(OUT_DIR, f"seed{seed}-{spec.replace(':', '-')}.edges")
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(f"{u} {v}\n" for u, v in graph.edges)
            argv += ["--edges", path]
            digest = None
        else:
            argv += ["--named", spec]

        def run(tracer, argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = tracer.call("cli.main", cli.main, argv)
            if code != 0:
                raise RuntimeError(f"doubletrace {' '.join(argv)} exited with {code}")
            return out.getvalue()

        groups.append([Row(row_name(spec, config_name), graph, config, expected, run,
                           digest=digest, full_check=relabel and seed != 0)])
    return groups


def build_rows(workload: str, seed: int, relabel: bool, tracer) -> list[Row]:
    """The workload's rows in run order: seed 0 keeps the table order."""
    if workload == "double-stable-cli":
        groups = _cli_rows(seed, relabel, tracer)
    elif workload in ("strong-tables", "strong-tables-jobs2"):
        groups = _table_rows(2 if workload.endswith("jobs2") else 1, seed, relabel, tracer)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed:
        random.Random(seed).shuffle(groups)
    return [row for group in groups for row in group]


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_row(row: Row, tracer) -> RowResult:
    """Time one row, then check its output outside the timed region."""
    result = RowResult(row.name)
    cpu0 = _cpu(resource.RUSAGE_SELF)
    workers0 = _cpu(resource.RUSAGE_CHILDREN)
    try:
        with tracer.row(row.name):
            started = time.perf_counter()
            output = row.run(tracer)
            result.seconds = time.perf_counter() - started
        result.cpu_s = _cpu(resource.RUSAGE_SELF) - cpu0
        result.worker_cpu_s = _cpu(resource.RUSAGE_CHILDREN) - workers0
        if isinstance(output, str):
            result.output_bytes = len(output.encode())
            output = [line for line in output.splitlines() if line and not line.startswith("#")]
        result.traces = len(output)
        result.error = check_output(row, output)
    except Exception as exc:  # noqa: BLE001 - a failing row is counted, not fatal
        traceback.print_exc()
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def check_output(row: Row, output: list) -> str | None:
    """None when the row's output is right, else what is wrong with it."""
    from doubletrace.automorphism import automorphisms
    from doubletrace.traces import (
        is_canonical,
        is_double_trace,
        parse_trace,
        satisfies_kind,
        satisfies_orientation,
    )

    if len(output) != row.expected:
        return f"{len(output)} traces, expected {row.expected}"
    if len(set(output)) != len(output):
        return "duplicate traces"
    if row.digest is not None:
        digest = hashlib.sha256("\n".join(sorted(output)).encode()).hexdigest()
        if digest != row.digest:
            return f"trace digest {digest}, expected {row.digest}"
    if row.full_check:
        traces = [parse_trace(t) if isinstance(t, str) else t for t in output]
        aut = row.aut if row.aut is not None else automorphisms(row.graph)
        for trace in traces:
            if not (
                is_double_trace(row.graph, trace)
                and satisfies_kind(row.graph, trace, row.config)
                and satisfies_orientation(row.graph, trace, row.config)
                and is_canonical(row.graph, trace, aut)
            ):
                return f"trace {trace} fails the predicates"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--relabel", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer() if args.trace else Untraced()
    rows = build_rows(args.workload, args.seed, args.relabel, tracer)
    setup_s = time.perf_counter() - STARTED
    report: dict[str, Any] = {"setup_s": setup_s, "rows": []}
    if not args.setup_only:
        if args.trace:
            tracer.install()
        try:
            results = [run_row(row, tracer) for row in rows]
        finally:
            if args.trace:
                tracer.uninstall()
        report["rows"] = [vars(r) for r in results]
        peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        report["peak_rss_mb"] = peak_kb / 1024
        if args.trace:
            report["layers"] = layer_metrics(tracer, results)
            tracer.write(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}{'-relabel' if args.relabel else ''}.json"))
    print(json.dumps(report))
    return 0


def layer_metrics(tracer: Tracer, results: list[RowResult]) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    # loop_self_s is the search spans' time minus the stages run inside them,
    # so the stage times and loop_self_s add up to search_s by definition.  That
    # holds only if no hot stage ran outside a search: check it.
    stray = tracer.stage_containers() - {"enumerator.search", "parallel.frontier"}
    if stray:
        raise RuntimeError(f"hot stages ran outside enumerate_traces, below {sorted(map(str, stray))}")
    stages = tracer.stage_totals()
    fn = stages["enumerator.feasible_neighbors"]
    ce = stages["enumerator.canonical_extension"]
    pr = stages["enumerator.prune"]
    leaf = {name: stages[f"traces.{name}"] for name in
            ("is_double_trace", "satisfies_kind", "satisfies_orientation", "is_canonical")}
    _, search_s = tracer.span_totals("enumerator.search")
    _, aut_in_search_s = tracer.span_totals("automorphism", within="enumerator.search")
    frontier_nodes, frontier_s = tracer.span_totals("parallel.frontier")
    _, graph_s = tracer.span_totals("graph.build")
    _, aut_s = tracer.span_totals("automorphism")
    _, main_s = tracer.span_totals("cli.main")
    _, search_in_main_s = tracer.span_totals("enumerator.search", within="cli.main")
    _, graph_in_main_s = tracer.span_totals("graph.build", within="cli.main")
    leaf_accept_s = sum(rec[1] for rec in leaf.values())
    loop_self_s = tracer.self_seconds("enumerator.search") + tracer.self_seconds(
        "parallel.frontier")
    traces = sum(r.traces for r in results)
    leaves = leaf["is_double_trace"][0]
    metrics = {
        "graph.build_s": graph_s,
        "automorphism.s": aut_s,
        "automorphism.group_order": sum(
            s[5] for s in tracer.spans if s[0] == "automorphism" and s[5] is not None),
        "enumerator.search_s": search_s,
        "enumerator.expansions": fn[0],
        "enumerator.nodes": pr[0],
        "enumerator.loop_self_s": loop_self_s,
        "enumerator.automorphisms.s": aut_in_search_s,
        "enumerator.feasible_neighbors.s": fn[1],
        "enumerator.candidates": fn[2],
        "enumerator.lookahead.cut": fn[2] - ce[2],
        "enumerator.canonical_extension.s": ce[1],
        "enumerator.canonical_extension.cut": ce[2] - ce[3],
        "enumerator.prune.s": pr[1],
        "enumerator.prune.cut": pr[2],
        "enumerator.leaves": leaves,
        "enumerator.leaf_yield": traces / leaves if leaves else 0.0,
        "traces.is_canonical.s": leaf["is_canonical"][1],
        "traces.is_canonical.rejects": leaf["is_canonical"][2],
        "traces.satisfies_kind.s": leaf["satisfies_kind"][1],
        "traces.satisfies_kind.rejects": leaf["satisfies_kind"][2],
        "traces.is_double_trace.s": leaf["is_double_trace"][1],
        "traces.satisfies_orientation.s": leaf["satisfies_orientation"][1],
        "traces.leaf_accept_s": leaf_accept_s,
        "parallel.frontier_s": frontier_s,
        "parallel.frontier_nodes": frontier_nodes,
        "cli.main_s": main_s,
        "cli.overhead_s": main_s - search_in_main_s - graph_in_main_s,
        "cli.output_bytes": sum(r.output_bytes for r in results),
    }
    return metrics


if __name__ == "__main__":
    sys.exit(main())
