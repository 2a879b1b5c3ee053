"""Command line front end.

Subcommands: enumerate (canonical traces of one graph and configuration),
verify (branch-and-bound against the brute-force oracle), orbits
(subgroup orbit structure of the brute-force trace set) and tables
(reference counts for the built-in graph families).

Exit codes: 0 success, 1 internal failure, 2 usage or configuration
error, 3 size guard refusal.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass

from .automorphism import automorphisms
from .enumerator import (
    ANTIPARALLEL_MAX_EDGES,
    admits_antiparallel_strong,
    admits_parallel_strong,
    enumerate_traces,
)
from .graph import (
    Graph,
    SizeGuardError,
    named_graph,
    normalize_base_edge,
    parse_edge_list,
    parse_graph6,
)
from .oracle import (
    brute_enumerate,
    emit_orbit_graph,
    orbit_partition,
    verify_against_oracle,
)
from .traces import EnumerationConfig, format_trace

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


class UsageError(ValueError):
    pass


@dataclass
class LoadedGraph:
    graph: Graph
    label: str
    relabeling: tuple[int, ...] | None


def _load_graph(args: argparse.Namespace) -> LoadedGraph:
    if args.named is not None:
        name, _, size = args.named.partition(":")
        k = None
        if size:
            try:
                k = int(size)
            except ValueError:
                raise UsageError(f"size in {args.named!r} must be an integer") from None
        try:
            graph = named_graph(name, k)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        label = args.named
    elif args.graph6 is not None:
        try:
            graph = parse_graph6(args.graph6)
        except ValueError as exc:
            raise UsageError(f"bad graph6 input: {exc}") from None
        label = "graph6"
    else:
        try:
            with open(args.edges, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.edges}: {exc}") from None
        try:
            graph = parse_edge_list(text)
        except ValueError as exc:
            raise UsageError(f"bad edge list {args.edges}: {exc}") from None
        label = args.edges
    normalized, perm = normalize_base_edge(graph)
    relabeling = None if perm == tuple(range(graph.n)) else perm
    return LoadedGraph(normalized, label, relabeling)


@contextlib.contextmanager
def _output_file(path: str | None):
    """Open `path` for writing, or yield None without one.

    Opened before the search, so that an unwritable path fails before
    any work is done; failing to open it is a usage error.
    """
    if path is None:
        yield None
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None
    with handle:
        yield handle


def _write_file(handle, text: str) -> None:
    """Write `text` and a newline to an open output file; failing to is a
    usage error."""
    try:
        handle.write(text + "\n")
        handle.flush()
    except OSError as exc:
        raise UsageError(f"cannot write {handle.name}: {exc}") from None


def _config_from(args: argparse.Namespace) -> EnumerationConfig:
    kind = args.kind
    d = getattr(args, "d", None)
    if kind == "double":
        kind = "any"
    if kind == "stable":
        if d is None:
            raise UsageError("--kind stable needs --d")
    elif d is not None:
        raise UsageError("--d is only valid with --kind stable")
    try:
        return EnumerationConfig(kind=kind, d=d, orientation=args.orientation)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph6", metavar="STR", help="graph6-encoded graph")
    source.add_argument("--edges", metavar="FILE", help="edge list file, one edge per line")
    source.add_argument(
        "--named",
        metavar="NAME[:K]",
        help="named graph: tetrahedron, cube, octahedron, dodecahedron, "
        "icosahedron, prism:K, pyramid:K, bipyramid:K",
    )


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kind",
        choices=("double", "strong", "stable"),
        default="double",
        help="which traces to accept (default: double, i.e. unrestricted)",
    )
    parser.add_argument("--d", type=int, help="stability order for --kind stable")
    parser.add_argument(
        "--orientation",
        choices=("any", "parallel", "antiparallel"),
        default="any",
        help="edge traversal direction restriction (default: any)",
    )


def _check_jobs(args: argparse.Namespace) -> None:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")


def _report_lines(loaded: LoadedGraph, extra: dict) -> list[str]:
    graph = loaded.graph
    lines = [
        f"# graph: {loaded.label} (n={graph.n}, m={graph.m})",
    ]
    if loaded.relabeling is not None:
        lines.append(
            "# relabeling applied: " + " ".join(str(x) for x in loaded.relabeling)
        )
    for key, value in extra.items():
        lines.append(f"# {key}: {value}")
    return lines


def _feasibility_note(graph: Graph, config: EnumerationConfig, count: int) -> str | None:
    """Explain a zero count when a structural characterization predicts it."""
    if count or config.kind != "strong":
        return None
    if config.orientation == "parallel" and not admits_parallel_strong(graph):
        return "no parallel strong trace exists: some vertex has odd degree"
    if config.orientation == "antiparallel" and graph.m <= ANTIPARALLEL_MAX_EDGES:
        if not admits_antiparallel_strong(graph):
            return (
                "no antiparallel strong trace exists: every spanning tree "
                "leaves a co-tree with an odd component"
            )
    return None


def cmd_enumerate(args: argparse.Namespace) -> int:
    _check_jobs(args)
    loaded = _load_graph(args)
    config = _config_from(args)
    with _output_file(args.out) as out:
        graph = loaded.graph
        started = time.perf_counter()
        traces = enumerate_traces(graph, config, jobs=args.jobs)
        seconds = time.perf_counter() - started
        note = _feasibility_note(graph, config, len(traces))
        payload = {
            "graph": loaded.label,
            "n": graph.n,
            "m": graph.m,
            "config": config.describe(),
            "count": len(traces),
            "seconds": round(seconds, 3),
        }
        if note is not None:
            payload["note"] = note
        if loaded.relabeling is not None:
            payload["relabeling"] = list(loaded.relabeling)
        if not args.count_only:
            payload["traces"] = [list(t) for t in traces]
        if args.format == "json":
            text = json.dumps(payload, indent=2)
            if out:
                _write_file(out, text)
                print(f"# wrote {args.out}")
            else:
                print(text)
            return EXIT_OK
        extra = {
            "config": config.describe(),
            "count": len(traces),
            "seconds": f"{seconds:.3f}",
        }
        if note is not None:
            extra["note"] = note
        report = _report_lines(loaded, extra)
        body = [] if args.count_only else [format_trace(t) for t in traces]
        if out:
            _write_file(out, "\n".join(report + body))
            print("\n".join(report))
            print(f"# wrote {args.out}")
        else:
            print("\n".join(report + body))
        return EXIT_OK


def _parse_kinds(spec: str) -> list[tuple[str, int | None]]:
    out: list[tuple[str, int | None]] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, num = token.partition(":")
        if name == "double":
            name = "any"
        if name == "stable":
            if not num:
                raise UsageError("stable kind in --kinds needs an order, e.g. stable:2")
            if not num.isdecimal() or int(num) < 1:
                raise UsageError(f"order in {token!r} must be a positive integer")
            out.append((name, int(num)))
        elif name in ("any", "strong"):
            if num:
                raise UsageError(f"kind {name!r} takes no order")
            out.append((name, None))
        else:
            raise UsageError(f"unknown kind {token!r}")
    if not out:
        raise UsageError("no kinds requested")
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    loaded = _load_graph(args)
    kinds = _parse_kinds(args.kinds)
    orientations = [o.strip() for o in args.orientations.split(",") if o.strip()]
    for orientation in orientations:
        if orientation not in ("any", "parallel", "antiparallel"):
            raise UsageError(f"unknown orientation {orientation!r}")
    if not orientations:
        raise UsageError("no orientations requested")
    print(f"# graph: {loaded.label} (n={loaded.graph.n}, m={loaded.graph.m})")
    all_equal = True
    for kind, d in kinds:
        for orientation in orientations:
            config = EnumerationConfig(kind=kind, d=d, orientation=orientation)
            report = verify_against_oracle(loaded.graph, config)
            print(report.summary())
            all_equal = all_equal and report.equal
    if all_equal:
        print("# all configurations agree with the oracle")
        return EXIT_OK
    print("# MISMATCH between enumerator and oracle", file=sys.stderr)
    return EXIT_INTERNAL


def cmd_orbits(args: argparse.Namespace) -> int:
    loaded = _load_graph(args)
    config = _config_from(args)
    graph = loaded.graph
    with _output_file(args.dot) as dot:
        traces = brute_enumerate(graph, config, scope="all_starts")
        aut = automorphisms(graph)
        report = orbit_partition(traces, aut, args.subgroup)
        if dot:
            _write_file(dot, emit_orbit_graph(traces, aut, args.subgroup))
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        sizes = " ".join(str(s) for s in report.sizes)
        print(f"# graph: {loaded.label} ({config.describe()})")
        print(f"# traces: {report.total}")
        print(f"# subgroup: {args.subgroup}")
        print(f"{len(report.orbits)} orbits: {sizes}")
        if args.dot:
            print(f"# wrote {args.dot}")
    return EXIT_OK


# Reference counts: (table, graph spec, strong count, restricted orientation,
# restricted count, slow).  The restricted orientation is parallel for the
# regular solids and antiparallel for the prism-like families.
_TABLE_ROWS: list[tuple[str, str, int, str, int, bool]] = [
    ("solids", "tetrahedron", 3, "parallel", 0, False),
    ("solids", "cube", 40, "parallel", 0, False),
    ("solids", "octahedron", 21479, "parallel", 262, False),
    ("solids", "dodecahedron", 2532008, "parallel", 0, True),
    ("prisms", "prism:3", 25, "antiparallel", 2, False),
    ("prisms", "prism:4", 40, "antiparallel", 0, False),
    ("prisms", "prism:5", 634, "antiparallel", 10, False),
    ("prisms", "prism:6", 3604, "antiparallel", 0, False),
    ("prisms", "prism:7", 21925, "antiparallel", 76, False),
    ("prisms", "prism:8", 134008, "antiparallel", 0, True),
    ("prisms", "prism:9", 833685, "antiparallel", 536, True),
    ("prisms", "prism:10", 5212520, "antiparallel", 0, True),
    ("pyramids", "pyramid:4", 52, "antiparallel", 4, False),
    ("pyramids", "bipyramid:3", 470, "antiparallel", 0, False),
]


def cmd_tables(args: argparse.Namespace) -> int:
    _check_jobs(args)
    failures = 0
    for table, spec, strong_expected, orientation, oriented_expected, slow in _TABLE_ROWS:
        if slow and not args.include_slow:
            continue
        name, _, size = spec.partition(":")
        graph = named_graph(name, int(size) if size else None)
        aut = automorphisms(graph)
        started = time.perf_counter()
        strong = len(
            enumerate_traces(
                graph, EnumerationConfig(kind="strong"), jobs=args.jobs, aut=aut
            )
        )
        oriented = len(
            enumerate_traces(
                graph,
                EnumerationConfig(kind="strong", orientation=orientation),
                jobs=args.jobs,
                aut=aut,
            )
        )
        seconds = time.perf_counter() - started
        ok = strong == strong_expected and oriented == oriented_expected
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        print(
            f"{table:8s} {spec:14s} strong {strong:>8d} (expected {strong_expected:>8d})  "
            f"{orientation} {oriented:>4d} (expected {oriented_expected:>4d})  "
            f"{seconds:8.2f}s  {status}"
        )
    if failures:
        print(f"# {failures} row(s) failed", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubletrace",
        description="Enumerate canonical double traces of simple connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="enumerate canonical traces")
    _add_graph_arguments(p_enum)
    _add_config_arguments(p_enum)
    p_enum.add_argument("--count-only", action="store_true", help="report the count only")
    p_enum.add_argument("--format", choices=("text", "json"), default="text")
    p_enum.add_argument("--out", metavar="FILE", help="write traces to a file")
    p_enum.add_argument(
        "--jobs", type=int, default=1, help="processes that search, this one included"
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="compare against the brute-force oracle")
    _add_graph_arguments(p_verify)
    p_verify.add_argument(
        "--kinds",
        "--kind",
        default="double,strong,stable:1,stable:2",
        help="comma separated kinds (double, strong, stable:D)",
    )
    p_verify.add_argument(
        "--orientations",
        "--orientation",
        default="any,parallel,antiparallel",
        help="comma separated orientations",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_orbits = sub.add_parser("orbits", help="orbit structure of the brute-force set")
    _add_graph_arguments(p_orbits)
    _add_config_arguments(p_orbits)
    p_orbits.add_argument(
        "--subgroup",
        choices=("gamma", "aut", "reversal", "shift"),
        default="gamma",
        help="subgroup acting on the trace set",
    )
    p_orbits.add_argument("--dot", metavar="FILE", help="write the orbit graph as DOT")
    p_orbits.add_argument("--format", choices=("text", "json"), default="text")
    p_orbits.set_defaults(func=cmd_orbits)

    p_tables = sub.add_parser("tables", help="recompute the reference count tables")
    p_tables.add_argument(
        "--include-slow",
        action="store_true",
        help="include rows that take hours (dodecahedron, prism:8 and up)",
    )
    p_tables.add_argument(
        "--jobs", type=int, default=1, help="processes that search, this one included"
    )
    p_tables.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early, as `| head` does.  Nothing more can be
        # written, so send the rest to devnull, where the final flush at
        # exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
