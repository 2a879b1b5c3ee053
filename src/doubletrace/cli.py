"""Command line front end.

Subcommands: enumerate (canonical traces of one graph and configuration),
verify (branch-and-bound against the brute-force oracle), orbits
(subgroup orbit structure of the brute-force trace set) and tables
(reference counts for the built-in graph families).

Every kind and orientation named on the command line is checked by
`EnumerationConfig`, whose refusal is a configuration error.

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
from typing import Iterable

from .automorphism import automorphisms
from .enumerator import count_traces, enumerate_traces, no_trace_reason
from .graph import (
    Graph,
    SizeGuardError,
    named_graph,
    normalize_base_edge,
    parse_edge_list,
    parse_graph6,
)
from .oracle import brute_enumerate, orbit_partition, verify_against_oracle
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
            # utf-8-sig also drops a leading byte-order mark.
            with open(args.edges, "r", encoding="utf-8-sig") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
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
    any work is done; failing to open it is a usage error.  It is opened
    for appending, and only `_write_file` replaces its contents, so a
    command that fails before writing leaves an existing file as it was
    and removes the empty one it created.
    """
    if path is None:
        yield None
        return
    created = not os.path.exists(path)
    try:
        handle = open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None
    try:
        with handle:
            yield handle
    except BaseException:
        with contextlib.suppress(OSError):
            if created and os.path.getsize(path) == 0:
                os.remove(path)
        raise


def _write_file(handle, chunks: Iterable[str]) -> None:
    """Replace the contents of an open output file with the text of
    `chunks`, written one at a time, and a newline; failing to is a
    usage error."""
    try:
        # A pipe or a terminal has no contents to replace.
        if handle.seekable():
            handle.truncate(0)
        handle.writelines(chunks)
        handle.write("\n")
        handle.flush()
    except OSError as exc:
        raise UsageError(f"cannot write {handle.name}: {exc}") from None


def _config(kind: str, d: int | None, orientation: str) -> EnumerationConfig:
    """The configuration for a kind as the CLI names it, where "double"
    is "any"; one that `EnumerationConfig` refuses is a usage error."""
    try:
        return EnumerationConfig(
            kind="any" if kind == "double" else kind, d=d, orientation=orientation
        )
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


def cmd_enumerate(args: argparse.Namespace) -> int:
    _check_jobs(args)
    loaded = _load_graph(args)
    config = _config(args.kind, args.d, args.orientation)
    with _output_file(args.out) as out:
        graph = loaded.graph
        started = time.perf_counter()
        # A configuration with a reason for having no trace is not searched.
        note = no_trace_reason(graph, config)
        traces: list = []
        if note is not None:
            count = 0
        elif args.count_only:
            count = count_traces(graph, config, jobs=args.jobs)
        else:
            traces = enumerate_traces(graph, config, jobs=args.jobs)
            count = len(traces)
        seconds = time.perf_counter() - started
        if args.format == "json":
            payload = {
                "graph": loaded.label,
                "n": graph.n,
                "m": graph.m,
                "config": config.describe(),
                "count": count,
                "seconds": round(seconds, 3),
                "note": note,
                "relabeling": loaded.relabeling,
                "traces": None if args.count_only else traces,
            }
            header = []
            # Encoded chunk by chunk as it is written, never held whole.
            chunks = json.JSONEncoder(indent=2).iterencode(
                {k: v for k, v in payload.items() if v is not None}
            )
        else:
            header = [f"# graph: {loaded.label} (n={graph.n}, m={graph.m})"]
            if loaded.relabeling is not None:
                header.append("# relabeling applied: " + " ".join(map(str, loaded.relabeling)))
            header += [
                f"# config: {config.describe()}",
                f"# count: {count}",
                f"# seconds: {seconds:.3f}",
            ]
            if note is not None:
                header.append(f"# note: {note}")
            # Each trace is replaced by its line in place, so its tuple is
            # freed as soon as the line exists.
            lines = traces
            for i, trace in enumerate(lines):
                lines[i] = format_trace(trace)
            chunks = ("\n".join(header + lines),)
        # With --out, stdout gets the header lines only.
        if out:
            _write_file(out, chunks)
            chunks = ("\n".join(header + [f"# wrote {args.out}"]),)
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")
        return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    loaded = _load_graph(args)
    kinds = [t.strip().partition(":") for t in args.kinds.split(",") if t.strip()]
    orientations = [o.strip() for o in args.orientations.split(",") if o.strip()]
    if not kinds:
        raise UsageError("no kinds requested")
    if not orientations:
        raise UsageError("no orientations requested")
    configs = []
    for kind, _, order in kinds:
        if order and not order.isdecimal():
            raise UsageError(f"order {order!r} of kind {kind!r} must be a positive integer")
        d = int(order) if order else None
        configs += [_config(kind, d, orientation) for orientation in orientations]
    print(f"# graph: {loaded.label} (n={loaded.graph.n}, m={loaded.graph.m})")
    all_equal = True
    for config in configs:
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
    config = _config(args.kind, args.d, args.orientation)
    graph = loaded.graph
    with _output_file(args.dot) as dot:
        traces = brute_enumerate(graph, config, scope="all_starts")
        aut = automorphisms(graph)
        report = orbit_partition(traces, aut, args.subgroup)
        if dot:
            _write_file(dot, (report.to_dot(),))
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
        strong, oriented = (
            count_traces(graph, EnumerationConfig(kind="strong", orientation=o),
                         jobs=args.jobs, aut=aut)
            for o in ("any", orientation)
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
    p_orbits.add_argument(
        "--dot", metavar="FILE", help="write DOT: each trace joined to its orbit's smallest"
    )
    p_orbits.add_argument("--format", choices=("text", "json"), default="text")
    p_orbits.set_defaults(func=cmd_orbits)

    p_tables = sub.add_parser("tables", help="recompute the reference count tables")
    p_tables.add_argument(
        "--include-slow",
        action="store_true",
        help="include the long rows (dodecahedron, prism:8 and up): about 30 CPU minutes, "
        "16 minutes with --jobs 2 on 2 cores",
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
