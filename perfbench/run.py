"""Run one doubletrace benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--relabel]

Run from the root of a checkout; the package is imported from `src/`.
The last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
`attempted` and `failed` count rows (one enumeration call each); a row
fails when it raises, the CLI exits non-zero or its output is wrong.  The
exit code is 0 only when every row was correct.

Every pass of the workload runs in a fresh process (`workloads.py`).

* `--trace 0` measures the end-to-end metrics of BENCHMARK.json: it runs
  whole passes until the next one would end after `--seconds` (at least
  one) and reports medians over them.  `setup_s` is the median over the
  passes and over set-up-only processes started for that purpose.
* `--trace 1` runs one untraced and one traced pass and reports the
  per-layer metrics.  Stage numbers come from the traced pass; row times,
  worker CPU and CPU use from the untraced one, since they need no
  tracing.  `bench.trace_overhead` compares the two.

`--relabel` makes the seed relabel every graph as well (see workloads.py).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up-only processes per untraced run, on top of one set-up per pass.
SETUP_PROBES = 30
# The workloads are sized for a 2-core machine and use at most 2 workers.
CORES = 2
# Everything, the passes included, ends this long after the start.
RUN_LIMIT_S = 170


def run_pass(args, deadline: float, *, trace: bool = False, setup_only: bool = False):
    """One workload pass in a fresh process: its JSON report, or None if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--relabel"] * args.relabel + ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    # A session of its own lets a timeout stop the pass and its pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as exc:  # a timeout, or this run being stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        print(f"pass timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass exited with {proc.returncode}: {' '.join(cmd)}", file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def pass_totals(report: dict) -> dict[str, float]:
    rows = report["rows"]
    wall = sum(r["seconds"] for r in rows)
    workers = sum(r["worker_cpu_s"] for r in rows)
    cpu = sum(r["cpu_s"] for r in rows) + workers
    traces = sum(r["traces"] for r in rows)
    return {"wall_s": wall, "traces_per_s": traces / wall, "cpu_s": cpu,
            "worker_cpu_s": workers, "peak_rss_mb": report["peak_rss_mb"]}


def end_to_end(args, deadline: float, tally: list[int]) -> dict[str, float]:
    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_pass(args, deadline, setup_only=True)
        if probe is None:
            tally[0] += 1
            tally[1] += 1
            continue
        setups.append(probe["setup_s"])
    passes = []
    spent = 0.0
    while True:
        started = time.monotonic()
        report = run_pass(args, deadline)
        took = time.monotonic() - started
        spent += took
        if report is None:
            tally[0] += 1
            tally[1] += 1
            break
        count_rows(report, tally)
        setups.append(report["setup_s"])
        passes.append(pass_totals(report))
        if spent + took > args.seconds or time.monotonic() + took > deadline:
            break
    if not passes:
        return {}
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in ("wall_s", "traces_per_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return metrics


def per_layer(args, deadline: float, tally: list[int]) -> dict[str, float]:
    plain = run_pass(args, deadline)
    traced = run_pass(args, deadline, trace=True) if plain is not None else None
    for report in (plain, traced):
        if report is None:
            tally[0] += 1
            tally[1] += 1
        else:
            count_rows(report, tally)
    if plain is None or traced is None:
        return {}
    base = pass_totals(plain)
    metrics = dict(traced["layers"])
    metrics["parallel.worker_cpu_s"] = base["worker_cpu_s"]
    metrics["parallel.cpu_util"] = base["cpu_s"] / (CORES * base["wall_s"])
    metrics["bench.trace_overhead"] = pass_totals(traced)["wall_s"] / base["wall_s"] - 1
    for row in plain["rows"]:
        metrics[f"row.{row['name']}.s"] = row["seconds"]
        metrics[f"row.{row['name']}.traces"] = row["traces"]
    return metrics


def count_rows(report: dict, tally: list[int]) -> None:
    for row in report["rows"]:
        tally[0] += 1
        if row["error"] is not None:
            tally[1] += 1
            print(f"row {row['name']} failed: {row['error']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--relabel", action="store_true",
                        help="relabel every graph by a permutation drawn from the seed")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # Turn SIGTERM into an exception, so that the running pass is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    package = os.path.join(ROOT, "src", "doubletrace")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no doubletrace package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    # Byte-compile first, so that no pass pays for it in its set-up time.
    if not compileall.compile_dir(package, quiet=1):
        print("error: the package does not compile", file=sys.stderr)
        return 2

    tally = [0, 0]  # rows attempted, rows failed
    measure = per_layer if args.trace else end_to_end
    measured = measure(args, deadline, tally)
    metrics = {}
    for metric in declared if measured else ():
        name = metric["name"]
        if name in measured:
            value = measured[name]
        elif name.startswith("row."):
            value = 0  # a row of another workload
        else:
            raise RuntimeError(f"metric {name} was not measured")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    unknown = set(measured) - set(metrics)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    attempted, failed = max(tally[0], 1), tally[1]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
