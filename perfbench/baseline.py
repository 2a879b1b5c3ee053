"""Record the benchmark's baseline in perfbench/baseline.json.

    python3 perfbench/baseline.py

For every workload: two sets of untraced runs on seeds 0 to 9 (reference
labels), the second set started after the first has run on every
workload.  Each set records the median and quartiles of each end-to-end
metric and their spread, (q3 - q1) / median; `median_drift` is how far the
second set's median lies from the first's, as a share of the first.  Then
one traced run on seed 0, and one untraced and one traced run with
`--relabel --seed 1`, so that later claims can be checked on a labelling
that was not used to make them.  Also records the machine.  Takes about
40 minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Untraced runs per set, on seeds 0 to SEEDS - 1, and sets per workload.
SEEDS = 10
SETS = 2


def bench(workload: str, seed: int, trace: int, relabel: bool = False) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd + ["--relabel"] * relabel, cwd=ROOT, capture_output=True,
                          text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    print(f"{workload} seed {seed} trace {trace} relabel {relabel}: ok", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "values": values}
    return out


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main() -> int:
    record = {"machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                          "python": platform.python_version()},
              "workloads": {}}
    sets = [{workload: summary([bench(workload, seed, 0) for seed in range(SEEDS)])
             for workload in WORKLOADS} for _ in range(SETS)]
    for workload in WORKLOADS:
        first, last = sets[0][workload], sets[-1][workload]
        record["workloads"][workload] = {
            **WORKLOADS[workload],
            "end_to_end": [s[workload] for s in sets],
            "median_drift": {name: last[name]["median"] / first[name]["median"] - 1
                             for name in first if first[name]["median"]},
            "per_layer_seed0": bench(workload, 0, 1),
            "relabel_seed1": {"end_to_end": bench(workload, 1, 0, relabel=True),
                              "per_layer": bench(workload, 1, 1, relabel=True)},
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
