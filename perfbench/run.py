#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark and the MACS library from the sources next to it into
.bench_build/perfbench (Release); later runs rebuild only what changed.
The build log goes to stderr; stdout carries the benchmark's report,
whose last line is one JSON object. The exit status is the benchmark's:
0 when every output was right, 3 when any was wrong, and 2 when it
could not build or run.

BENCHMARK.json at the repository root is the one table of metric
names and units. The binary's last line carries the metrics the
workload measured; this script checks them against the table (an
unknown metric, a wrong unit or a missing end-to-end metric is an
error of the benchmark itself), orders them as the table does, and
reports a per-layer metric the workload never measures as 0.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_cold", "serve_mix", "mp_coupled")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary."""
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "macs_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    return os.path.join(out, "macs_perfbench")


def metric_table(trace):
    """The metrics of one mode, as (name, unit) in BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def canonical(result, trace):
    """@p result with its metrics checked and ordered by the table."""
    table = metric_table(trace)
    units = dict(table)
    got = result["metrics"]
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            raise ValueError("metric %s [%s] is not in BENCHMARK.json"
                             % (name, m["unit"]))
    metrics = {}
    for name, unit in table:
        if name not in got and not trace:
            raise ValueError("end-to-end metric %s was not measured" % name)
        metrics[name] = got.get(name, {"value": 0.0, "unit": unit})
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no MACS sources next to perfbench/ "
              "(src/CMakeLists.txt is missing)", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out-dir", out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        return run.returncode if run.returncode != 0 else 2
    print("\n".join(lines[:-1]))
    try:
        result = canonical(json.loads(lines[-1]), args.trace == 1)
    except (ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
