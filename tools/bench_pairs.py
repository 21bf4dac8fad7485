"""Interleaved benchmark pairs of a parent checkout and this one.

    python3 tools/bench_pairs.py PARENT_DIR --out BENCH_<n>.json

Ten pairs per workload of `perfbench/run.py --workload W --trace 0` at
perfbench's own seed and run length, the parent first in even pairs.
Writes each end-to-end metric's runs, median and quartiles per side, the
pairs the change won, the median and quartiles of the per-pair
change/parent ratio (which cancels a slow spell that hits both runs of a
pair), both git commits (dirty or not), Python and nproc.

A machine calibration is taken before each workload's pairs and once
after the last: the median wall time of 11 bare `python -c pass`
launches, and the median of 5 fresh-process runs of one fixed pure-Python
loop, timed inside the process.  Each workload records the calibration
taken before its pairs and the one taken after them (the next workload's
"before"), so a metric divided by either compares across BENCH files
written on a machine that ran faster or slower, also when the machine's
speed drifts during the run.

A tree that holds a `__pycache__` under `src/` skips compiling the
package in every case, so the script refuses to start while either tree
holds one, and runs its cases with PYTHONDONTWRITEBYTECODE=1 so that
none is written during the run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
LAUNCHES, LOOPS = 11, 5
LOOP = ("import time\nt = time.perf_counter()\nn = 0\n"
        "for i in range(2_000_000):\n    n += i * i % 7\n"
        "print(time.perf_counter() - t)")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def run(tree, *argv):
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if done.returncode not in (0, 1):  # perfbench: 1 if some case failed
        sys.exit(f"{argv[:2]} failed in {tree}: {done.stderr[-2000:]}")
    return done.stdout.strip()


def calibration():
    launches = []
    for _ in range(LAUNCHES):
        start = time.perf_counter()
        run(ROOT, sys.executable, "-c", "pass")
        launches.append(time.perf_counter() - start)
    loops = [float(run(ROOT, sys.executable, "-c", LOOP))
             for _ in range(LOOPS)]
    return {"launch_s": statistics.median(launches),
            "loop_s": statistics.median(loops)}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    for side, tree in trees.items():
        for path, dirs, _ in os.walk(os.path.join(tree, "src")):
            if "__pycache__" in dirs:
                sys.exit(f"the {side} tree {tree} holds a bytecode cache, "
                         f"{os.path.join(path, '__pycache__')}; remove it")
    report = {"revisions": {side: {
        "commit": run(tree, "git", "rev-parse", "HEAD"),
        "dirty": bool(run(tree, "git", "status", "--porcelain"))}
        for side, tree in trees.items()},
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "pairs": PAIRS, "workloads": {}}
    before = calibration()
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            for side in sorted(runs, reverse=i % 2 == 0):  # parent, even i
                runs[side].append(json.loads(run(
                    trees[side], sys.executable, "perfbench/run.py",
                    "--workload", workload, "--trace", "0").splitlines()[-1]))
        rows = report["workloads"][workload] = {
            "calibration": {"before": before}, "failed": {
                side: sum(r["failed"] for r in rs)
                for side, rs in runs.items()}}
        for name, first in runs["parent"][0]["metrics"].items():
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in runs.items()}
            pairs = list(zip(values["parent"], values["change"]))
            rows[name] = {"unit": first["unit"], "change_lower": sum(
                c < p for p, c in pairs)}
            for side, v in values.items():
                rows[name][side] = dict(quartiles(v), runs=v)
            if all(p for p, _ in pairs):
                rows[name]["ratio"] = quartiles([c / p for p, c in pairs])
        before = rows["calibration"]["after"] = calibration()
        write(args.out, report)


def write(path, report):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
