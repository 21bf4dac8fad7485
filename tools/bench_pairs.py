"""Interleaved benchmark pairs of a parent checkout and this one.

    python3 tools/bench_pairs.py PARENT_DIR --out BENCH_<n>.json

Ten pairs per workload of `perfbench/run.py --workload W --trace 0` at
perfbench's own seed and run length, the parent first in even pairs.
Writes each end-to-end metric's runs, median and quartiles per side, the
pairs the change won, both git commits (dirty or not), Python and nproc.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def run(tree, *argv):
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # perfbench: 1 if some case failed
        sys.exit(f"{argv[:2]} failed in {tree}: {done.stderr[-2000:]}")
    return done.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    report = {"revisions": {side: {
        "commit": run(tree, "git", "rev-parse", "HEAD"),
        "dirty": bool(run(tree, "git", "status", "--porcelain"))}
        for side, tree in trees.items()},
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "pairs": PAIRS, "workloads": {}}
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            for side in sorted(runs, reverse=i % 2 == 0):  # parent, even i
                runs[side].append(json.loads(run(
                    trees[side], sys.executable, "perfbench/run.py",
                    "--workload", workload, "--trace", "0").splitlines()[-1]))
        rows = report["workloads"][workload] = {"failed": {
            side: sum(r["failed"] for r in rs) for side, rs in runs.items()}}
        for name, first in runs["parent"][0]["metrics"].items():
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in runs.items()}
            rows[name] = {"unit": first["unit"], "change_lower": sum(
                c < p for p, c in zip(values["parent"], values["change"]))}
            for side, v in values.items():
                q1, median, q3 = statistics.quantiles(v, n=4,
                                                      method="inclusive")
                rows[name][side] = {"median": median, "q1": q1, "q3": q3,
                                    "runs": v}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
