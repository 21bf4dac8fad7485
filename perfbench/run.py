"""tropica benchmark: timed passes of real CLI invocations, checked results.

    python3 perfbench/run.py --workload line --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each case is a fresh
`python -m tropica.cli ... --json` process; cases run one at a time from
this process (closed loop, one client), so every case pays interpreter
start and import as a user does.  A run sets up, then starts passes over
the workload's seeded case list until --seconds have elapsed (at least
MIN_PASSES passes), and verifies every result after timing.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics.  --workload all runs
every workload.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a record of the run with
its provenance goes to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
TRACED_ENTRY = os.path.join(ROOT, "perfbench", "tracer.py")
CASE_TIMEOUT_S = 60
RUN_BUDGET_S = 150  # after this, cases left in the run are killed at once
SETUP_LAUNCHES = 11
IMPORTTIME_LAUNCHES = 5
MIN_PASSES = 2
# Printed in the table but left out of the result line: on a 2-vCPU VM its
# run-to-run spread reached the largest bound a metric may have.
TABLE_ONLY = ("case_p50_s",)


class BenchError(Exception):
    """The benchmark cannot produce a result, e.g. set-up fails."""


@dataclass
class CaseRun:
    id: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    timed_out: bool
    stdout_bytes: int
    failure: str = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"  # span counts repeat exactly between runs
    return env


def launch(cmd, cwd, out_path, err_path, deadline):
    """Run one process to completion; return (wall_s, exit code, rusage,
    timed_out).  The rusage is the child's own, from wait4.  The process
    is killed after CASE_TIMEOUT_S or at the perf_counter deadline."""
    timed_out = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)

        def on_alarm(signum, frame):
            timed_out.append(True)
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(0.01, min(
            CASE_TIMEOUT_S, deadline - time.perf_counter())))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage, bool(timed_out)


def run_pass(cases, workdir, tag, deadline, spans_dir=None):
    """Run every case once, in order; return ([CaseRun], wall_s).

    Stdout goes to <id>.<tag>.out in workdir and is read back only after
    timing.  This keeps the harness smaller than any case process, which
    matters because on Linux a child's ru_maxrss includes the peak RSS of
    the parent it was forked from.  With spans_dir the cases run under
    the tracer and each writes <id>.json there.
    """
    runs = []
    start = time.perf_counter()
    for case in cases:
        if spans_dir is None:
            cmd = [sys.executable, "-m", "tropica.cli", *case.argv]
        else:
            cmd = [sys.executable, TRACED_ENTRY,
                   os.path.join(spans_dir, case.id + ".json"), case.id, "--",
                   *case.argv]
        out_path = os.path.join(workdir, f"{case.id}.{tag}.out")
        wall, code, usage, timed_out = launch(
            cmd, workdir, out_path, os.path.join(workdir, case.id + ".err"),
            deadline)
        runs.append(CaseRun(case.id, wall, usage.ru_utime + usage.ru_stime,
                            usage.ru_maxrss, code, timed_out,
                            os.path.getsize(out_path)))
    return runs, time.perf_counter() - start


def read_outputs(workdir, cases, tag):
    outputs = {}
    for case in cases:
        with open(os.path.join(workdir, f"{case.id}.{tag}.out"), "rb") as f:
            outputs[case.id] = f.read()
    return outputs


def verify_pass(cases, runs, outputs, verifier):
    """Set CaseRun.failure for every case that failed; return the count."""
    results = {}
    for run in runs:
        if run.exit_code == 0:
            try:
                results[run.id] = json.loads(outputs[run.id])["result"]
            except (ValueError, KeyError, TypeError):
                pass
    failed = 0
    for case, run in zip(cases, runs):
        if run.timed_out:
            run.failure = "timed out"
        elif run.exit_code != 0:
            run.failure = f"exit code {run.exit_code}"
        else:
            run.failure = verifier.failure(case, results)
        failed += run.failure is not None
    return failed


def set_up(workdir, deadline):
    """Median wall time of fresh `tropica --help` launches, after one
    untimed launch that compiles bytecode."""
    cmd = [sys.executable, "-m", "tropica.cli", "--help"]
    out, err = os.path.join(workdir, "setup.out"), os.path.join(
        workdir, "setup.err")
    samples = []
    for i in range(SETUP_LAUNCHES + 1):
        wall, code, _, _ = launch(cmd, workdir, out, err, deadline)
        if code != 0:
            with open(err, encoding="utf-8", errors="replace") as handle:
                raise BenchError(f"`tropica --help` exited with {code}: "
                                 f"{handle.read()[-2000:]}")
        if i:
            samples.append(wall)
    return samples


def import_times(workdir, deadline):
    cmd = [sys.executable, "-X", "importtime", "-c", "import tropica.cli"]
    out, err = os.path.join(workdir, "import.out"), os.path.join(
        workdir, "import.err")
    texts = []
    for _ in range(IMPORTTIME_LAUNCHES):
        launch(cmd, workdir, out, err, deadline)
        with open(err, encoding="utf-8") as handle:
            texts.append(handle.read())
    return statistics.median(tracer.import_seconds(t) for t in texts)


def end_to_end(passes, setup_samples):
    """End-to-end metrics: {name: (value, unit, samples)}."""
    def med(values):
        return statistics.median(values)

    n = len(passes)
    return {
        "wall_s": (med([wall for _, wall in passes]), "s", n),
        "case_p50_s": (med([med([r.wall_s for r in runs])
                            for runs, _ in passes]), "s", n),
        "case_max_s": (med([max(r.wall_s for r in runs)
                            for runs, _ in passes]), "s", n),
        "cpu_s": (med([sum(r.cpu_s for r in runs) for runs, _ in passes]),
                  "s", n),
        "peak_rss_mb": (med([max(r.maxrss_kb for r in runs) / 1024
                             for runs, _ in passes]), "MB", n),
        "setup_s": (med(setup_samples), "s", len(setup_samples)),
    }


def git_revision():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(workload, seed, seconds, trace):
    """Set up and time one run; return its raw measurements.

    Nothing here parses results or imports tropica, so the harness stays
    small while cases run (see run_pass).
    """
    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = os.path.join(OUT_DIR, "work", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cases, files = workloads.generate(workload, seed)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as f:
            f.write(text)
    raw = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "workdir": workdir, "cases": cases,
           "files": files, "setup_s": set_up(workdir, deadline),
           "passes": [], "traced": None, "import_s": None}

    start = time.perf_counter()
    while True:
        raw["passes"].append(run_pass(
            cases, workdir, f"p{len(raw['passes'])}", deadline))
        if trace or (len(raw["passes"]) >= MIN_PASSES
                     and time.perf_counter() - start >= seconds):
            break
    if trace:
        spans_dir = os.path.join(workdir, "spans")
        os.makedirs(spans_dir)
        raw["traced"] = run_pass(cases, workdir, "traced", deadline,
                                 spans_dir)
        raw["import_s"] = import_times(workdir, deadline)
    raw["harness_peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return raw


def summarize(raw, verifier):
    """Verify a measured run; return (metrics, attempted, failed, record)
    and write the record to OUT_DIR."""
    cases, workdir = raw["cases"], raw["workdir"]
    checked = [(f"p{i}", p) for i, p in enumerate(raw["passes"])]
    if raw["traced"]:
        checked.append(("traced", raw["traced"]))
    failed = attempted = 0
    for tag, (runs, _) in checked:
        outputs = read_outputs(workdir, cases, tag)
        failed += verify_pass(cases, runs, outputs, verifier)
        attempted += len(runs)

    metrics = end_to_end(raw["passes"], raw["setup_s"])
    record = {
        "workload": raw["workload"], "seed": raw["seed"],
        "seconds": raw["seconds"], "trace": raw["trace"],
        "git_revision": git_revision(), "python": sys.version,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "harness_peak_rss_mb": raw["harness_peak_rss_mb"],
        "cases": [{"id": c.id, "argv": list(c.argv), "check": c.check}
                  for c in cases],
        "files": raw["files"], "setup_s": raw["setup_s"],
        "passes": [{"wall_s": wall, "cases": [asdict(r) for r in runs]}
                   for runs, wall in raw["passes"]],
        "fail_ratio": failed / attempted,
    }
    if raw["traced"]:
        runs, wall = raw["traced"]
        span_lists = []
        for case in cases:
            path = os.path.join(workdir, "spans", case.id + ".json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    span_lists.append(json.load(handle))
        overhead = wall / metrics["wall_s"][0]
        layers = tracer.layer_metrics(span_lists, sum(
            r.stdout_bytes for r in runs), raw["import_s"], overhead)
        record["traced_pass"] = {
            "wall_s": wall, "overhead_ratio": overhead,
            "cases": [asdict(r) for r in runs]}
        metrics = {name: (value, unit, 1)
                   for name, (value, unit) in layers.items()}
    record["metrics"] = {name: {"value": v, "unit": u, "samples": n}
                         for name, (v, u, n) in metrics.items()}
    path = os.path.join(OUT_DIR, f"{raw['workload']}-seed{raw['seed']}"
                                 f"-trace{raw['trace']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return metrics, attempted, failed, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    chosen = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    if not os.path.isfile(os.path.join(ROOT, "src", "tropica", "cli.py")):
        print("benchmark failed: no src/tropica/cli.py next to perfbench/",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))  # for route-2 checks

    try:  # time every workload before any result is parsed
        raws = [measure(workload, args.seed, args.seconds, args.trace)
                for workload in chosen]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    verifier = workloads.Verifier(workloads.load_reference())
    metrics, attempted, failed = {}, 0, 0
    for workload, raw in zip(chosen, raws):
        found, tried, bad, record = summarize(raw, verifier)
        attempted += tried
        failed += bad
        print(f"# {workload}: seed {args.seed}, {tried} cases, {bad} failed,"
              f" fail_ratio {bad / tried:.4f}")
        for name, (value, unit, samples) in found.items():
            note = "  (table only)" if name in TABLE_ONLY else ""
            print(f"{workload:9} {name:45} {value:14.6g} {unit:6} "
                  f"n={samples}{note}")
            if name not in TABLE_ONLY:
                key = name if len(chosen) == 1 else f"{workload}.{name}"
                metrics[key] = {"value": value, "unit": unit}
        checked = record["passes"] + [record.get("traced_pass", {})]
        for run in (c for p in checked for c in p.get("cases", ())):
            if run["failure"]:
                print(f"FAILED {run['id']}: {run['failure']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
