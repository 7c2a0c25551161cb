"""Benchmark of sodw end to end through its command line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a sodw checkout; it imports sodw from ./src and
needs nothing beyond numpy and scipy.  Workloads: scan_exact, figures and
verify, which BENCHMARK.json lists, and scan_oracle, which runs only when
asked for (see perfbench/README.md).  Each runs in its own single-threaded
worker process (worker.py), which calls sodw.cli.main in-process.

--trace 0 measures set-up several times, each in a fresh worker, and lets
the second worker run whole passes for S seconds.  It reports setup_s (the
median set-up time), ops_per_s and peak_rss_mb.  --trace 1 runs one traced
pass and reports the per-layer metrics.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Scratch output goes
to ./.perfbench/.  The exit code is 0 when the workload ran to its end, even
if a check failed ("correct": false); it is 2, with no result printed, when
the run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("scan_exact", "scan_oracle", "figures", "verify")
#: set-up is measured this many times per run, each in a fresh process
SETUP_SAMPLES = 3
#: a run must end within this many seconds
DEADLINE_S = 170.0

_HERE = os.path.dirname(os.path.abspath(__file__))
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def _worker(args, mode, out, deadline, trace_file=None):
    """Run worker.py to its end; return (spawn time, its JSON report)."""
    cmd = [
        sys.executable,
        os.path.join(_HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--out", out,
    ]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: "1" for name in _THREAD_VARS})
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left before the deadline")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} worker passed the {DEADLINE_S:g} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} worker exited {proc.returncode}")
    return spawned, json.loads(lines[-1])


def _measure(args, scratch, deadline):
    out = os.path.join(scratch, "out")
    if args.trace:
        trace_file = os.path.join(scratch, "traces", f"{args.workload}-seed{args.seed}.json.gz")
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        _, report = _worker(args, "trace", os.path.join(out, args.workload), deadline, trace_file)
        return report, report["metrics"]
    # the second worker is the timed one; the set-up-only workers run before
    # and after it, so that the set-up samples lie apart in time
    setups, problems, report = [], [], None
    for k in range(SETUP_SAMPLES):
        if k == 1:
            spawned, report = _worker(args, "timed", os.path.join(out, args.workload), deadline)
            sample = report
        else:
            setup_out = os.path.join(out, f"{args.workload}-setup{k}")
            spawned, sample = _worker(args, "setup", setup_out, deadline)
        setups.append(sample["setup_end"] - spawned)
        problems += sample["problems"]
    report["problems"] = problems
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": report["ops_per_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }
    return report, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description="sodw end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sodw", "cli.py")):
        print(f"error: {root} holds no sodw source tree (src/sodw)", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench")
    try:
        report, metrics = _measure(args, scratch, deadline)
    except RunError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    problems = report["problems"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(scratch, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(scratch, "results", name), "w") as fh:
        json.dump(dict(result, pass_s=report.get("pass_s")), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
