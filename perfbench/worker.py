"""One workload in one single-threaded process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode setup|timed|trace --out DIR

run.py starts this from the root of a sodw checkout and reads the JSON
object on its last line of output.  Every mode imports sodw from ./src,
builds the workload's inputs and runs one untimed warm-up operation, then
reports `setup_end`, the time.monotonic() reading at that moment.

* setup: stop there.
* timed: run whole passes until their summed wall time is S seconds, to
  within half a pass, and at least MIN_PASSES have run; check that every
  pass wrote the same bytes, record peak memory, then check the outputs of
  the last pass against the references.  ops_per_s is the operations of all
  passes over their summed wall time.
* trace: run one pass with tracing.Tracer installed, check it, and report
  the per-layer metrics; --trace-file receives the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

#: a timed run makes at least this many passes
MIN_PASSES = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-file")
    return p.parse_args(argv)


def _check(workload, results):
    """workload.check, with an error raised while checking reported as a failed check."""
    try:
        return workload.check(results)
    except Exception as exc:  # a broken output must fail the check, not end the run
        return 0, [f"checking raised {type(exc).__name__}: {exc}"]


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import sodw.cli

    if os.path.dirname(os.path.abspath(sodw.__file__)) != os.path.join(src, "sodw"):
        print(f"error: imported sodw from {sodw.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    shutil.rmtree(args.out, ignore_errors=True)
    os.makedirs(args.out)
    workload = workloads.WORKLOADS[args.workload](args.out, args.seed)
    rc, _ = workload.warmup()
    setup_end = time.monotonic()
    report = {"setup_end": setup_end, "problems": [] if rc == 0 else [f"warm-up exited {rc}"]}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    if args.mode == "timed":
        pass_s, digests = [], set()
        # stop at the pass boundary nearest to S seconds
        while len(pass_s) < MIN_PASSES or sum(pass_s) + pass_s[-1] / 2 < args.seconds:
            start = time.perf_counter()
            results = workload.run_pass()
            pass_s.append(time.perf_counter() - start)
            digests.add(workload.digest(results))
        passes = len(pass_s)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed, problems = _check(workload, results)
        if len(digests) != 1:
            problems.append(f"{len(digests)} different outputs from {passes} passes of one input")
        report.update(
            pass_s=pass_s,
            attempted=passes * workload.ops_per_pass,
            failed=passes * failed,
            ops_per_s=passes * workload.ops_per_pass / sum(pass_s),
            peak_rss_mb=peak_kib / 1024.0,
        )
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            results = workload.run_pass()
        finally:
            tracer.uninstall()
        failed, problems = _check(workload, results)
        paths = [p for p in workload.written(results) if os.path.isfile(p)]
        overhead = tracing.span_cost() * len(tracer.spans)
        values = tracer.metrics(len(paths), sum(os.path.getsize(p) for p in paths), overhead)
        metrics = {k: {"value": v, "unit": tracing.METRIC_UNITS[k]} for k, v in values.items()}
        if args.trace_file:
            tracer.dump(args.trace_file)
        report.update(attempted=workload.ops_per_pass, failed=failed, metrics=metrics)
    report["problems"] += problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
