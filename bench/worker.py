"""One benchmark process: import ``quotloc`` from the checkout's ``src``,
then run one workload, or with ``--probe`` only report what set-up knows.

    python3 bench/worker.py --root ROOT --workload NAME --seed N [--trace SPANS] [--probe]

Prints ``ready`` as soon as ``quotloc`` is imported, then one JSON line.
``bench/run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import layers
from tracer import Tracer
from workloads import WORKLOADS, resolve, weight_count


def environment() -> dict:
    """The facts a result depends on besides the code: results with another
    scalar type must not be compared."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "scalar": importlib.import_module("quotloc.rational").rational.__name__,
        "ORIGAMI_THREADS": os.environ.get("ORIGAMI_THREADS"),
    }


def score(call, report, error) -> tuple:
    """``(attempted, failed)`` for one suite call.

    A raised suite fails all its expected checks; a check count other than
    the expected one, a vacuous pass included, fails the difference.
    """
    if error is not None:
        return call.checks, call.checks
    attempted = max(report.checks, call.checks)
    failed = len(report.failures) + abs(report.checks - call.checks)
    return attempted, min(failed, attempted)


def run_workload(workload, suites, seed: int, tracer=None) -> dict:
    if tracer is not None:
        layers.install(tracer)
    calls = [resolve(c, suites, seed) for c in workload.calls]
    outcomes = []
    start = time.perf_counter()
    for fn, kwargs in calls:
        try:
            outcomes.append((fn(**kwargs), None))
        except Exception:  # a suite that raises is a failed outcome, not a crash
            outcomes.append((None, traceback.format_exc(limit=3)))
    wall_s = time.perf_counter() - start
    attempted = failed = 0
    problems = []
    for c, (report, error) in zip(workload.calls, outcomes):
        a, f = score(c, report, error)
        attempted += a
        failed += f
        if f:
            detail = error or (report.failures[:2], f"{report.checks} checks, expected {c.checks}")
            problems.append(f"{c.suite}: {detail}")
    result = {
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = layers.summarize(tracer, wall_s)
        result["missing_targets"] = tracer.missing
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS", help="trace and write the spans here")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.abspath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import quotloc
    import quotloc.suites

    print("ready", flush=True)
    if not os.path.abspath(quotloc.__file__).startswith(src + os.sep):
        print(f"quotloc was imported from {quotloc.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.probe:
        weights = sum(weight_count(c, quotloc.suites, args.seed) for c in workload.calls)
        print(json.dumps({"env": environment(), "weights": weights}))
        return 0
    tracer = Tracer() if args.trace else None
    result = run_workload(workload, quotloc.suites, args.seed, tracer)
    if tracer is not None:
        with open(args.trace, "w") as fh:
            json.dump({"fields": ["label", "start", "end", "parent", "root"], "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
