"""The quotloc benchmark: one workload, run in fresh processes, every result
checked exactly.

    python3 bench/run.py --workload frontier --seed 1 --seconds 28 --trace 0

Run it from the root of a checkout; ``quotloc`` is imported from ``src``
there.  The workload is repeated, one fresh interpreter per repetition,
as often as fits in ``--seconds`` (at least three times).  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` every repetition (at least one) is run once untraced and
once traced, the JSON carries the per-layer metrics and the spans of the
last traced repetition go to ``.bench_out/``.  Timings are medians over repetitions.
Workloads and their reasons: ``bench/workloads.py`` and ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
END_TO_END = (
    ("wall_s", "s"),
    ("weights_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_PROBES = 5
# untraced repetitions per run at the least, without and with --trace
MIN_REPETITIONS = {0: 3, 1: 1}
# stop repeating once this much time is gone, so one run ends within 180 s
TIME_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def spawn(root: str, args: list) -> tuple:
    """Run one worker process; returns ``(setup_s, result)``.

    ``setup_s`` runs from just before the process is started until it
    reports ``quotloc`` imported.
    """
    cmd = [sys.executable, WORKER, "--root", root] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return setup_s, json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quotloc", "__init__.py")):
        print(f"no quotloc sources under {root}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    common = ["--workload", workload.name, "--seed", str(args.seed)]

    try:
        # the first probe also compiles the byte code, so its set-up time is not kept
        _, probe = spawn(root, common + ["--probe"])
        setups = [spawn(root, common + ["--probe"])[0] for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        spans_path = None
        if args.trace:
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"{workload.name}-seed{args.seed}.spans.json")
        start = time.perf_counter()
        while True:
            cycle = time.perf_counter()
            setup_s, result = spawn(root, common)
            setups.append(setup_s)
            plain.append(result)
            if args.trace:
                setup_s, result = spawn(root, common + ["--trace", spans_path])
                setups.append(setup_s)
                traced.append(result)
            now = time.perf_counter()
            # stop before a further repetition would overrun --seconds
            next_end = now - start + (now - cycle)
            if len(plain) >= MIN_REPETITIONS[args.trace] and (
                next_end > args.seconds or next_end > TIME_LIMIT_S
            ):
                break
    except (WorkerFailed, json.JSONDecodeError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for problem in r["problems"]:
            print(f"# FAILED {problem}")
    env = probe["env"]
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# repetitions={len(plain)} traced={len(traced)} checks/rep={workload.checks} "
          f"weights/rep={probe['weights']} attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6g}")

    walls = [r["wall_s"] for r in plain]
    samples = {
        "wall_s": walls,
        "weights_per_s": [probe["weights"] / w for w in walls],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": setups,
    }
    if args.trace:
        samples = {name: [r["layers"][name] for r in traced] for name, _ in PER_LAYER
                   if name != "trace.overhead_s"}
        samples["trace.overhead_s"] = [
            statistics.median(r["layers"]["trace.wall_s"] for r in traced) - statistics.median(walls)
        ]
        units = PER_LAYER
        missing = sorted({label for r in traced for label in r["missing_targets"]})
        if missing:
            print("# targets not found: " + " ".join(missing))
        print_layer_split(traced[-1]["layers"])
    else:
        units = END_TO_END
    metrics = {}
    for name, unit in units:
        q1, median, q3 = quartiles(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name:<32s} {median:>14.6g} {unit:<6s} q1={q1:.6g} q3={q3:.6g} n={len(samples[name])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_layer_split(layer_metrics: dict) -> None:
    """Self time per layer as a share of the traced wall time."""
    wall = layer_metrics["trace.wall_s"]
    shares = sorted(
        ((name[: -len(".self_s")], value) for name, value in layer_metrics.items()
         if name.count(".") == 1 and name.endswith(".self_s")),
        key=lambda kv: -kv[1],
    )
    split = " ".join(f"{layer}={value / wall:.1%}" for layer, value in shares)
    print(f"# layer split of {wall:.3f} s traced wall: {split}")


if __name__ == "__main__":
    raise SystemExit(main())
