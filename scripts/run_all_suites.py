#!/usr/bin/env python3
"""Run every verification suite at its default (acceptance) scale and print
a one-line summary per suite.

    python scripts/run_all_suites.py [--seed S]

Exits nonzero if any suite fails.
"""

import argparse
import inspect
import time

from quotloc.suites import CLI_SUITES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    failed = 0
    for name, suite in CLI_SUITES.items():
        start = time.monotonic()
        takes_seed = "seed" in inspect.signature(suite).parameters
        kwargs = {"seed": args.seed} if takes_seed else {}
        report = suite(**kwargs)
        elapsed = time.monotonic() - start
        status = "pass" if report.passed else "FAIL"
        print(f"{name:<16s} {status}  checks={report.checks:<6d} {elapsed:6.2f}s")
        for line in report.failures[:5]:
            print(f"    {line}")
        failed += not report.passed
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
