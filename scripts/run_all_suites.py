#!/usr/bin/env python3
"""Run every verification suite at its default (acceptance) scale and print
a one-line summary per suite.

    python scripts/run_all_suites.py [--seed S]

Exits nonzero if any suite fails or makes no checks.
"""

import argparse
import time

from quotloc.cli import suite_kwargs
from quotloc.suites import CLI_SUITES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    failed = 0
    for name, record in CLI_SUITES.items():
        start = time.monotonic()
        report = record.run(**suite_kwargs(record.run, seed=args.seed))
        elapsed = time.monotonic() - start
        passed = report.passed and report.checks > 0  # a report of zero checks verified nothing
        print(f"{name:<16s} {'pass' if passed else 'FAIL'}  checks={report.checks:<6d} {elapsed:6.2f}s")
        for line in report.failures[:5]:
            print(f"    {line}")
        failed += not passed
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
