#!/usr/bin/env python3
"""Print partition-function coefficients for a grid of ranks.

Evaluates the localized sum and the closed form side by side at one seeded
point per rank (the next point of the seed's stream when a weight has a pole
there), so the table doubles as a quick end-to-end sanity check: the exit
code is 1 when any row is a ``MISMATCH``, 2 on a negative ``--order`` or one
over the size budget of ``quotloc verify`` at the grid's largest total rank,
else 0.

    python scripts/series_table.py [--order N] [--seed S]
"""

import argparse

from quotloc.cli import MAX_FIXED_POINTS
from quotloc.points import rational_stream, retry_points
from quotloc.rational import rat_str
from quotloc.series import eval_forms, localized_forms, z_closed
from quotloc.vertex import Ranks, fixed_point_count


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.order < 0:
        parser.error("order must be nonnegative")

    grid = [Ranks(1, 0), Ranks(0, 1), Ranks(1, 1), Ranks(2, 1), Ranks(2, 2)]
    r = max(ranks.total for ranks in grid)
    if fixed_point_count(args.order, r, MAX_FIXED_POINTS) > MAX_FIXED_POINTS:
        parser.error(f"order {args.order} at total rank {r} exceeds the size budget of {MAX_FIXED_POINTS} fixed points")
    mismatches = 0
    for ranks in grid:
        forms = localized_forms(ranks, args.order)
        point, (localized, closed) = retry_points(
            ranks.variables(),
            rational_stream(args.seed),
            lambda p: (eval_forms(forms, p), z_closed(ranks, p, args.order)),
        )
        tag = "ok" if localized == closed else "MISMATCH"
        mismatches += localized != closed
        print(f"ranks ({ranks.r1},{ranks.r2})  [{tag}]")
        for n, c in enumerate(localized.coefficients):
            print(f"  q^{n}: {rat_str(c)}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
