"""Batch driver: compute series coefficients and run verification suites.

Two subcommands::

    quotloc compute --r1 R1 --r2 R2 --order N --seed S [--num-points K] [--out PATH]
    quotloc verify SUITE [--r1 R1 --r2 R2] [--order N --seed S --num-points K --out PATH]

``verify`` passes each flag given to every keyword of its ``FLAG_KEYWORDS``
row that the suite's signature names (``--order`` is ``order``, ``max_len``
or ``det_len``, for example); a flag left out leaves the suite's default,
and ``--num-points`` is a usage error for a suite that names none of its
keywords.

Reports are structured key/value text with a stable field order and exact
rationals serialized as ``numerator/denominator``; a report is
byte-identical across runs with the same configuration (wall time goes to
stderr).  Exit codes: 0 pass, 1 suite failure, 2 usage error (including a
run over the size budget ``MAX_FIXED_POINTS`` and a configuration under
which the suite makes no checks), 3 evaluation exhausted
its point budget, 4 the report could not be written.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
import time

from .chars import var_name
from .points import PointExhausted, rational_stream, retry_points
from .rational import rat_str
from .series import eval_forms, localized_forms, z_closed
from .suites import CLI_SUITES, SuiteReport
from .vertex import Ranks

EXIT_PASS = 0
EXIT_SUITE_FAILURE = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_IO = 4

MAX_FIXED_POINTS = 10**5  # fixed points up to order n at total rank r (fixed_point_count)


class NoChecks(ValueError):
    """The configuration leaves the suite nothing to check."""


def _ranks(args) -> Ranks | None:
    if args.r1 is None and args.r2 is None:
        return None
    return Ranks(args.r1 or 0, args.r2 or 0)


def _render(node, indent: int = 0, lines=None) -> list:
    """Render nested (key, value) pair lists as indented ``key: value`` text."""
    if lines is None:
        lines = []
    pad = "  " * indent
    for key, value in node:
        if isinstance(value, list):
            lines.append(f"{pad}{key}:")
            _render(value, indent + 1, lines)
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def render_report(tree) -> str:
    return "\n".join(_render(tree)) + "\n"


def _config_tree(args) -> list:
    show = lambda v: "-" if v is None else v
    return [
        ("r1", show(args.r1)),
        ("r2", show(args.r2)),
        ("order", show(args.order)),
        ("seed", args.seed),
        ("num-points", show(args.num_points)),
    ]


def _point_tree(point) -> list:
    return [(var_name(v), rat_str(q)) for v, q in point.items()]


def compute_points(ranks=Ranks(1, 0), order=6, num_points=1, seed=1) -> list:
    """The localized and closed-form series at ``num_points`` seeded points."""
    forms = localized_forms(ranks, order)
    stream = rational_stream(seed)
    point_blocks = []
    for index in range(1, num_points + 1):
        point, (localized, closed) = retry_points(
            ranks.variables(), stream, lambda p: (eval_forms(forms, p), z_closed(ranks, p, order))
        )
        point_blocks.append(
            (
                f"point {index}",
                [
                    ("assignment", _point_tree(point)),
                    (
                        "localized",
                        [(f"q^{n}", rat_str(c)) for n, c in enumerate(localized.coefficients)],
                    ),
                    (
                        "closed-form",
                        [(f"q^{n}", rat_str(c)) for n, c in enumerate(closed.coefficients)],
                    ),
                ],
            )
        )
    return point_blocks


def cmd_compute(args) -> tuple[str, int]:
    """Evaluate the localized and closed-form series at seeded points."""
    tree = [
        ("command", "compute"),
        ("config", _config_tree(args)),
        ("coefficients", compute_points(**run_kwargs(args, compute_points))),
        ("status", "ok"),
    ]
    return render_report(tree), EXIT_PASS


# The suite keywords each flag fills, where the suite's signature names them;
# ``ranks_list`` and ``det_ranks`` take a one-pair tuple.
FLAG_KEYWORDS = {
    "ranks": ("ranks", "ranks_list", "det_ranks"),
    "order": ("order", "max_len", "det_len"),
    "num_points": ("num_points", "num_assignments", "num_seeds"),
    "seed": ("seed",),
}


def suite_kwargs(suite, **flags) -> dict:
    """Keyword arguments for ``suite`` from the flags given (``None``: not
    given): each fills every keyword of its ``FLAG_KEYWORDS`` row that the
    suite's signature names, and the suite's defaults fill the rest."""
    params = inspect.signature(suite).parameters
    kw: dict = {}
    for flag, value in flags.items():
        for name in FLAG_KEYWORDS[flag]:
            if value is not None and name in params:
                kw[name] = (value,) if name in ("ranks_list", "det_ranks") else value
    return kw


def run_kwargs(args, fn) -> dict:
    """The keywords the run passes to ``fn``, ``compute_points`` or its suite."""
    flags = dict(ranks=_ranks(args), order=args.order, num_points=args.num_points, seed=args.seed)
    return suite_kwargs(fn, **flags)


def cmd_verify(args) -> tuple[str, int]:
    """Run one named suite and report pass/fail with counterexamples."""
    suite = CLI_SUITES[args.suite]
    report: SuiteReport = suite(**run_kwargs(args, suite))
    if not report.checks:
        raise NoChecks(f"suite {args.suite} made no checks")
    tree = [
        ("command", "verify"),
        ("suite", args.suite),
        ("config", _config_tree(args)),
        ("checks", report.checks),
        ("failures", len(report.failures)),
    ]
    if report.failures:
        tree.append(
            ("first-counterexample", [(f"check {k + 1}", text) for k, text in enumerate(report.failures)])
        )
    tree.append(("status", "pass" if report.passed else "fail"))
    return render_report(tree), EXIT_PASS if report.passed else EXIT_SUITE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotloc",
        description="Exact localization engine: compute partition-function "
        "coefficients and verify the structural identities behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--r1", type=int, default=None, help="rank on the first line")
        p.add_argument("--r2", type=int, default=None, help="rank on the second line")
        p.add_argument("--order", type=int, default=None, help="q-series truncation order")
        p.add_argument("--seed", type=int, default=1, help="seed of the evaluation-point stream")
        p.add_argument("--num-points", type=int, default=None, help="points / assignments / seeds per check")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p_compute = sub.add_parser("compute", help="evaluate series coefficients at seeded points")
    common(p_compute)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", metavar="SUITE", help=f"one of: {', '.join(sorted(CLI_SUITES))}")
    common(p_verify)

    return parser


def _validate(parser, args) -> None:
    suite = args.suite if args.command == "verify" else None
    if suite is not None and suite not in CLI_SUITES:
        parser.error(f"unknown suite {suite!r}; choose from {', '.join(sorted(CLI_SUITES))}")
    fn = compute_points if suite is None else CLI_SUITES[suite]
    try:
        ranks = _ranks(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.order is not None and args.order < 0:
        parser.error("order must be nonnegative")
    if args.num_points is not None and args.num_points < 1:
        parser.error("num-points must be at least 1")
    if args.num_points is not None and not suite_kwargs(fn, num_points=args.num_points):
        parser.error(f"the {suite} suite takes no --num-points")
    if suite == "smooth-chi-y" and args.r1:
        parser.error("the smooth-chi-y suite requires r1 = 0")
    if suite == "limits" and ranks is not None and ranks.total < 2:
        parser.error("the limits suite needs r1 + r2 >= 2")
    bound = inspect.signature(fn).bind(**run_kwargs(args, fn))
    bound.apply_defaults()  # size budget: the largest order n and total rank r the run asks for
    given = lambda row: [v for k, v in bound.arguments.items() if k in FLAG_KEYWORDS[row]]
    pairs = [p for v in given("ranks") for p in ((v,) if isinstance(v, Ranks) else v)]
    n, r = max(given("order"), default=0), max((p.total for p in pairs), default=0)
    if suite == "limits":  # its q-shift bookkeeping runs every rank pair up to total rank 4
        r = max(r, 4)
    if fixed_point_count(suite, n, r) > MAX_FIXED_POINTS:
        parser.error(f"order {n} at total rank {r} exceeds the size budget of {MAX_FIXED_POINTS} fixed points")


def fixed_point_count(suite, n: int, r: int) -> int:
    """The fixed points a run enumerates at order ``n`` and total rank ``r``,
    or a number over ``MAX_FIXED_POINTS`` once they exceed it, so huge flags
    stay cheap: ``C(n + r, r)`` line fixed points, and for ``oracle`` the
    diagram tuples ``sum_(m <= n) [q^m] prod_k (1 - q^k)^-r``."""
    if suite != "oracle":
        # past min(n, r) = 20, C(n + r, 20) is already over budget
        return math.comb(n + r, min(n, r, 20))
    # f = prod_k (1 - q^k)^-r satisfies m f_m = r sum_(k=1..m) sigma(k) f_(m-k)
    f, sigma = [1], [0]
    for m in range(1, n + 1):
        if sum(f) > MAX_FIXED_POINTS:
            break
        sigma.append(sum(d for d in range(1, m + 1) if m % d == 0))
        f.append(r * sum(sigma[k] * f[m - k] for k in range(1, m + 1)) // m)
    return sum(f)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    started = time.monotonic()
    try:
        if args.command == "compute":
            text, code = cmd_compute(args)
        else:
            text, code = cmd_verify(args)
    except PointExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except NoChecks as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    elapsed = time.monotonic() - started
    print(f"wall time: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
