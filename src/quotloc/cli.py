"""Batch driver: compute series coefficients and run verification suites.

Two subcommands::

    quotloc compute --r1 R1 --r2 R2 --order N --seed S [--num-points K] [--out PATH]
    quotloc verify SUITE [--r1 R1 --r2 R2] [--order N --seed S --num-points K --out PATH]

A run reads one :class:`~quotloc.suites.Suite` record, ``COMPUTE`` or
``CLI_SUITES[SUITE]``, and passes each flag given to every keyword of its
``FLAG_KEYWORDS`` row that the record's ``run`` names (``--order`` is ``order``,
``max_len`` or ``det_len``, for example); ``--num-points`` is a usage error for a
``run`` that names none.  The record's guard and ``count`` refuse a run before it starts.

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
import sys
import time

from .chars import var_name
from .points import PointExhausted, rational_stream, retry_points
from .rational import rat_str
from .series import eval_forms, localized_forms, z_closed
from .suites import CLI_SUITES, Suite, SuiteReport
from .vertex import Ranks

EXIT_PASS = 0
EXIT_SUITE_FAILURE = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_IO = 4

MAX_FIXED_POINTS = 10**5  # fixed points up to order n at total rank r (the run's Suite.count)


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
        point, sides = retry_points(
            ranks.variables(), stream, lambda p: (eval_forms(forms, p), z_closed(ranks, p, order))
        )
        coefficients = [
            (side, [(f"q^{n}", rat_str(c)) for n, c in enumerate(series.coefficients)])
            for side, series in zip(("localized", "closed-form"), sides)
        ]
        point_blocks.append((f"point {index}", [("assignment", _point_tree(point))] + coefficients))
    return point_blocks


COMPUTE = Suite(compute_points)  # ``compute`` as one more record: line fixed points, no guard


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
    """The keywords the run passes to ``fn``, the ``run`` of its record."""
    flags = dict(ranks=_ranks(args), order=args.order, num_points=args.num_points, seed=args.seed)
    return suite_kwargs(fn, **flags)


def cmd_verify(args) -> tuple[str, int]:
    """Run one named suite and report pass/fail with counterexamples."""
    run = CLI_SUITES[args.suite].run
    report: SuiteReport = run(**run_kwargs(args, run))
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
    if args.command == "verify" and args.suite not in CLI_SUITES:
        parser.error(f"unknown suite {args.suite!r}; choose from {', '.join(sorted(CLI_SUITES))}")
    record = COMPUTE if args.command == "compute" else CLI_SUITES[args.suite]
    try:
        ranks = _ranks(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.order is not None and args.order < 0:
        parser.error("order must be nonnegative")
    if args.num_points is not None and args.num_points < 1:
        parser.error("num-points must be at least 1")
    if args.num_points is not None and not suite_kwargs(record.run, num_points=args.num_points):
        parser.error(f"the {args.suite} suite takes no --num-points")
    if (refusal := record.guard(ranks)) is not None:
        parser.error(refusal)
    bound = inspect.signature(record.run).bind(**run_kwargs(args, record.run))
    bound.apply_defaults()  # size budget: the largest order n and total rank r the run asks for
    given = lambda row: [v for k, v in bound.arguments.items() if k in FLAG_KEYWORDS[row]]
    pairs = [p for v in given("ranks") for p in ((v,) if isinstance(v, Ranks) else v)]
    pairs += record.always_ranks
    n, r = max(given("order"), default=0), max((p.total for p in pairs), default=0)
    if record.count(n, r, MAX_FIXED_POINTS) > MAX_FIXED_POINTS:
        parser.error(f"order {n} at total rank {r} exceeds the size budget of {MAX_FIXED_POINTS} fixed points")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    started = time.monotonic()
    try:
        text, code = cmd_compute(args) if args.command == "compute" else cmd_verify(args)
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
