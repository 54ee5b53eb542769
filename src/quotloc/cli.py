"""Batch driver: compute series coefficients and run verification suites.

Two subcommands::

    quotloc compute --r1 R1 --r2 R2 --order N --seed S [--num-points K] [--out PATH]
    quotloc verify SUITE [--r1 R1 --r2 R2] [--order N --seed S --num-points K --out PATH]

Reports are structured key/value text with a stable field order and exact
rationals serialized as ``numerator/denominator``; a report is
byte-identical across runs with the same configuration (wall time goes to
stderr).  Exit codes: 0 pass, 1 suite failure, 2 usage error (including a
configuration under which the suite makes no checks), 3 evaluation
exhausted its point budget, 4 the report could not be written.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from dataclasses import dataclass

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


class NoChecks(ValueError):
    """The configuration leaves the suite nothing to check."""


@dataclass
class RunConfig:
    command: str
    suite: str | None
    r1: int | None
    r2: int | None
    order: int | None
    seed: int
    num_points: int | None
    out: str | None

    def ranks(self) -> Ranks | None:
        if self.r1 is None and self.r2 is None:
            return None
        return Ranks(self.r1 or 0, self.r2 or 0)


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


def _config_tree(cfg: RunConfig) -> list:
    show = lambda v: "-" if v is None else v
    return [
        ("r1", show(cfg.r1)),
        ("r2", show(cfg.r2)),
        ("order", show(cfg.order)),
        ("seed", cfg.seed),
        ("num-points", show(cfg.num_points)),
    ]


def _point_tree(point) -> list:
    from .chars import var_name

    return [(var_name(v), rat_str(q)) for v, q in point.items()]


def cmd_compute(cfg: RunConfig) -> tuple[str, int]:
    """Evaluate the localized and closed-form series at seeded points."""
    ranks = cfg.ranks() or Ranks(1, 0)
    order = 6 if cfg.order is None else cfg.order
    num_points = cfg.num_points or 1
    forms = localized_forms(ranks, order)
    stream = rational_stream(cfg.seed)
    point_blocks = []
    for index in range(1, num_points + 1):
        point, localized = retry_points(
            ranks.variables(), stream, lambda p: eval_forms(forms, p)
        )
        closed = z_closed(ranks, point, order)
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
    tree = [
        ("command", "compute"),
        ("config", _config_tree(cfg)),
        ("coefficients", point_blocks),
        ("status", "ok"),
    ]
    return render_report(tree), EXIT_PASS


# The keyword names each suite gives to --r1/--r2, --order and --num-points;
# ``ranks_list`` and ``det_ranks`` take a one-pair tuple.
SUITE_KEYWORDS = {
    "closed-form": ("ranks_list", "order", "num_points"),
    "framing": ("ranks", "order", "num_assignments"),
    "factorization": ("ranks_list", "order", "num_points"),
    "limits": ("ranks", "max_len", ""),
    "oracle": ("ranks_list", "order", "num_points"),
    "cohomological": ("ranks_list", "order", "num_points"),
    "no-twist": ("det_ranks ranks_list", "order det_len", "num_points"),
    "cy-vanishing": ("ranks_list", "max_len", "num_seeds"),
    "euler-count": ("ranks_list", "max_len", ""),
    "smooth-chi-y": ("ranks_list", "max_len", ""),
}


def _suite_kwargs(cfg: RunConfig) -> dict:
    """Translate the flat CLI configuration into suite keyword arguments."""
    ranks = cfg.ranks()
    kw: dict = {}
    if "seed" in inspect.signature(CLI_SUITES[cfg.suite]).parameters:
        kw["seed"] = cfg.seed
    given = (ranks, cfg.order, cfg.num_points)
    for names, value in zip(SUITE_KEYWORDS[cfg.suite], given):
        for name in names.split():
            if value is not None:
                kw[name] = (value,) if name in ("ranks_list", "det_ranks") else value
    return kw


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    """Run one named suite and report pass/fail with counterexamples."""
    suite_fn = CLI_SUITES[cfg.suite]
    report: SuiteReport = suite_fn(**_suite_kwargs(cfg))
    if not report.checks:
        raise NoChecks(f"suite {cfg.suite} made no checks")
    tree = [
        ("command", "verify"),
        ("suite", cfg.suite),
        ("config", _config_tree(cfg)),
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


def _validate(parser, args) -> RunConfig:
    suite = args.suite if args.command == "verify" else None
    if suite is not None and suite not in CLI_SUITES:
        parser.error(f"unknown suite {suite!r}; choose from {', '.join(sorted(CLI_SUITES))}")
    cfg = RunConfig(
        command=args.command,
        suite=suite,
        r1=args.r1,
        r2=args.r2,
        order=args.order,
        seed=args.seed,
        num_points=args.num_points,
        out=args.out,
    )
    if (cfg.r1 is not None or cfg.r2 is not None) and (cfg.r1 or 0) + (cfg.r2 or 0) < 1:
        parser.error("total rank r1 + r2 must be at least 1")
    if (cfg.r1 or 0) < 0 or (cfg.r2 or 0) < 0:
        parser.error("ranks must be nonnegative")
    if cfg.order is not None and cfg.order < 0:
        parser.error("order must be nonnegative")
    if cfg.num_points is not None and cfg.num_points < 1:
        parser.error("num-points must be at least 1")
    if cfg.suite == "smooth-chi-y" and cfg.r1:
        parser.error("the smooth-chi-y suite requires r1 = 0")
    if cfg.suite == "limits" and cfg.ranks() is not None and cfg.ranks().total < 2:
        parser.error("the limits suite needs two framing slots, r1 + r2 >= 2")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _validate(parser, args)
    started = time.monotonic()
    try:
        if cfg.command == "compute":
            text, code = cmd_compute(cfg)
        else:
            text, code = cmd_verify(cfg)
    except PointExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except NoChecks as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
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
