"""The batch driver: reports, determinism and exit codes."""

import inspect
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quotloc
from quotloc.chars import T1, T2, PoleAtPoint
from quotloc.cli import (
    COMPUTE,
    EXIT_IO,
    EXIT_PASS,
    EXIT_SUITE_FAILURE,
    EXIT_USAGE,
    FLAG_KEYWORDS,
    MAX_FIXED_POINTS,
    _point_tree,
    _validate,
    compute_points,
    build_parser,
    main,
    suite_kwargs,
)
from quotloc.points import draw_point, rational_stream, seeded_point
from quotloc.rational import rat_str
from quotloc.oracle import partition_tuples
from quotloc.series import z_closed
from quotloc.suites import CLI_SUITES, Suite, SuiteReport, ranks_up_to
from quotloc.vertex import Ranks, fixed_points

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_report_structure_and_values(self, capsys):
        code, out, err = run_cli(
            ["compute", "--r1", "1", "--r2", "0", "--order", "2", "--seed", "7"], capsys
        )
        assert code == EXIT_PASS
        assert out.startswith("command: compute\n")
        assert "wall time" in err and "wall time" not in out
        # the q^1 coefficient is (1 - t1 t2)/(1 - t2) at the seed-7 point
        point = seeded_point((T1, T2, ("w", 1, 1)), 7)
        t1, t2 = point.value(T1), point.value(T2)
        expected = rat_str((1 - t1 * t2) / (1 - t2))
        assert f"q^1: {expected}" in out
        assert out.count(f"q^1: {expected}") == 2  # localized and closed form

    @pytest.mark.parametrize("seed", [1, 7, 157])
    def test_golden_report(self, seed, capsys):
        """Every coefficient of a (2,1) report at order 5, byte for byte."""
        argv = ["compute", "--r1", "2", "--r2", "1", "--order", "5", "--num-points", "3"]
        code, out, _ = run_cli(argv + ["--seed", str(seed)], capsys)
        assert code == EXIT_PASS
        assert out == (GOLDEN / f"compute_seed{seed}.txt").read_text()

    def test_closed_side_pole_redraws_the_point(self, monkeypatch):
        """A pole on the closed side redraws the point, as one on the localized side
        does: both are evaluated inside the one retry."""
        ranks, drawn = Ranks(1, 1), []

        def closed(ranks, point, order):
            drawn.append(point)
            if len(drawn) == 1:
                raise PoleAtPoint("closed side")
            return z_closed(ranks, point, order)

        monkeypatch.setattr(quotloc.cli, "z_closed", closed)
        (label, fields), = compute_points(ranks, order=2, num_points=1, seed=3)
        stream = rational_stream(3)
        points = [draw_point(ranks.variables(), stream) for _ in range(2)]
        assert list(map(repr, drawn)) == list(map(repr, points)) and len(set(map(repr, points))) == 2
        assert dict(fields)["assignment"] == _point_tree(points[1])
        assert dict(fields)["localized"] == dict(fields)["closed-form"]

    def test_report_ignores_the_integer_string_digit_limit(self, capsys):
        """Order 40 at one slot prints coefficients of 1038 digits: under a digit
        limit of 640 the report is the one printed with no limit."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no integer-string digit limit")
        argv = ["compute", "--r1", "1", "--order", "40"]
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            assert main(argv) == EXIT_PASS
            unlimited = capsys.readouterr().out
            sys.set_int_max_str_digits(640)
            assert main(argv) == EXIT_PASS
            assert capsys.readouterr().out == unlimited
        finally:
            sys.set_int_max_str_digits(limit)
        assert max(len(word) for word in unlimited.replace("/", " ").split()) > 1000

    def test_order_zero(self, capsys):
        code, out, _ = run_cli(["compute", "--r1", "0", "--r2", "1", "--order", "0"], capsys)
        assert code == EXIT_PASS
        assert "q^0: 1/1" in out and "q^1" not in out

    def test_invalid_ranks_exit_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--r1", "0", "--r2", "0"])
        assert exc.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--r2", "-1"])
        assert exc.value.code == EXIT_USAGE
        assert "ranks must be nonnegative" in capsys.readouterr().err

    def test_deterministic_reports(self, tmp_path):
        args = ["compute", "--r1", "1", "--r2", "1", "--order", "3", "--seed", "11"]
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        assert main(args + ["--out", str(first)]) == EXIT_PASS
        assert main(args + ["--out", str(second)]) == EXIT_PASS
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_out_exits_io(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x"
        code, out, err = run_cli(["compute", "--order", "1", "--out", str(target)], capsys)
        assert code == EXIT_IO
        assert out == "" and err.startswith("error: ") and str(target) in err
        assert not target.exists()


class TestVerify:
    def test_pass_report(self, capsys):
        code, out, _ = run_cli(
            ["verify", "euler-count", "--r1", "2", "--r2", "1", "--order", "8"], capsys
        )
        assert code == EXIT_PASS
        assert "suite: euler-count\nconfig:" in out
        assert "checks: 9" in out and "failures: 0" in out
        assert out.rstrip().endswith("status: pass")

    @pytest.mark.parametrize("seed", [1, 777])
    def test_golden_oracle_report(self, seed, capsys):
        """The oracle suite's report at its defaults, byte for byte."""
        code, out, _ = run_cli(["verify", "oracle", "--seed", str(seed)], capsys)
        assert code == EXIT_PASS
        assert out == (GOLDEN / f"verify_oracle_seed{seed}.txt").read_text()

    @pytest.mark.parametrize("suite,seed", [(s, n) for s in ("limits", "factorization") for n in (1, 777)])
    def test_golden_limit_calculus_report(self, suite, seed, capsys):
        """The reports of the suites that read the framing-limit calculus, at
        their defaults, byte for byte: 1367 checks for limits, 27 for
        factorization."""
        code, out, _ = run_cli(["verify", suite, "--seed", str(seed)], capsys)
        assert code == EXIT_PASS
        assert out == (GOLDEN / f"verify_{suite}_seed{seed}.txt").read_text()

    def test_limits_passes_where_a_point_moved_a_factor_to_a_pole(self, capsys):
        """At seed 1423, ``t2 = 1/10``: at the fixed speed ``10^3`` the factor
        ``1 - t2^3 w11^-1 w12`` of a convergence block vanished and ``verify limits``
        raised; speeds derived from the point keep every factor away from 0."""
        code, out, _ = run_cli(["verify", "limits", "--seed", "1423"], capsys)
        assert code == EXIT_PASS
        assert out.endswith("failures: 0\nstatus: pass\n")

    def test_suite_option_flag_is_rejected(self, capsys):
        """The suite is named only positionally; ``--suite NAME`` is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "smooth-chi-y", "--order", "2"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_small_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["verify", "closed-form", "--r1", "2", "--r2", "1", "--order", "3",
             "--num-points", "2"],
            capsys,
        )
        assert code == EXIT_PASS
        assert "checks: 2" in out

    def test_unknown_suite_exits_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "not-a-suite"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_suite_exits_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == EXIT_USAGE

    def test_smooth_suite_rejects_positive_r1(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "smooth-chi-y", "--r1", "1", "--r2", "0"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("ranks", [["--r1", "1", "--r2", "0"], ["--r2", "1"]])
    def test_limits_suite_rejects_one_framing_slot(self, ranks):
        """With one slot there is no slot pair, so no block limit is checked."""
        with pytest.raises(SystemExit) as exc:
            main(["verify", "limits"] + ranks)
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "euler-count", "--order", "-1"], "order must be nonnegative"),
            (["compute", "--order", "-1"], "order must be nonnegative"),
            (["verify", "closed-form", "--num-points", "0"], "num-points must be at least 1"),
            (["compute", "--num-points", "0"], "num-points must be at least 1"),
        ],
    )
    def test_out_of_range_flag_exits_usage(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("suite", ["limits", "euler-count", "smooth-chi-y"])
    def test_num_points_rejected_where_no_suite_reads_it(self, suite, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--num-points", "3"])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "takes no --num-points" in captured.err

    @pytest.mark.parametrize("suite", ["euler-count", "smooth-chi-y"])
    def test_seed_rejected_where_no_suite_reads_it(self, suite, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--seed", "99"])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the {suite} suite takes no --seed" in captured.err
        assert main(["verify", suite, "--order", "2"]) == EXIT_PASS
        assert "  seed: 1\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [["cy-vanishing", "--order", "0"], ["framing", "--num-points", "1"]],
    )
    def test_zero_checks_exit_usage(self, args, capsys):
        code, out, err = run_cli(["verify"] + args, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "made no checks" in err

    def test_failure_exit_code_and_counterexample(self, capsys, monkeypatch):
        from quotloc import cli

        def broken_suite(**kw):
            return SuiteReport(checks=3, failures=["r=1,0 q^1 differs: 1/2 vs 1/3"])

        monkeypatch.setitem(cli.CLI_SUITES, "closed-form", Suite(broken_suite))
        code, out, _ = run_cli(["verify", "closed-form"], capsys)
        assert code == EXIT_SUITE_FAILURE
        assert "status: fail" in out
        assert "first-counterexample" in out and "1/2 vs 1/3" in out

    def test_point_exhaustion_exit_code(self, capsys, monkeypatch):
        from quotloc import cli
        from quotloc.cli import EXIT_EXHAUSTED
        from quotloc.points import PointExhausted

        def starved_suite(**kw):
            raise PointExhausted("no usable points")

        monkeypatch.setitem(cli.CLI_SUITES, "framing", Suite(starved_suite))
        code, out, err = run_cli(["verify", "framing"], capsys)
        assert code == EXIT_EXHAUSTED
        assert out == "" and "no usable points" in err


class TestFlagKeywords:
    """The flag -> keyword rule read against the suite signatures: a renamed
    suite keyword that the rule does not follow fails here."""

    @pytest.mark.parametrize("name", sorted(CLI_SUITES))
    def test_every_suite_keyword_is_reached_by_a_flag(self, name):
        suite = CLI_SUITES[name].run
        kw = suite_kwargs(suite, ranks=Ranks(1, 1), order=3, num_points=2, seed=7)
        assert set(kw) == set(inspect.signature(suite).parameters)
        assert set(kw) & set(FLAG_KEYWORDS["ranks"])
        assert set(kw) & set(FLAG_KEYWORDS["order"])

    def test_num_points_reaches_exactly_these_suites(self):
        takes = {name for name, record in CLI_SUITES.items() if suite_kwargs(record.run, num_points=2)}
        assert takes == {
            "closed-form", "framing", "factorization", "oracle", "cohomological",
            "no-twist", "cy-vanishing",
        }

    def test_no_twist_gets_both_rank_and_order_keywords(self):
        kw = suite_kwargs(CLI_SUITES["no-twist"].run, ranks=Ranks(2, 1), order=4)
        assert kw == {
            "det_ranks": (Ranks(2, 1),), "ranks_list": (Ranks(2, 1),), "order": 4, "det_len": 4,
        }

    def test_omitted_flags_leave_the_defaults(self):
        suite = CLI_SUITES["cy-vanishing"].run
        assert suite_kwargs(suite, ranks=None, order=None, num_points=None, seed=3) == {"seed": 3}


class TestSizeBudget:
    """Runs whose rank pair and order ask for more than ``MAX_FIXED_POINTS``
    fixed points (line fixed points, or diagram tuples for ``oracle``) are
    refused before any work starts."""

    @staticmethod
    def validate(argv):
        parser = build_parser()
        _validate(parser, parser.parse_args(argv))

    def asked_size(self, argv, capsys, monkeypatch):
        """The ``(order, total rank)`` the budget reads for ``argv``, from its
        error text under a zero budget."""
        from quotloc import cli

        monkeypatch.setattr(cli, "MAX_FIXED_POINTS", 0)
        with pytest.raises(SystemExit):
            self.validate(argv)
        words = capsys.readouterr().err.split()
        return int(words[words.index("order") + 1]), int(words[words.index("rank") + 1])

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "euler-count", "--order", "100000"],
            ["compute", "--r1", "4", "--r2", "4", "--order", "40"],
            ["verify", "closed-form", "--r1", "3000000", "--order", "3000000"],
            ["verify", "limits", "--r1", "1", "--r2", "1", "--order", "100"],  # C(104, 4)
            ["verify", "oracle", "--r1", "3", "--order", "20"],  # 943305 diagram tuples
            ["verify", "oracle", "--r1", "3000000", "--order", "3000000"],
        ],
    )
    def test_oversize_run_exits_usage_before_work(self, argv, capsys, monkeypatch):
        from quotloc import cli

        def no_work(args):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "cmd_compute", no_work)
        monkeypatch.setattr(cli, "cmd_verify", no_work)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the size budget" in captured.err

    @pytest.mark.parametrize("ranks", [("4", "3"), ("7", "0"), ("1", "6")])
    def test_limits_over_total_rank_six_runs_and_passes(self, ranks, capsys):
        """The convergence check moves slot ``k`` as ``big^(k + 1)``, so
        ``limits`` has no rank cap: total rank 7 runs and passes."""
        code, out, _ = run_cli(["verify", "limits", "--r1", ranks[0], "--r2", ranks[1]], capsys)
        assert code == EXIT_PASS
        assert out.endswith("failures: 0\nstatus: pass\n")

    @pytest.mark.parametrize("argv", [["compute"]] + [["verify", name] for name in sorted(CLI_SUITES)])
    def test_defaults_fit_the_budget(self, argv, capsys, monkeypatch):
        self.validate(argv)
        n, r = self.asked_size(argv, capsys, monkeypatch)
        record = COMPUTE if argv == ["compute"] else CLI_SUITES[argv[-1]]
        assert math.comb(n + r, r) <= 1001
        assert record.count(n, r, MAX_FIXED_POINTS) <= 1001

    @pytest.mark.parametrize(
        "argv,size",
        [
            (["verify", "no-twist"], (5, 4)),  # det_ranks up to total rank 4, det_len 5
            (["verify", "no-twist", "--order", "7", "--r2", "2"], (7, 2)),
            (["verify", "limits", "--r1", "3"], (5, 4)),  # q-shifts run up to total rank 4
            (["compute"], (6, 1)),
            (["compute", "--r2", "2", "--order", "3"], (3, 2)),
        ],
    )
    def test_reads_every_rank_and_order_keyword(self, argv, size, capsys, monkeypatch):
        assert self.asked_size(argv, capsys, monkeypatch) == size

    def test_bound_is_the_fixed_point_count(self, monkeypatch):
        from quotloc import cli

        self.validate(["compute", "--r1", "4", "--r2", "4", "--order", "10"])  # 43758
        monkeypatch.setattr(cli, "MAX_FIXED_POINTS", 1001)
        self.validate(["verify", "euler-count", "--order", "10"])  # C(14, 4) = 1001
        with pytest.raises(SystemExit):
            self.validate(["verify", "euler-count", "--order", "11"])  # C(15, 4) = 1365
        assert MAX_FIXED_POINTS == 10**5

    def test_oracle_count_is_the_diagram_tuple_count(self):
        """Each record's count is the number of states its suite enumerates: diagram
        tuples for ``oracle``, line fixed points for the others."""
        for name, states in (("oracle", partition_tuples), ("closed-form", fixed_points)):
            for ranks in ranks_up_to(3):
                for n in range(5):
                    total = sum(len(states(ranks, m)) for m in range(n + 1))
                    assert CLI_SUITES[name].count(n, ranks.total, MAX_FIXED_POINTS) == total
        assert CLI_SUITES["oracle"].count(20, 3, MAX_FIXED_POINTS) > MAX_FIXED_POINTS

    def test_a_new_record_needs_no_cli_change(self, capsys, monkeypatch):
        """A record the driver has never seen brings its own guard, fixed ranks and
        count, and ``_validate`` applies all three."""
        asked = []

        def toy_suite(ranks=Ranks(1, 0), order=2, seed=1):
            raise AssertionError("work started")

        def count(n, r, cap):
            asked.append((n, r, cap))
            return 7 * n

        guard = lambda ranks: "the toy suite needs r2 = 0" if ranks and ranks.r2 else None
        monkeypatch.setitem(CLI_SUITES, "toy", Suite(toy_suite, count, (Ranks(3, 2),), guard))
        with pytest.raises(SystemExit) as exc:
            self.validate(["verify", "toy", "--r2", "1"])
        assert exc.value.code == EXIT_USAGE
        assert "the toy suite needs r2 = 0" in capsys.readouterr().err and asked == []
        self.validate(["verify", "toy", "--order", "3"])  # the fixed ranks set r = 5
        with pytest.raises(SystemExit):
            self.validate(["verify", "toy", "--r1", "9", "--order", str(MAX_FIXED_POINTS // 7 + 1)])
        assert "order 14286 at total rank 9 exceeds" in capsys.readouterr().err
        assert asked == [(3, 5, MAX_FIXED_POINTS), (14286, 9, MAX_FIXED_POINTS)]


class TestFlagSweep:
    """Every command over a grid of flags ends in a documented exit code, never in
    an exception other than ``SystemExit``."""

    COMMANDS = [["compute"]] + [["verify", name] for name in sorted(CLI_SUITES)]
    GRID = list(itertools.product([None, "0", "1", "4"], [None, "0", "3"], [None, "2"]))

    def test_every_run_exits_with_a_documented_code(self):
        codes = set()
        for command, (r1, r2, num_points) in itertools.product(self.COMMANDS, self.GRID):
            argv = command + ["--order", "0", "--seed", "-5"]
            for flag, value in (("--r1", r1), ("--r2", r2), ("--num-points", num_points)):
                argv += [] if value is None else [flag, value]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            codes.add(code)
            assert code in range(5), argv
        assert codes == {EXIT_PASS, EXIT_USAGE}


class TestLargeTotalRank:
    """A run inside the size budget at a total rank past the interpreter's recursion
    limit ends in its report: fixed points are listed on an explicit stack.  Rank 1100
    stays out of the sweep's grid, where other commands at it run for minutes."""

    @pytest.mark.parametrize("suite, flag", [("euler-count", "--r1"), ("smooth-chi-y", "--r2")])
    def test_verify_passes(self, suite, flag, capsys):
        code, out, _ = run_cli(["verify", suite, flag, "1100", "--order", "0"], capsys)
        assert code == EXIT_PASS and "status: pass" in out


class TestSubprocessEntry:
    def test_module_invocation(self):
        # the child imports quotloc from where this test did, installed or not
        src = str(Path(quotloc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "quotloc.cli", "verify", "euler-count",
             "--r1", "1", "--r2", "0", "--order", "5"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == EXIT_PASS
        assert "status: pass" in proc.stdout

