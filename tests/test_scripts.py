"""The scripts under ``scripts/`` run end to end."""

import runpy
import sys
from pathlib import Path

import pytest

import quotloc.suites
from quotloc.suites import Suite, SuiteReport

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_series_table_rows_agree(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["series_table.py", "--order", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "series_table.py"), run_name="__main__")
    assert exc.value.code == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("ranks")]
    assert len(rows) == 5 and all(row.endswith("[ok]") for row in rows)


def test_series_table_retries_a_point_with_a_pole(monkeypatch, capsys):
    # seed 157's first point makes a factor 1 - w11^-1*w22 vanish at ranks (2,2)
    monkeypatch.setattr(sys, "argv", ["series_table.py", "--seed", "157", "--order", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "series_table.py"), run_name="__main__")
    assert exc.value.code == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("ranks")]
    assert len(rows) == 5 and all(row.endswith("[ok]") for row in rows)


def test_series_table_exits_1_on_a_mismatch(monkeypatch, capsys):
    import quotloc.series
    from quotloc.series import QSeries

    def z_closed(ranks, point, order):
        return QSeries([0] * (order + 1))

    monkeypatch.setattr(quotloc.series, "z_closed", z_closed)
    monkeypatch.setattr(sys, "argv", ["series_table.py", "--order", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "series_table.py"), run_name="__main__")
    assert exc.value.code == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("ranks")]
    assert len(rows) == 5 and all(row.endswith("[MISMATCH]") for row in rows)


def test_series_table_rejects_a_negative_order(monkeypatch, capsys):
    """A negative order is a usage error, exit 2, not a ``MISMATCH`` exit 1."""
    monkeypatch.setattr(sys, "argv", ["series_table.py", "--order", "-1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "series_table.py"), run_name="__main__")
    assert exc.value.code == 2
    assert "order must be nonnegative" in capsys.readouterr().err


def test_series_table_refuses_an_order_over_the_size_budget(monkeypatch, capsys):
    """Order 37 at total rank 4 is C(41, 4) = 101270 fixed points, over the budget
    ``quotloc verify`` refuses: exit 2 before any row."""
    monkeypatch.setattr(sys, "argv", ["series_table.py", "--order", "37"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "series_table.py"), run_name="__main__")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "exceeds the size budget of 100000 fixed points" in err


def passing_suite(seed=1):
    return SuiteReport(checks=2)


def failing_suite(seed=1):
    return SuiteReport(checks=3, failures=[f"coefficient 2 differs at seed {seed}"])


def run_all_suites(monkeypatch, capsys, suites, argv=()):
    monkeypatch.setattr(quotloc.suites, "CLI_SUITES", suites)
    monkeypatch.setattr(sys, "argv", ["run_all_suites.py", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "run_all_suites.py"), run_name="__main__")
    return exc.value.code, capsys.readouterr().out.splitlines()


def test_run_all_suites_exits_1_on_a_failing_suite(monkeypatch, capsys):
    suites = {"passing": Suite(passing_suite), "failing": Suite(failing_suite)}
    code, lines = run_all_suites(monkeypatch, capsys, suites, ["--seed", "7"])
    assert code == 1 and len(lines) == 3
    assert lines[0].startswith("passing          pass  checks=2 ")
    assert lines[1].startswith("failing          FAIL  checks=3 ")
    assert lines[2] == "    coefficient 2 differs at seed 7"


def test_run_all_suites_exits_0_when_every_suite_passes(monkeypatch, capsys):
    code, lines = run_all_suites(monkeypatch, capsys, {"passing": Suite(passing_suite)})
    assert code == 0 and len(lines) == 1
    assert lines[0].startswith("passing          pass  checks=2 ")


def test_run_all_suites_fails_a_suite_of_zero_checks(monkeypatch, capsys):
    """A report with no checks and so no failures verified nothing; ``quotloc verify``
    refuses it too."""
    suites = {"passing": Suite(passing_suite), "empty": Suite(lambda seed=1: SuiteReport())}
    code, lines = run_all_suites(monkeypatch, capsys, suites)
    assert code == 1 and len(lines) == 2
    assert lines[1].startswith("empty            FAIL  checks=0 ")
