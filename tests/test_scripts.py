"""The scripts under ``scripts/`` run end to end."""

import runpy
import sys
from pathlib import Path

import pytest

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
    import quotloc
    from quotloc.series import QSeries

    def z_closed(ranks, point, order):
        return QSeries([0] * (order + 1))

    monkeypatch.setattr(quotloc, "z_closed", z_closed)
    monkeypatch.setattr(sys, "argv", ["series_table.py", "--order", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "series_table.py"), run_name="__main__")
    assert exc.value.code == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("ranks")]
    assert len(rows) == 5 and all(row.endswith("[MISMATCH]") for row in rows)
