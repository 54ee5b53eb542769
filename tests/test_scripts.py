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
