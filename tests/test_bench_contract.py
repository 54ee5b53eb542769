"""The benchmark's workloads bind to the suite signatures.

``bench/workloads.py`` calls the suites by keyword; a renamed or removed
suite keyword would abort the benchmark, so every call is bound here."""

import runpy
from pathlib import Path

import pytest

import quotloc.suites

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    return runpy.run_path(str(WORKLOADS_PY))


def test_every_call_binds_to_its_suite(workloads):
    for workload in workloads["WORKLOADS"].values():
        for c in workload.calls:
            workloads["resolve"](c, quotloc.suites, 1)  # TypeError on an unknown keyword


def test_weight_counts(workloads):
    counts = {
        name: sum(workloads["weight_count"](c, quotloc.suites, 1) for c in w.calls)
        for name, w in workloads["WORKLOADS"].items()
    }
    assert counts == {"frontier": 2002, "many-points": 16500, "oracle": 7713, "acceptance": 7419}
