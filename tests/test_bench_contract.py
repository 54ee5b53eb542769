"""The benchmark binds to the package.

``bench/workloads.py`` calls the suites by keyword; a renamed or removed
suite keyword would abort the benchmark, so every call is bound here.
``bench/layers.py`` names the functions the traced run wraps; a renamed one
is skipped silently, so no target may go missing beyond the known ones."""

import importlib
import runpy
from pathlib import Path

import pytest

import quotloc.suites

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS_PY = BENCH / "workloads.py"

# Targets of functions the package no longer has; the benchmark's repair drops them.
KNOWN_MISSING = {
    "chars.coh_euler", "chars.eval_point", "chars.eval_univar", "chars.substitute_halfweights",
    "limits.block_limit", "limits.z_via_limits", "oracle.z_oracle",
    "parallel.parallel_map", "points.monomial_value",
    "ratfun.add", "ratfun.call", "ratfun.is_pole", "ratfun.new", "ratfun.poly_gcd",
    "series.binom_series", "series.cy_certificate", "series.cy_vanishing_certificate",
    "series.z_localized", "series.zcoh_localized", "series.zhat_localized",
    "vertex.det_char",
}


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


def test_traced_targets_go_missing_only_as_known(monkeypatch):
    """Every target of the traced run resolves in the package, as the tracer
    resolves it, except the known missing ones."""
    monkeypatch.syspath_prepend(str(BENCH))
    targets = runpy.run_path(str(BENCH / "layers.py"))["TARGETS"]
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install(targets)
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= KNOWN_MISSING
