"""Tests of the benchmark itself: the tracer's accounting, the rebinding of
imported names, a tiny-scale run of every workload and the metric names.

    python3 -m pytest bench -q
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import layers  # noqa: E402
import quotloc.suites  # noqa: E402
import run  # noqa: E402
from tracer import Target, Tracer, by_label, enclosing, layer_self, self_times  # noqa: E402
from worker import run_workload, score  # noqa: E402
from workloads import WORKLOADS, call, resolve, weight_count  # noqa: E402


class FakeClock:
    """Each reading advances by the next step."""

    def __init__(self, steps):
        self.now = 0.0
        self.steps = iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_self_time_arithmetic():
    # root(outer) spans 0..10; children a (1..4) and b (5..9); a has child c (2..3)
    clock = FakeClock([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.0])
    tracer = Tracer(clock)
    c = tracer.wrap("m.c", lambda: None)
    a = tracer.wrap("m.a", lambda: c())
    b = tracer.wrap("n.b", lambda: None)
    outer = tracer.wrap("suites.outer", lambda: (a(), b()))
    outer()
    spans = tracer.spans
    assert [s[0] for s in spans] == ["suites.outer", "m.a", "m.c", "n.b"]
    assert [(s[1], s[2]) for s in spans] == [(1.0, 10.0), (2.0, 5.0), (3.0, 4.0), (6.0, 9.0)]
    assert [s[3] for s in spans] == [-1, 0, 1, 0]
    assert {s[4] for s in spans} == {0}
    selfs = self_times(spans)
    assert selfs == [9.0 - 3.0 - 3.0, 3.0 - 1.0, 1.0, 3.0]
    assert sum(selfs) == spans[0][2] - spans[0][1]
    labels = by_label(spans, selfs)
    assert labels["m.a"]["incl_s"] == 3.0 and labels["m.a"]["self_s"] == 2.0
    assert layer_self(labels) == {"suites": 3.0, "m": 3.0, "n": 3.0}
    assert enclosing(spans, 2, ("m.a",)) == 1
    assert enclosing(spans, 3, ("m.a",)) == -1


def test_each_call_at_top_is_a_root_and_errors_close_spans():
    tracer = Tracer()
    tracer.pole_types = (ZeroDivisionError,)

    def fails():
        raise ZeroDivisionError

    inner = tracer.wrap("m.inner", fails)
    outer = tracer.wrap("m.outer", lambda: inner())
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            outer()
    assert [s[4] for s in tracer.spans] == [0, 0, 2, 2]
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert tracer.pole_origins == [1, 3]  # counted once, where it was raised


def test_wrapper_rebinds_every_importing_module():
    import quotloc
    import quotloc.series
    import quotloc.vertex

    original = quotloc.vertex.vertex_term
    tracer = Tracer()
    tracer.install([
        Target("vertex.vertex_term", "quotloc.vertex", "vertex_term"),
        Target("chars.eval_point", "quotloc.chars", "FactoredForm.eval_point"),
        Target("gone.fn", "quotloc.vertex", "no_such_function"),
    ])
    try:
        wrapped = quotloc.vertex.vertex_term
        assert wrapped is not original
        assert quotloc.suites.vertex_term is wrapped
        assert quotloc.series.vertex_term is wrapped
        assert quotloc.vertex_term is wrapped
        assert tracer.missing == ["gone.fn"]
        quotloc.series.z_localized(
            quotloc.vertex.Ranks(1, 0),
            quotloc.EvalContext.at_seed(quotloc.vertex.Ranks(1, 0).variables(), 1, 1),
        )
        assert {s[0] for s in tracer.spans} == {"vertex.vertex_term", "chars.eval_point"}
    finally:
        tracer.uninstall()
    assert quotloc.suites.vertex_term is original
    assert quotloc.vertex_term is original


def test_score_fails_raised_vacuous_and_short_suites():
    class Report:
        def __init__(self, checks, failures=()):
            self.checks, self.failures = checks, list(failures)

    c = call("suite_x", 5)
    assert score(c, Report(5), None) == (5, 0)
    assert score(c, Report(5, ["bad"]), None) == (5, 1)
    assert score(c, Report(0), None) == (5, 5)
    assert score(c, Report(3), None) == (5, 2)
    assert score(c, None, "PointExhausted") == (5, 5)


TINY = {"order": 2, "num_points": 1, "max_len": 2, "count": 3, "det_len": 1,
        "num_seeds": 1, "num_assignments": 2}


def tiny(workload):
    """The same suite calls at tiny scale, with their check counts."""
    calls = []
    for c in workload.calls:
        kwargs = {k: TINY.get(k, v) for k, v in c.kwargs}
        fn, resolved = resolve(call(c.suite, 0, **kwargs), quotloc.suites, 1)
        calls.append(call(c.suite, fn(**resolved).checks, **kwargs))
    return replace(workload, calls=tuple(calls))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_clean_traced_and_untraced(name):
    workload = tiny(WORKLOADS[name])
    plain = run_workload(workload, quotloc.suites, 1)
    assert plain["failed"] == 0 and plain["attempted"] == workload.checks > 0
    tracer = Tracer()
    try:
        traced = run_workload(workload, quotloc.suites, 1, tracer)
    finally:
        tracer.uninstall()
    assert traced["failed"] == 0 and traced["attempted"] == plain["attempted"]
    assert traced["missing_targets"] == []
    metrics = traced["layers"]
    assert set(metrics) == {n for n, _ in layers.PER_LAYER} - {"trace.overhead_s"}
    assert 0.9 < metrics["trace.accounted_ratio"] <= 1.0 + 1e-9
    assert all(not isinstance(v, float) or v >= -1e-9 for v in metrics.values())


def test_weight_counts():
    def weights(name):
        return sum(weight_count(c, quotloc.suites, 1) for c in WORKLOADS[name].calls)

    assert weights("frontier") == 2002
    assert weights("many-points") == 16500
    assert weights("oracle") == 7713
    assert weights("acceptance") == 7419
    assert [w.checks for w in WORKLOADS.values()] == [2, 100, 4301, 4471]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_a_directory_without_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "frontier",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
