"""Suite plumbing: reports, counterexample strings and rank grids."""

import pytest

from quotloc import series, suites
from quotloc.chars import Character, Monomial, T1
from quotloc.points import PointAssignment
from quotloc.rational import rational
from quotloc.series import QSeries
from quotloc.suites import (
    SuiteReport,
    _limits_numeric_convergence,
    _series_check,
    ranks_up_to,
    suite_closed_form,
    suite_cohomological,
    suite_cy_vanishing,
    suite_factorization,
    suite_framing,
    suite_no_twist,
    suite_oracle,
)
from quotloc.vertex import Ranks


def test_report_check_counts_and_lazy_descriptions():
    report = SuiteReport("demo")
    report.check(True, lambda: 1 / 0)  # description not evaluated on pass
    report.check(False, "plain string")
    report.check(False, lambda: "lazy string")
    assert report.checks == 3
    assert report.failures == ["plain string", "lazy string"]
    assert not report.passed


def test_series_check_reports_first_mismatch():
    report = SuiteReport("demo")
    point = PointAssignment({("t", 1): rational(2)})
    lhs = QSeries([rational(1), rational(2), rational(7)])
    rhs = QSeries([rational(1), rational(2), rational(5)])
    _series_check(report, "demo-label", point, lhs, rhs)
    assert not report.passed
    message = report.failures[0]
    assert "demo-label" in message and "q^2" in message
    assert "7/1" in message and "5/1" in message and "t1=2" in message


def test_ranks_up_to():
    grid = ranks_up_to(2)
    assert Ranks(1, 0) in grid and Ranks(0, 2) in grid and Ranks(1, 1) in grid
    assert all(1 <= r.total <= 2 for r in grid)
    assert len(grid) == 5


def test_suite_scaling_knobs():
    report = suite_closed_form(ranks_list=(Ranks(1, 1),), order=2, num_points=2, seed=3)
    assert report.passed and report.checks == 2
    report = suite_framing(ranks=Ranks(1, 1), order=2, num_assignments=4, seed=3)
    assert report.passed and report.checks == 3  # comparisons against the first
    report = suite_oracle(ranks_list=(Ranks(1, 0),), order=2, num_points=1, seed=3)
    assert report.passed


def test_suites_are_deterministic():
    a = suite_closed_form(ranks_list=(Ranks(2, 1),), order=3, num_points=2, seed=9)
    b = suite_closed_form(ranks_list=(Ranks(2, 1),), order=3, num_points=2, seed=9)
    assert (a.checks, a.failures) == (b.checks, b.failures)


def test_cy_vanishing_fails_on_perturbed_closed_side(monkeypatch):
    closed = suites.cy_first_order_closed
    monkeypatch.setattr(
        suites,
        "cy_first_order_closed",
        lambda ranks, n, point: closed(Ranks(ranks.r1 + 1, ranks.r2), n, point),
    )
    report = suite_cy_vanishing(ranks_list=(Ranks(1, 0), Ranks(2, 1)), max_len=2, num_seeds=2)
    assert report.checks == 8 and len(report.failures) == 8
    assert "first-order term" in report.failures[0]


def test_cy_vanishing_reports_nonvanishing_weight(monkeypatch):
    """A weight of order 0 fails every check of its degree, naming the
    fixed point and its order."""
    monkeypatch.setattr(suites, "cy_order", lambda form: 0)
    report = suite_cy_vanishing(ranks_list=(Ranks(1, 1),), max_len=1, num_seeds=3)
    assert report.checks == 3 and len(report.failures) == 3
    assert "has order 0" in report.failures[0]


def test_limits_convergence_is_strict(monkeypatch):
    """A block constant in the framing variables has both gaps 0: that is
    no convergence and must fail."""
    monkeypatch.setattr(
        suites, "vertex_block", lambda *args: Character.from_monomial(Monomial.var(T1))
    )
    report = SuiteReport("limits")
    _limits_numeric_convergence(report, Ranks(2, 2), 1)
    assert report.checks == 6 and len(report.failures) == 6


@pytest.mark.parametrize(
    "suite",
    [
        lambda n: suite_no_twist(det_ranks=(), order=3, num_points=n),
        lambda n: suite_cohomological(order=3, num_points=n),
        lambda n: suite_factorization(order=3, num_points=n),
    ],
    ids=["no-twist", "cohomological", "factorization"],
)
def test_tables_are_built_once_per_rank_pair(monkeypatch, suite):
    """More evaluation points build no more blocks: each localized table is
    built once per rank pair and only evaluated at the points."""
    calls = []

    def counting(*args):
        calls.append(args)
        return vertex_block(*args)

    vertex_block = series.vertex_block
    monkeypatch.setattr(series, "vertex_block", counting)
    counts = []
    for num_points in (1, 3):
        calls.clear()
        assert suite(num_points).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
