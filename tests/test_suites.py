"""Suite plumbing: reports, counterexample strings and rank grids."""

import pytest

from quotloc import limits, oracle, series, suites
from quotloc.chars import Character, FactoredForm, Monomial, PoleAtPoint, T1, w_var
from quotloc.points import PointAssignment, draw_point, rational_stream
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
    suite_limits,
    suite_no_twist,
    suite_oracle,
    suite_smooth_chi_y,
)
from quotloc.vertex import Ranks


def test_report_check_counts_and_lazy_descriptions():
    report = SuiteReport()
    report.check(True, lambda: 1 / 0)  # description not evaluated on pass
    report.check(False, lambda: "lazy string")
    assert report.checks == 2
    assert report.failures == ["lazy string"]
    assert not report.passed


def test_series_check_reports_first_mismatch():
    report = SuiteReport()
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
        series, "vertex_block", lambda *args: Character.from_monomial(Monomial.var(T1))
    )
    report = SuiteReport()
    _limits_numeric_convergence(report, Ranks(2, 2), limits.limit_table(Ranks(2, 2), 3), 1)
    assert report.checks == 6 and len(report.failures) == 6


def test_limits_convergence_needs_the_expected_rate(monkeypatch):
    """A block whose gap shrinks only at the rate of the two slowest slots,
    ``big^-(2 - 1)``, converges too slowly for every slot pair of another rate:
    the three pairs that are not adjacent."""
    slowest = Monomial([(w_var(1, 1), -1), (w_var(1, 2), 1)])
    monkeypatch.setattr(series, "vertex_block", lambda *args: Character.from_monomial(slowest))
    report = SuiteReport()
    _limits_numeric_convergence(report, Ranks(2, 2), limits.limit_table(Ranks(2, 2), 3), 1)
    assert report.checks == 6 and len(report.failures) == 3
    assert all("no convergence" in f for f in report.failures)


def test_limits_convergence_passes_at_every_seed():
    """Speeds derived from the point's height dominate every t-monomial of the
    convergence blocks: seeds 113 (``t1 = 1/17``) and 139 failed at the fixed
    speeds ``10^3`` and ``10^6``."""
    for seed in range(1, 201):
        report = suite_limits(Ranks(2, 2), max_len=0, seed=seed)
        assert report.passed, (seed, report.failures)


def test_limits_builds_each_input_once(monkeypatch):
    """One limits run builds one limit table, one localized table and two speed
    points: the convergence check reads the suite's limit table and builds its
    points before the slot-pair loop."""
    calls = {"limit_table": 0, "localized_forms": 0, "with_values": 0}

    def counted(name, build):
        def wrapper(*args):
            calls[name] += 1
            return build(*args)

        return wrapper

    for name in ("limit_table", "localized_forms"):
        monkeypatch.setattr(suites, name, counted(name, getattr(suites, name)))
    monkeypatch.setattr(PointAssignment, "with_values", counted("with_values", PointAssignment.with_values))
    report = suite_limits(Ranks(3, 3), max_len=2)
    assert report.passed
    assert calls == {"limit_table": 1, "localized_forms": 1, "with_values": 2}


def test_limits_reports_a_wrong_block_limit(monkeypatch):
    """A wrong block limit fails its one check, naming the block's slots, the
    fixed point and the limit's form."""
    build = suites.limit_table

    def perturbed(ranks, order):
        table = build(ranks, order)
        table.weights[(1, 0, 1, 2)] = table.weight(1, 0, 1, 2) * FactoredForm([(Monomial.var(T1), 1)])
        return table

    monkeypatch.setattr(suites, "limit_table", perturbed)
    report = suite_limits(ranks=Ranks(1, 1), max_len=2)
    assert report.checks == 158
    assert report.failures == ["limit of block (21,11) at (2|1) is t2^2*(1 - t1) != t2^2"]


def test_oracle_reports_trivial_plane_weight(monkeypatch):
    """A trivial weight in a diagonal tangent block fails the check of each
    tuple that holds it, naming the tuple, instead of raising."""
    invariants = oracle.block_invariants

    def perturbed(key):
        rank, trivial, taut_rank = invariants(key)
        a, b, lam_a, _ = key
        return rank, trivial + (a == b == 0 and sum(lam_a) == 1), taut_rank

    monkeypatch.setattr(oracle, "block_invariants", perturbed)
    report = suite_oracle(ranks_list=(Ranks(3, 0),), order=1, num_points=1)
    assert report.checks == 9
    assert report.failures == ["plane tangent at ([1]|[]|[]) has a trivial weight"]


def test_oracle_reports_failing_tuples_of_one_degree_in_order(monkeypatch):
    """Two diagram tuples of one degree that differ in a slot before the last
    fail in ``partition_tuples`` order, ``[2]`` before ``[1,1]``."""
    invariants = oracle.block_invariants

    def perturbed(key):
        rank, trivial, taut_rank = invariants(key)
        a, b, lam_a, _ = key
        return rank, trivial + (a == b == 0 and sum(lam_a) == 2), taut_rank

    monkeypatch.setattr(oracle, "block_invariants", perturbed)
    report = suite_oracle(ranks_list=(Ranks(2, 0),), order=2, num_points=1)
    assert report.checks == 17
    assert report.failures == [
        "plane tangent at ([2]|[]) has a trivial weight",
        "plane tangent at ([1,1]|[]) has a trivial weight",
    ]


def test_oracle_reports_a_wrong_insertion_rank(monkeypatch):
    """The insertion's rank is read off the diagram character its weights are built
    from, so a character that lost a box of ``(2,)`` fails the rank check at ``[2]``."""
    diagram_char = oracle.diagram_char

    def dropped(parts):
        char = diagram_char(parts)
        return char - Character.from_monomial(Monomial.var(T1)) if parts == (2,) else char

    monkeypatch.setattr(oracle, "diagram_char", dropped)
    oracle.pair_tangent.cache_clear()
    try:
        report = suite_oracle(ranks_list=(Ranks(1, 0),), order=2, num_points=1)
    finally:
        oracle.pair_tangent.cache_clear()
    assert "tautological character at ([2]) has rank 1 != 2" in report.failures


def test_smooth_chi_y_rejects_positive_r1():
    """The smooth tangent character is defined only for ``r1 = 0``."""
    with pytest.raises(ValueError):
        suite_smooth_chi_y(ranks_list=(Ranks(1, 1),))


def test_no_twist_reports_wrong_det(monkeypatch):
    """A block det off by ``t1`` fails every det check, naming the fixed
    point, the det and the expected monomial."""
    det = Character.det
    monkeypatch.setattr(Character, "det", lambda block: det(block) * Monomial.var(T1))
    report = suite_no_twist(det_ranks=(Ranks(1, 1),), det_len=1, ranks_list=())
    assert report.checks == 3 and len(report.failures) == 3
    assert report.failures[0] == "det tangent at (0|0) is t1^4 != 1"
    assert report.failures[1] == "det tangent at (1|0) is t1^5*t2 != t1*t2"


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


def test_factorization_redraws_the_whole_point_on_a_pole(monkeypatch):
    """A pole in the first limit-table evaluation rejects the whole point,
    ``t`` values included: the next full point of the stream is used for
    all three checks, and the suite passes with its usual 27 checks."""
    limit_tables, seen = [], []

    def recording_limit_table(*args):
        limit_tables.append(limit_table(*args))
        return limit_tables[-1]

    def eval_forms(table, point):
        seen.append(point)
        if table is limit_tables[0] and len(seen) == 1:
            raise PoleAtPoint("forced")
        return evaluate(table, point)

    limit_table, evaluate = suites.limit_table, suites.eval_forms
    monkeypatch.setattr(suites, "limit_table", recording_limit_table)
    monkeypatch.setattr(suites, "eval_forms", eval_forms)
    report = suite_factorization()
    assert report.passed and report.checks == 27
    ranks = suites.FACTORIZATION_RANKS[0]
    stream = rational_stream(1)
    first, second = (draw_point(ranks.variables(), stream) for _ in range(2))
    assert seen[0].items() == first.items()
    assert seen[1].items() == seen[2].items() == second.items()


def test_one_slot_shift_serves_both_q_shift_sides(monkeypatch):
    """A wrong first slot shift fails the factorized product and the q-shift
    bookkeeping alike: both read ``limits.slot_shifts``."""
    build = limits.slot_shifts

    def wrong_first(ranks):
        return (Monomial.one(),) + build(ranks)[1:]

    monkeypatch.setattr(limits, "slot_shifts", wrong_first)
    monkeypatch.setattr(suites, "slot_shifts", wrong_first)
    report = suite_factorization(ranks_list=(Ranks(2, 1),), order=2, num_points=1)
    assert report.checks == 3 and len(report.failures) == 1
    assert report.failures[0].startswith("factorized-product r=2,1: q^1 differs")
    report = suite_limits(Ranks(2, 1), max_len=1)
    assert not report.passed
    assert all(f.startswith("q-shift bookkeeping fails at") for f in report.failures)
