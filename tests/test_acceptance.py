"""Acceptance gate: the eleven structural criteria, each run at its stated
scale with exact (zero-tolerance) comparisons.

Every test prints one pass/fail line; run with ``pytest -s`` to see them
inline, or read the captured output after ``pytest -v``.
"""

import time

from quotloc.suites import (
    suite_bar_involution,
    suite_closed_form,
    suite_cohomological,
    suite_cy_vanishing,
    suite_diagonal_blocks,
    suite_euler_count,
    suite_euler_multiplicativity,
    suite_factorization,
    suite_framing,
    suite_limits,
    suite_no_twist,
    suite_oracle,
    suite_rank1_product,
    suite_smooth_chi_y,
    suite_vertex_properties,
)


def _timed(number, name, expected_checks, *suite_calls):
    start = time.monotonic()
    reports = [call() for call in suite_calls]
    elapsed = time.monotonic() - start
    checks = sum(r.checks for r in reports)
    failures = [f for r in reports for f in r.failures]
    status = "PASS" if not failures and checks == expected_checks else "FAIL"
    print(f"criterion {number:2d} {name:<24s} {status}  ({checks} checks, {elapsed:.2f}s)")
    assert not failures, failures[:3]
    assert checks == expected_checks


def test_criterion_01_closed_form_equality():
    """Localized = closed form, six rank pairs, order 6, five points each."""
    _timed(1, "closed-form", 30, lambda: suite_closed_form(order=6, num_points=5))


def test_criterion_02_rank_one_product():
    """Product formula = closed form through order 8."""
    _timed(2, "rank1-product", 5, lambda: suite_rank1_product(order=8))


def test_criterion_03_framing_independence():
    """Rank (2,2), order 5: three framing assignments, identical vectors."""
    _timed(3, "framing", 2, lambda: suite_framing(order=5, num_assignments=3))


def test_criterion_04_factorization_and_limits():
    """Limit-calculus series = closed form (order 4) and the two symbolic
    block limits for all sizes up to 5."""
    _timed(
        4,
        "factorization+limits",
        27 + 1367,
        lambda: suite_factorization(order=4),
        lambda: suite_limits(max_len=5),
    )


def test_criterion_05_plane_oracle():
    """Plane Quot scheme recomputation, total rank <= 3, order 4, 3 points."""
    _timed(5, "plane-oracle", 991, lambda: suite_oracle(order=4, num_points=3))


def test_criterion_06_half_weight_twist():
    """Determinant twist monomial (rank <= 4, size <= 5) and twisted series
    equality (order 5, five u-points)."""
    _timed(6, "half-weight-twist", 944, lambda: suite_no_twist(det_len=5, order=5, num_points=5))


def test_criterion_07_cohomological_limit():
    """Cohomological residues = binomial series, order 4, five points."""
    _timed(7, "cohomological", 15, lambda: suite_cohomological(order=4, num_points=5))


def test_criterion_08_euler_characteristics():
    """Fixed-point counts = binomial coefficients, rank <= 4, size <= 10."""
    _timed(8, "euler-count", 154, lambda: suite_euler_count(max_len=10))


def test_criterion_09_cy_vanishing():
    """Every weight vanishes along t1 t2 = 1 and the first-order terms match
    the closed form, rank <= 3, sizes 1..5, 3 rest points."""
    _timed(9, "cy-vanishing", 135, lambda: suite_cy_vanishing(max_len=5, num_seeds=3))


def test_criterion_10_smooth_case_identity():
    """One-line tangent identity, rank <= 3, size <= 5, symbolically."""
    _timed(10, "smooth-chi-y", 83, lambda: suite_smooth_chi_y(max_len=5))


def test_criterion_11_property_batteries():
    """Structural properties, each over at least 100 generated instances:
    rank-0 / block-sum / movability / framing balance of vertex terms,
    diagonal-block closed form, bar involution, Euler multiplicativity."""
    _timed(
        11,
        "property-batteries",
        400 + 18 + 200 + 100,
        lambda: suite_vertex_properties(count=100),
        lambda: suite_diagonal_blocks(max_len=8),
        lambda: suite_bar_involution(count=100),
        lambda: suite_euler_multiplicativity(count=100),
    )
