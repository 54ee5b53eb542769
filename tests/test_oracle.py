"""The affine-plane Quot scheme cross-check."""

import pytest

from quotloc.chars import Character, Monomial, T1, T2, k_euler, w_var
from quotloc.oracle import (
    Partition,
    PartitionTuple,
    oracle_contribution,
    oracle_forms,
    partition_tuples,
    partitions,
    plane_q_char,
    plane_tvir,
    taut_char,
)
from quotloc.points import seeded_point
from quotloc.series import eval_forms, localized_forms
from quotloc.vertex import Ranks

t1 = Monomial.var(T1)
t2 = Monomial.var(T2)
w11 = Monomial.var(w_var(1, 1))


def tuple_of(ranks, *parts):
    return PartitionTuple(ranks, tuple(Partition(p) for p in parts))


class TestPartitions:
    def test_counts(self):
        # independent oracle: Euler's generating function for p(n)
        def p_series(order):
            coeffs = [1] + [0] * order
            for k in range(1, order + 1):
                for n in range(k, order + 1):
                    coeffs[n] += coeffs[n - k]
            return coeffs

        expected = p_series(9)
        for n in range(10):
            assert len(partitions(n)) == expected[n]

    def test_shape(self):
        assert [p.parts for p in partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
        for n in range(8):
            for p in partitions(n):
                assert p.size == n
                assert all(a >= b for a, b in zip(p.parts, p.parts[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((0,))

    def test_boxes(self):
        assert list(Partition((2,)).boxes()) == [(0, 0), (1, 0)]
        assert list(Partition((1, 1)).boxes()) == [(0, 0), (0, 1)]
        assert list(Partition((2, 1)).boxes()) == [(0, 0), (1, 0), (0, 1)]


class TestPartitionTuples:
    def test_counts(self):
        assert len(partition_tuples(Ranks(1, 0), 3)) == 3
        assert len(partition_tuples(Ranks(1, 1), 2)) == 5
        assert len(partition_tuples(Ranks(2, 0), 0)) == 1

    def test_count_generating_function(self):
        # coefficient of q^n in prod (1-q^k)^(-r)
        def tuple_count(r, order):
            coeffs = [1] + [0] * order
            for _ in range(r):
                for k in range(1, order + 1):
                    for n in range(k, order + 1):
                        coeffs[n] += coeffs[n - k]
            return coeffs

        for r1, r2 in ((1, 1), (2, 1), (3, 0)):
            expected = tuple_count(r1 + r2, 5)
            for n in range(6):
                assert len(partition_tuples(Ranks(r1, r2), n)) == expected[n]

    def test_total_size(self):
        for tup in partition_tuples(Ranks(2, 1), 4):
            assert tup.size == 4


class TestPlaneCharacters:
    def test_single_box(self):
        tup = tuple_of(Ranks(1, 0), (1,))
        assert plane_q_char(tup) == Character.from_monomial(w11)

    def test_row_and_column(self):
        row = tuple_of(Ranks(1, 0), (2,))
        assert plane_q_char(row) == Character([(w11, 1), (w11 * t1, 1)])
        col = tuple_of(Ranks(1, 0), (1, 1))
        assert plane_q_char(col) == Character([(w11, 1), (w11 * t2, 1)])

    def test_tangent_single_box(self):
        tup = tuple_of(Ranks(1, 0), (1,))
        expect = Character(
            [(t1.inverse(), 1), (t2.inverse(), 1), ((t1 * t2).inverse(), -1)]
        )
        assert plane_tvir(tup) == expect

    def test_tangent_rank_bookkeeping(self):
        for r1, r2 in ((1, 0), (1, 1), (2, 1)):
            ranks = Ranks(r1, r2)
            for n in range(5):
                for tup in partition_tuples(ranks, n):
                    tvir = plane_tvir(tup)
                    assert tvir.rank() == ranks.total * n
                    assert not tvir.trivial_coefficient()

    def test_empty_tuple(self):
        tup = tuple_of(Ranks(1, 1), (), ())
        assert plane_tvir(tup).is_zero
        assert taut_char(tup).is_zero


class TestTautChar:
    def test_rank_one_single_box(self):
        tup = tuple_of(Ranks(1, 0), (1,))
        assert taut_char(tup) == Character.from_monomial(t1.inverse())

    def test_two_framing_summands(self):
        tup = tuple_of(Ranks(1, 1), (), (1,))
        w21 = Monomial.var(w_var(2, 1))
        expect = Character(
            [(t2.inverse(), 1), (w11.inverse() * t1.inverse() * w21, 1)]
        )
        assert taut_char(tup) == expect

    def test_rank(self):
        for tup in partition_tuples(Ranks(2, 1), 3):
            assert taut_char(tup).rank() == 9

    def test_insertion_weight_zero_exactly_on_trivial_weight(self):
        """The insertion weight is the zero class exactly when the
        tautological character picks up a trivial weight, which happens for
        diagrams with a box one step along the twisted axis (the fixed
        points off the embedded zero locus); those terms contribute 0 and
        the oracle equality holds regardless."""
        seen_zero = False
        for n in range(4):
            for tup in partition_tuples(Ranks(2, 1), n):
                taut = taut_char(tup)
                is_zero = k_euler(taut).is_zero
                assert is_zero == bool(taut.trivial_coefficient())
                seen_zero = seen_zero or is_zero
        assert seen_zero  # e.g. the tuple ((3,), (), ())

    def test_single_boxes_never_vanish(self):
        for tup in partition_tuples(Ranks(2, 1), 1):
            assert not k_euler(taut_char(tup)).is_zero


class TestOracleEquality:
    def test_rank_one_weight(self):
        tup = tuple_of(Ranks(1, 0), (1,))
        from quotloc.chars import FactoredForm

        got = oracle_contribution(tup)
        # (1-t1) * (1-t1t2)/((1-t1)(1-t2)) = (1-t1t2)/(1-t2)
        assert got == FactoredForm([(t1 * t2, 1), (t2, -1)])

    @pytest.mark.parametrize(
        "r1,r2", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)]
    )
    def test_matches_line_localization(self, r1, r2):
        ranks = Ranks(r1, r2)
        plane, lines = oracle_forms(ranks, 3), localized_forms(ranks, 3)
        for seed in (3, 17, 2024):
            point = seeded_point(ranks.variables(), seed)
            assert eval_forms(plane, point) == eval_forms(lines, point)
