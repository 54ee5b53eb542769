"""The affine-plane Quot scheme cross-check."""

from collections import Counter
from math import comb

import pytest

from quotloc.chars import Character, Monomial, T1, T2, k_euler, w_var
from quotloc.oracle import (
    PartitionTuple,
    diagram_char,
    oracle_contribution,
    oracle_forms,
    pair_tangent,
    partition_tuples,
    partitions,
    plane_invariants,
    plane_q_char,
    plane_tvir,
    taut_char,
)
from quotloc.points import seeded_point
from quotloc.series import BlockTable, eval_forms, localized_forms
from quotloc.suites import ranks_up_to
from quotloc.vertex import Ranks

t1 = Monomial.var(T1)
t2 = Monomial.var(T2)
w11 = Monomial.var(w_var(1, 1))


def tuple_of(ranks, *parts):
    return PartitionTuple(ranks, tuple(parts))


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
        assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
        assert partitions(0) == ((),)
        for n in range(8):
            for p in partitions(n):
                assert all(part > 0 for part in p)
                assert all(a >= b for a, b in zip(p, p[1:]))
                assert sum(p) == n
        # strictly decreasing lexicographically: the report order of ``verify oracle``
        for n in range(13):
            assert partitions(n) == tuple(sorted(set(partitions(n)), reverse=True))

    def test_boxes(self):
        def boxes(*exponents):
            return Character((Monomial([(T1, a), (T2, b)]), 1) for a, b in exponents)

        assert diagram_char((2,)) == boxes((0, 0), (1, 0))
        assert diagram_char((1, 1)) == boxes((0, 0), (0, 1))
        assert diagram_char((2, 1)) == boxes((0, 0), (1, 0), (0, 1))


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

    def test_order(self):
        """The first slot's size descending, then recursively: not size-major,
        which would list ``((2,), (1,), ())`` before ``((1, 1), (), (1,))``."""
        assert [t.diagrams for t in partition_tuples(Ranks(2, 1), 3)] == [
            ((3,), (), ()),
            ((2, 1), (), ()),
            ((1, 1, 1), (), ()),
            ((2,), (1,), ()),
            ((2,), (), (1,)),
            ((1, 1), (1,), ()),
            ((1, 1), (), (1,)),
            ((1,), (2,), ()),
            ((1,), (1, 1), ()),
            ((1,), (1,), (1,)),
            ((1,), (), (2,)),
            ((1,), (), (1, 1)),
            ((), (3,), ()),
            ((), (2, 1), ()),
            ((), (1, 1, 1), ()),
            ((), (2,), (1,)),
            ((), (1, 1), (1,)),
            ((), (1,), (2,)),
            ((), (1,), (1, 1)),
            ((), (), (3,)),
            ((), (), (2, 1)),
            ((), (), (1, 1, 1)),
        ]

    def test_total_size(self):
        for tup in partition_tuples(Ranks(2, 1), 4):
            assert tup.size == 4

    def test_print_form(self):
        assert str(tuple_of(Ranks(2, 1), (2, 1), (), (1,))) == "([2,1]|[]|[1])"


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
                is_zero = k_euler(taut) is None
                assert is_zero == bool(taut.trivial_coefficient())
                assert (oracle_contribution(tup) is None) == is_zero
                seen_zero = seen_zero or is_zero
        assert seen_zero  # e.g. the tuple ((3,), (), ())

    def test_single_boxes_never_vanish(self):
        for tup in partition_tuples(Ranks(2, 1), 1):
            assert k_euler(taut_char(tup)) is not None


class TestOracleEquality:
    def test_rank_one_weight(self):
        tup = tuple_of(Ranks(1, 0), (1,))
        from quotloc.chars import FactoredForm

        got = oracle_contribution(tup)
        # (1-t1) * (1-t1t2)/((1-t1)(1-t2)) = (1-t1t2)/(1-t2)
        assert got == FactoredForm([(t1 * t2, 1), (t2, -1)])

    def test_block_keys_are_builtin_tuples(self):
        """A block key is ``(a, b, lam_a, lam_b)`` with each diagram a tuple of ints."""
        ranks = Ranks(2, 1)
        table = oracle_forms(ranks, 3)
        eval_forms(table, seeded_point(ranks.variables(), 3))
        assert len(table.weights) > 9
        for a, b, lam_a, lam_b in table.weights:
            assert type(a) is int and type(b) is int
            assert all(type(lam) is tuple and all(type(p) is int for p in lam) for lam in (lam_a, lam_b))

    def test_pair_tangent_is_built_once_per_process(self):
        """A second table of the same order builds no diagram pair's ``P`` again: an
        order-4 table has 46 pairs, 38 with sizes summing to at most 4 and 8 diagonal
        ones ``(lam, lam)`` of size 3 or 4.  Each diagram's box character is built once."""
        pair_tangent.cache_clear()
        diagram_char.cache_clear()
        misses, diagrams = [], set()
        for ranks in (Ranks(2, 1), Ranks(1, 2)):
            for tup, _, _ in plane_invariants(oracle_forms(ranks, 4)):
                diagrams.update(tup)
            misses.append(pair_tangent.cache_info().misses)
        assert misses == [46, 46]
        assert diagram_char.cache_info().misses == len(diagrams) == 12

    @pytest.mark.parametrize(
        "r1,r2", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)]
    )
    def test_matches_line_localization(self, r1, r2):
        ranks = Ranks(r1, r2)
        plane, lines = oracle_forms(ranks, 3), localized_forms(ranks, 3)
        for seed in (3, 17, 2024):
            point = seeded_point(ranks.variables(), seed)
            assert eval_forms(plane, point) == eval_forms(lines, point)


class TestZeroClass:
    """Only a diagonal block can be the zero class, and the fold builds and
    evaluates no block of a tuple it kills."""

    @pytest.mark.parametrize("ranks", ranks_up_to(3), ids=str)
    def test_none_exactly_on_diagonal_boxes_t_i(self, ranks):
        """Every key an order-4 fold can read (diagrams of size <= 4, sizes summing to
        at most 4 off the diagonal): block ``(a, b, lam_a, lam_b)`` is ``None`` exactly
        when ``a == b`` and ``lam_a`` holds the box ``t_i``, ``i`` the line of slot ``a``
        (box ``(1, 0)`` for ``t1``, ``(0, 1)`` for ``t2``).  The surviving tuples of
        degree ``n`` then number ``C(n + r - 1, r - 1)``, as the broken-line fixed
        points do."""
        table = oracle_forms(ranks, 4)
        diagrams = [lam for n in range(5) for lam in partitions(n)]
        for a, (i, _) in enumerate(ranks.slots()):
            for lam in diagrams:
                holds_t_i = bool(lam) and lam[0] > 1 if i == 1 else len(lam) > 1
                assert (table.weight(a, a, lam, lam) is None) == holds_t_i
                for b in range(ranks.total):
                    for mu in diagrams:
                        if b != a and sum(lam) + sum(mu) <= 4:
                            assert table.weight(a, b, lam, mu) is not None
        folded = table.fold(lambda w: w, lambda acc, _: acc, None)
        sizes = Counter(size for _, size, _ in folded)
        r = ranks.total
        assert [sizes[n] for n in range(5)] == [comb(n + r - 1, r - 1) for n in range(5)]

    @pytest.mark.parametrize("ranks", ranks_up_to(3), ids=str)
    def test_eval_builds_only_blocks_of_surviving_tuples(self, ranks):
        """After one evaluation the non-``None`` weights built are exactly the blocks
        of the tuples the tree yields, which are the tree's keys, each listed once."""
        table = oracle_forms(ranks, 5)
        eval_forms(table, seeded_point(ranks.variables(), 5))
        keys, nodes = table.tree
        path, survivors = [None] * ranks.total, []
        for k, _, size, state in nodes:
            path[k] = state
            if size is not None:
                survivors.append(tuple(path))
        built = {key for key, w in table.weights.items() if w is not None}
        r = range(ranks.total)
        assert built == {(a, b, tup[a], tup[b]) for tup in survivors for a in r for b in r}
        assert len(keys) == len(set(keys)) and set(keys) == built

    @pytest.mark.parametrize("ranks", ranks_up_to(3), ids=str)
    def test_plane_invariants_yield_every_tuple(self, ranks):
        """``plane_invariants`` reads no table weight and yields every diagram tuple,
        the zero class included, degree by degree in ``partition_tuples`` order."""
        table = oracle_forms(ranks, 4)
        leaves = list(plane_invariants(table))
        assert [(n, d) for d, n, _ in leaves] == [
            (n, tup.diagrams) for n in range(5) for tup in partition_tuples(ranks, n)
        ]
        assert not table.weights

    def test_plane_invariants_build_no_block_table(self, monkeypatch):
        """The invariants scan the diagram tuples of the table's slots, order and
        states themselves: no second table over every tuple."""
        ranks, built, init = Ranks(2, 1), [], BlockTable.__init__
        table = oracle_forms(ranks, 4)
        monkeypatch.setattr(BlockTable, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        tuples = sum(len(partition_tuples(ranks, n)) for n in range(5))
        assert sum(1 for _ in plane_invariants(table)) == tuples and built == []
