"""The pairwise block engine against the per-fixed-point reference sums.

Every localized sum is a ``BlockTable``, built once per rank pair and
evaluated through ``eval_forms``; the references rebuild each fixed
point's whole character (``vertex_term``, ``plane_tvir``, ``taut_char``) and
evaluate its weight.  At generic points both sides give the same series; at
degenerate points they give the same series or both raise ``PoleAtPoint``.
The symbolic invariants folded over a table's blocks (ranks, trivial
coefficient, det) equal those of the whole characters.

The references evaluate weights in ``Fraction`` straight from the point's
coordinates (``fraction_eval``), not through the integer pairs of
``eval_pair``, and a property test holds ``eval_point`` to that evaluator.
"""

import functools
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from quotloc.chars import (
    T1,
    T2,
    U1,
    U2,
    FactoredForm,
    Monomial,
    PoleAtPoint,
    pair_value,
)
from quotloc.limits import framing_limit, limit_table
from quotloc.oracle import (
    oracle_contribution,
    oracle_forms,
    partition_tuples,
    plane_invariants,
    plane_tvir,
    taut_char,
)
from quotloc.points import LinearPoint, PointAssignment, seeded_point
from quotloc.rational import rational
from quotloc.series import (
    BlockTable,
    DiagonalPoint,
    QSeries,
    coh_variables,
    cy_first_order,
    cy_order,
    degree_sums,
    eval_forms,
    half_weight_twist,
    line_table,
    localized_forms,
    twisted_point,
)
from quotloc.suites import ranks_up_to, suite_cy_vanishing
from quotloc.vertex import Ranks, contribution, fixed_points, line_states, slot_states, vertex_term

from strategies import VARS, monomials, nonzero_rationals

S1, S2 = ("s", 1), ("s", 2)
LINEAR_KIND = {"t": "s", "w": "v"}


def fraction(q):
    return Fraction(int(q.numerator), int(q.denominator))


def fraction_monomial(point, m):
    """``m(p)`` in ``Fraction``, from ``point.value``; ``1 + mu . s`` at a
    :class:`LinearPoint`."""
    if isinstance(point, LinearPoint):
        return 1 + sum(
            (e * fraction(point.value((LINEAR_KIND[v[0]],) + v[1:])) for v, e in m.exponents()),
            start=Fraction(0),
        )
    return math.prod((fraction(point.value(v)) ** e for v, e in m.exponents()), start=Fraction(1))


def fraction_eval(weight, point):
    """A weight's value at a point, multiplying ``(1 - m(p))^c`` in ``Fraction``
    onto its monomial's value; a vanishing factor with ``c < 0`` raises
    ``PoleAtPoint`` whatever else vanishes.  The zero class ``None`` is 0."""
    if weight is None:
        return Fraction(0)
    values = [(1 - fraction_monomial(point, m), c) for m, c in weight.factors()]
    if any(not f and c < 0 for f, c in values):
        raise PoleAtPoint("a denominator factor vanishes")
    return math.prod((f**c for f, c in values), start=fraction_monomial(point, weight.monomial))


def same(point):
    return point


def reference_sum(order, items, weight, at=same, twist=lambda n: Monomial.one()):
    """The reference series as a function of the point: every fixed point's
    whole weight is built once and evaluated at ``at(point)``; degree ``n``
    is multiplied by ``twist(n)`` at the point itself."""
    forms = [[weight(x) for x in items(n)] for n in range(order + 1)]

    def series(point):
        here = at(point)
        return QSeries(
            sum((fraction_eval(f, here) for f in fs), start=Fraction(0))
            * fraction_monomial(point, twist(n))
            for n, fs in enumerate(forms)
        )

    return series


def ref_localized(ranks, order):
    return reference_sum(order, lambda n: fixed_points(ranks, n), contribution)


def ref_oracle(ranks, order):
    return reference_sum(order, lambda n: partition_tuples(ranks, n), oracle_contribution)


def ref_twisted(ranks, order):
    twist = lambda n: half_weight_twist(ranks) ** n
    return reference_sum(
        order, lambda n: fixed_points(ranks, n), contribution, twisted_point, twist
    )


def ref_cohomological(ranks, order):
    return reference_sum(
        order, lambda n: fixed_points(ranks, n), contribution, PointAssignment.linearized
    )


def ref_limits(ranks, order):
    """The framing limit of each fixed point's whole weight."""
    weight = lambda bn: framing_limit(contribution(bn))
    return reference_sum(order, lambda n: fixed_points(ranks, n), weight)


def evaluated(builder, at=same):
    """The engine side of a sum: its table, built once, evaluated through
    ``eval_forms`` at ``at(point)``."""

    def sum_at(ranks, order):
        table = builder(ranks, order)
        return lambda point: eval_forms(table, at(point))

    return sum_at


def twisted_sum(ranks, order):
    untwisted = evaluated(localized_forms, twisted_point)(ranks, order)
    twist = half_weight_twist(ranks)
    return lambda point: untwisted(point).scale_q(pair_value(*point.monomial_pair(twist)))


def plane_vars(ranks):
    return ranks.variables()


def twisted_vars(ranks):
    return (U1, U2) + ranks.w_vars()


def limit_vars(ranks):
    return (T1, T2)


# name: (engine, reference, variables, the two torus variables, framing kind)
SUMS = {
    "localized": (evaluated(localized_forms), ref_localized, plane_vars, (T1, T2), "w"),
    "oracle": (evaluated(oracle_forms), ref_oracle, plane_vars, (T1, T2), "w"),
    "twisted": (twisted_sum, ref_twisted, twisted_vars, (U1, U2), "w"),
    "cohomological": (
        evaluated(localized_forms, PointAssignment.linearized),
        ref_cohomological, coh_variables, (S1, S2), "v",
    ),
    "limits": (evaluated(limit_table), ref_limits, limit_vars, (T1, T2), None),
}


def outcome(fn):
    try:
        return fn()
    except PoleAtPoint:
        return "pole"


@pytest.mark.parametrize("name", sorted(SUMS))
def test_engine_equals_reference_at_seeded_points(name):
    engine, reference, variables = SUMS[name][:3]
    order = 3 if name == "oracle" else 4
    for ranks in ranks_up_to(3):
        point = seeded_point(variables(ranks), 40 + ranks.total)
        assert engine(ranks, order)(point) == reference(ranks, order)(point), ranks


def degenerate_points(name, ranks):
    """``t1 t2 = 1``, ``w11 = w12`` and ``w11 = t1 w21`` (on the first two
    slots), then random points with every value drawn from a five-element
    set, so that coincidences are frequent.  In cohomology the relations are
    linear (``s1 + s2 = 0``, ``v = s1 + v'``); in ``u`` variables ``t = u^2``."""
    _, _, variables, (x1, x2), kind = SUMS[name]
    coh = kind == "v"
    base = seeded_point(variables(ranks), 7)
    inverse = rational(-2, 3) if coh else rational(3, 2)  # of x1 = 2/3
    yield base.with_values({x1: rational(2, 3), x2: inverse})
    slots = ranks.slots()
    if kind and len(slots) >= 2:
        wa, wb = ((kind,) + slot for slot in slots[:2])
        yield base.with_values({wa: base.value(wb)})
        t1, w = base.value(x1), base.value(wb)
        yield base.with_values({wa: t1 + w if coh else t1 ** (2 if x1 == U1 else 1) * w})
    pool = [rational(2, 3), inverse, rational(2), rational(1, 2), rational(-1)]
    rng = random.Random(ranks.total * 10 + ranks.r1)
    for _ in range(2):
        yield PointAssignment({v: rng.choice(pool) for v in variables(ranks)})


@pytest.mark.parametrize("name", sorted(SUMS))
def test_engine_matches_reference_at_degenerate_points(name):
    engine, reference = SUMS[name][:2]
    order = 3
    poles = cases = 0
    for ranks in ranks_up_to(3):
        engine_at, reference_at = engine(ranks, order), reference(ranks, order)
        for point in degenerate_points(name, ranks):
            got = outcome(lambda: engine_at(point))
            want = outcome(lambda: reference_at(point))
            assert got == want, (ranks, point)
            cases += 1
            poles += want == "pole"
    assert 0 < poles < cases


POOL = st.sampled_from([rational(1), rational(-1)])
LINEAR_VARS = tuple((LINEAR_KIND[v[0]],) + v[1:] for v in VARS)


def assignments(variables, values):
    return st.fixed_dictionaries({v: values for v in variables}).map(PointAssignment)


# values from a small pool make factors vanish often; the other values range
# over both signs
POINTS = st.one_of(
    st.integers(0, 2**32).map(lambda seed: seeded_point(VARS, seed)),
    assignments(VARS, POOL),
    assignments(VARS, nonzero_rationals()),
    assignments(LINEAR_VARS, POOL).map(PointAssignment.linearized),
    assignments(LINEAR_VARS, nonzero_rationals()).map(PointAssignment.linearized),
)
MULTIPLICITIES = st.sampled_from((-3, -2, -1, 1, 2, 3))
FORMS = st.builds(
    FactoredForm,
    st.lists(st.tuples(monomials(-3, 3, allow_trivial=False), MULTIPLICITIES), max_size=6),
    st.one_of(st.just(Monomial.one()), monomials(-3, 3)),
)


def same_outcome(form, point):
    got = outcome(lambda: form.eval_point(point))
    want = outcome(lambda: fraction_eval(form, point))
    assert got == want
    return want


@given(FORMS, POINTS)
@settings(max_examples=300)
def test_eval_point_equals_fraction_reference(form, point):
    """``eval_point`` (integer pairs, one normalisation) equals the
    ``Fraction`` evaluator, and raises ``PoleAtPoint`` exactly when it does."""
    want = same_outcome(form, point)
    event("pole" if want == "pole" else "zero" if not want else "nonzero")


@pytest.mark.parametrize("numerator_first", [True, False])
def test_pole_wins_over_a_vanishing_numerator_factor(numerator_first):
    """A form with a vanishing numerator factor and a vanishing denominator
    factor has a pole, whichever factor comes first; without the denominator
    factor it is 0."""
    t1, w11 = Monomial.var(T1), Monomial.var(("w", 1, 1))
    cases = (
        ([(t1, 2), (w11, -1)], PointAssignment({T1: rational(1), ("w", 1, 1): rational(1)})),
        (
            [(t1 * Monomial.var(T2), 1), (t1 * w11.inverse(), -2)],
            PointAssignment({S1: rational(2), S2: rational(-2), ("v", 1, 1): rational(2)}).linearized(),
        ),
    )
    for factors, point in cases:
        numerator, denominator = factors
        ordered = [numerator, denominator] if numerator_first else [denominator, numerator]
        assert same_outcome(FactoredForm(ordered), point) == "pole"
        assert same_outcome(FactoredForm([numerator]), point) == 0


LEAF_PAIRS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool)),
    max_size=40,
)


@given(LEAF_PAIRS)
def test_degree_sums_equal_the_fraction_sums(leaves):
    """The streamed pairwise sum of unreduced pairs equals the ``Fraction`` sum of
    each degree, zero numerators and signed denominators included, for any count of
    leaves (a count that is not a power of two leaves a ragged stack)."""
    want = [sum((Fraction(n, d) for size, n, d in leaves if size == k), Fraction(0)) for k in range(3)]
    assert degree_sums([(None, size, (n, d)) for size, n, d in leaves], 2) == want
    event("ragged" if len(leaves) & (len(leaves) - 1) else "a power of two or none")


def two_slot_table(specials):
    """A two-slot table of order 2 whose block ``key`` is ``specials[key]`` and
    otherwise ``(1 - t2)``; degree 2 has the leaves ``(2, 0)``, ``(1, 1)``, ``(0, 2)``."""
    t1, t2 = Monomial.var(T1), Monomial.var(T2)
    forms = {"pole": FactoredForm([(t1, -1)]), "zero": FactoredForm([(t1, 1)])}
    block = lambda *key: forms.get(specials.get(key), FactoredForm([(t2, 1)]))
    return BlockTable(2, 2, line_states, block)


POLE_CASES = {  # the specials of each case, and whether degree 2 has a pole at t1 = 1
    "one pole among nonzero leaves": ({(0, 0, 2, 2): "pole"}, True),
    "two poles": ({(0, 0, 2, 2): "pole", (1, 1, 2, 2): "pole"}, True),
    "three poles": ({(0, 0, 2, 2): "pole", (1, 1, 2, 2): "pole", (0, 1, 1, 1): "pole"}, True),
    "a zero leaf": ({(0, 1, 1, 1): "zero"}, False),
    "a pole beside a zero leaf": ({(0, 1, 1, 1): "zero", (1, 1, 2, 2): "pole"}, True),
}


@pytest.mark.parametrize("case", sorted(POLE_CASES))
def test_a_pole_leaf_makes_its_degree_a_pole(case):
    """A degree with one ``d == 0`` leaf among nonzero ones, or with several (where
    ``gcd(0, 0) == 0``), raises ``PoleAtPoint`` through ``degree_sums`` and
    ``eval_forms``, never ``ZeroDivisionError``; a leaf with ``n == 0`` sums as 0."""
    specials, pole = POLE_CASES[case]
    table = two_slot_table(specials)
    point = PointAssignment({T1: rational(1), T2: rational(2, 3)})
    leaves = list(table.pairs(point))
    for kind, vanishes in (("pole", lambda n, d: not d), ("zero", lambda n, d: not n)):
        assert sum(vanishes(*p) for _, _, p in leaves) == sum(v == kind for v in specials.values())
    want = "pole" if pole else [sum(pair_value(*p) for _, size, p in leaves if size == k) for k in range(3)]
    assert outcome(lambda: degree_sums(leaves, 2)) == want
    assert outcome(lambda: eval_forms(table, point)) == (want if pole else QSeries(want))


def folded_once(table, value, combine, start, items):
    """``table.fold`` as a map ``states -> acc``, after checking that its
    leaves are the elements of ``items(0), items(1), ...`` (the ``slot_states``
    order), each once, at its degree, in that order."""
    folded = table.fold(value, combine, start)
    got = [(size, states) for states, size, _ in folded]
    assert got == [(n, states) for n in range(table.order + 1) for states in items(n)]
    return {states: acc for states, _, acc in folded}


def column_or_row(ranks, diagrams):
    """Whether a diagram tuple survives an oracle table: a column on each line-1 slot
    and a row on each line-2 slot (the ``oracle_forms`` docstring)."""
    return all(
        (not lam or lam[0] == 1) if i == 1 else len(lam) <= 1 for (i, _), lam in zip(ranks.slots(), diagrams)
    )


@pytest.mark.parametrize("kind", ["line", "limit", "oracle"])
def test_fold_yields_each_degree_in_reference_order(kind):
    """The fold's leaves are ``fixed_points`` or the surviving ``partition_tuples``
    in order, degree by degree: line and limit tables of total rank <= 4 and oracle
    tables of total rank <= 3, up to order 5.  The fold's ``value`` never returns ``None``,
    so an oracle fold yields the tuples its weights allow, ``C(n + r - 1, r - 1)`` of degree
    ``n``.  The symbolic suites report failures in this order."""
    build, total = {
        "line": (localized_forms, 4), "limit": (limit_table, 4), "oracle": (oracle_forms, 3)
    }[kind]
    for ranks in ranks_up_to(total):
        if kind == "oracle":
            items = lambda n: [
                tup.diagrams for tup in partition_tuples(ranks, n) if column_or_row(ranks, tup.diagrams)
            ]
            r = ranks.total
            assert [len(items(n)) for n in range(6)] == [math.comb(n + r - 1, r - 1) for n in range(6)]
        else:
            items = lambda n: [bn.lengths for bn in fixed_points(ranks, n)]
        folded_once(build(ranks, 5), lambda w: 1, operator.add, 0, items)


@pytest.mark.parametrize("order", [0, 3, 5])
def test_fold_prunes_only_at_a_none_weight(order):
    """A table whose weights are ``None`` off the diagonal wherever two slots hold the
    same nonzero length: its fold, with a ``value`` that is never ``None``, yields exactly
    the fixed points all of whose blocks have a weight, in ``slot_states`` order; each
    block is built once, and every key of the tree has a weight."""
    ranks = Ranks(2, 1)
    read = []

    def block(a, b, m_a, m_b):
        read.append((a, b, m_a, m_b))
        return None if a != b and m_a == m_b > 0 else (a, b)

    table = BlockTable(ranks.total, order, line_states, block)
    alive = lambda lengths: len({m for m in lengths if m}) == sum(1 for m in lengths if m)
    items = lambda n: [bn.lengths for bn in fixed_points(ranks, n) if alive(bn.lengths)]
    folded = folded_once(table, lambda w: 1, operator.add, 0, items)
    assert set(folded.values()) == {ranks.total**2}
    assert len(read) == len(set(read)) == len(table.weights)
    assert all(table.weights[key] is not None for key in table.tree[0])


def test_fold_sorts_the_tree_leaves_into_slot_states_order():
    """The tree walks a prefix's whole subtree, every degree of it, before the next
    prefix, so its leaves of two slots at order 2 interleave degrees; the fold yields
    them degree by degree, each degree in ``slot_states`` order."""
    table = BlockTable(2, 2, line_states, lambda *key: key)
    path, tree_order = [None, None], []
    for k, _, size, state in table.tree[1]:
        path[k] = state
        if size is not None:
            tree_order.append(tuple(path))
    by_slots = [states for n in range(3) for states in slot_states(2, n, line_states)]
    assert sorted(tree_order) == sorted(by_slots) and tree_order != by_slots
    leaves = table.fold(lambda w: 1, operator.add, 0)
    assert [(states, size) for states, size, _ in leaves] == [(states, sum(states)) for states in by_slots]


def test_fold_calls_value_once_per_weight_of_the_tree():
    """``value`` is called once per key of the tree, in the tree's key order, with that
    key's weight itself: never with a key, never with ``None``."""

    class Weight:
        pass

    def block(a, b, m_a, m_b):
        return None if a != b and m_a == m_b > 0 else Weight()

    table = BlockTable(3, 3, line_states, block)
    seen = []
    table.fold(lambda w: seen.append(w) or 1, operator.add, 0)
    keys = table.tree[0]
    assert None in table.weights.values()
    assert len(seen) == len(keys) and all(w is table.weights[key] for w, key in zip(seen, keys))


def pair_product(x, y):
    return x[0] * y[0], x[1] * y[1]


def folded_pairs(table, point):
    """The reference of ``BlockTable.pairs``: a fold of the blocks' ``eval_pair``
    values by pair products, started at ``(1, 1)``."""
    return table.fold(lambda w: w.eval_pair(point), pair_product, (1, 1))


PLAN_POINTS = {
    "plain": lambda p: p,
    "coincident": lambda p: p.with_values({v: rational(3, 2) for v, _ in p.items() if v[0] == "w"}),
    "linearized": PointAssignment.linearized,
    "twisted": twisted_point,
    "diagonal": DiagonalPoint,
}


PLAN_TABLES = {"line": localized_forms, "limit": limit_table, "oracle": oracle_forms}


@pytest.mark.parametrize("kind", sorted(PLAN_TABLES))
def test_plan_pairs_equal_the_fold_integer_by_integer(kind):
    """The compiled plan yields every leaf's unreduced pair ``(n, d)`` once, in tree
    order, equal integer by integer to the fold of ``eval_pair`` values, ``d == 0`` leaves
    included: line, limit and oracle tables of total rank <= 3, at plain,
    linearized, twisted and diagonal points, and at plain points with all ``w`` equal."""
    poles = dict.fromkeys(PLAN_POINTS, 0)
    for ranks in ranks_up_to(3):
        table = PLAN_TABLES[kind](ranks, 3 if kind == "oracle" else 4)
        variables = (T1, T2, U1, U2, S1, S2) + ranks.w_vars()
        variables += tuple(("v",) + slot for slot in ranks.slots())
        for at, move in PLAN_POINTS.items():
            point = move(seeded_point(variables, ranks.total))
            want = folded_pairs(table, point)
            assert sorted(table.pairs(point)) == sorted(want), (ranks, at)
            poles[at] += sum(not d for _, _, (_, d) in want)
    assert [at for at, n in poles.items() if n] == ([] if kind == "limit" else ["coincident"])


def test_tree_is_the_pruned_prefix_tree_depth_first():
    """The tree's nodes are the distinct prefixes of the surviving fixed points, one
    node each, each right before the nodes of its subtree, and a leaf node carries its
    size; its keys are distinct, and every key is some node's, since the only ``None``
    blocks are diagonal and read first: line tables of total rank <= 4 at order 5, and
    oracle tables of total rank <= 3 at order 4, whose diagonal zero class prunes tuples."""
    cases = [
        (localized_forms(ranks, 5), {bn.lengths: n for n in range(6) for bn in fixed_points(ranks, n)})
        for ranks in ranks_up_to(4)
    ]
    for ranks in ranks_up_to(3):
        table = oracle_forms(ranks, 4)
        alive = lambda tup: all(table.weight(a, a, lam, lam) is not None for a, lam in enumerate(tup.diagrams))
        sizes = {tup.diagrams: n for n in range(5) for tup in partition_tuples(ranks, n) if alive(tup)}
        cases.append((table, sizes))
    for table, sizes in cases:
        keys, nodes = table.tree
        prefixes, path, indexed = [], (), set()
        for k, indices, size, state in nodes:
            assert k <= len(path) and len(indices) == 2 * k + 1
            path = path[:k] + (state,)
            prefixes.append(path)
            assert size == sizes.get(path), path
            assert keys[indices[0]] == (k, k, state, state)
            indexed.update(indices)
        assert len(keys) == len(set(keys)) and indexed == set(range(len(keys)))
        want = {leaf[:k] for leaf in sizes for k in range(1, table.slots + 1)}
        assert len(prefixes) == len(set(prefixes)) and set(prefixes) == want
        below = Counter(p[:k] for p in prefixes for k in range(1, len(p)))
        for i, p in enumerate(prefixes):
            assert all(q[:len(p)] == p for q in prefixes[i + 1:i + 1 + below[p]]), p


def block_orders(table):
    """``ord_D`` of every leaf, folded from its blocks' ``cy_order``."""
    return {states: o for states, _, o in table.fold(cy_order, operator.add, 0)}


@pytest.fixture
def tree_builds(monkeypatch):
    """The tables whose :attr:`BlockTable.tree` is built, one entry per build."""
    built, tree = [], BlockTable.tree.func

    def counted(table):
        built.append(table)
        return tree(table)

    prop = functools.cached_property(counted)
    prop.__set_name__(BlockTable, "tree")
    monkeypatch.setattr(BlockTable, "tree", prop)
    return built


def test_table_is_compiled_once(tree_builds):
    """A fold, three ``eval_forms`` calls and one ``cy_first_order`` call on one table
    build ``table.tree`` once, and give what a fresh table gives."""
    ranks = Ranks(2, 1)
    table, fresh = localized_forms(ranks, 4), localized_forms(ranks, 4)
    orders = block_orders(table)
    assert orders == block_orders(fresh)
    for seed in (1, 2, 3):
        point = seeded_point(ranks.variables(), seed)
        assert eval_forms(table, point) == eval_forms(fresh, point)
    rest = seeded_point((T2,) + ranks.w_vars(), 4)
    assert cy_first_order(table, orders, rest) == cy_first_order(fresh, orders, rest)
    assert tree_builds.count(table) == 1


def test_cy_vanishing_walks_each_table_once(tree_builds):
    """A ``cy-vanishing`` run builds one tree per rank pair: its fold of the vanishing
    orders and its first-order sums at every seed replay it."""
    ranks_list = ranks_up_to(2)
    assert suite_cy_vanishing(ranks_list=ranks_list, max_len=3, num_seeds=2).passed
    assert len(tree_builds) == len(set(map(id, tree_builds))) == len(ranks_list)


@pytest.mark.parametrize("ranks", [Ranks(2, 0), Ranks(2, 1), Ranks(3, 0)], ids=str)
def test_cy_first_order_pole_rule(ranks):
    """At a rest point with ``w11 = w12`` some leaves have a vanishing non-diagonal
    denominator factor.  ``cy_first_order`` raises ``PoleAtPoint`` exactly when the
    fold reference does: with the true orders, with every leaf of order 1, and with
    only the pole-free leaves of order 1."""
    table = localized_forms(ranks, 4)
    rest = seeded_point((T2,) + ranks.w_vars(), 9)
    rest = rest.with_values({("w", 1, 2): rest.value(("w", 1, 1))})
    leaves = folded_pairs(table, DiagonalPoint(rest))
    poles = {states for states, _, (_, d) in leaves if not d}
    orders = block_orders(table)

    def reference(orders):
        totals = [0] * 5
        for states, size, (n, d) in leaves:
            if orders[states] == 1:
                totals[size] += pair_value(n, d)
        return totals

    for case in (orders, dict.fromkeys(orders, 1), {s: int(s not in poles) for s in orders}):
        got = outcome(lambda: cy_first_order(table, case, rest))
        assert got == outcome(lambda: reference(case))
        assert (got == "pole") == any(case[s] == 1 for s in poles)
    assert poles


def test_oracle_block_products_equal_oracle_contribution():
    """Symbolically, the product of a diagram tuple's pair factors, folded
    over its blocks, is its whole weight, and the fold prunes exactly the
    tuples of the zero class; the ranks and the trivial coefficient folded
    over the blocks are those of ``plane_tvir`` and ``taut_char``."""
    for ranks in ranks_up_to(3):
        table = oracle_forms(ranks, 4)
        products = {diagrams: w for diagrams, _, w in table.fold(lambda w: w, operator.mul, FactoredForm.one())}
        folded = {diagrams: acc for diagrams, _, acc in plane_invariants(table)}
        assert len(folded) == sum(len(partition_tuples(ranks, n)) for n in range(5))
        for n in range(5):
            for tup in partition_tuples(ranks, n):
                want = oracle_contribution(tup)
                assert (tup.diagrams not in products) == (want is None), tup
                assert products.get(tup.diagrams) == want
                tvir = plane_tvir(tup)
                assert folded[tup.diagrams] == (
                    tvir.rank(), tvir.trivial_coefficient(), taut_char(tup).rank()
                )


def factor_signs(weight):
    """The set of ``(m, c > 0)`` over the factors ``(1 - m)^c`` of a block weight."""
    return frozenset((m, c > 0) for m, c in weight.factors())


def test_no_factor_sits_in_two_blocks_with_opposite_signs():
    """No monomial is a numerator factor of one block and a denominator
    factor of another block of the same fixed point, so the product of the
    block values vanishes or has a pole exactly where the merged weight does:
    line and limit tables of total rank <= 4 and oracle tables of total
    rank <= 3, up to order 4."""
    tables = [build(ranks, 4) for build in (localized_forms, limit_table) for ranks in ranks_up_to(4)]
    tables += [oracle_forms(ranks, 4) for ranks in ranks_up_to(3)]
    for table in tables:
        for states, _, acc in table.fold(factor_signs, operator.or_, frozenset()):
            assert not acc & {(m, not up) for m, up in acc}, states


def test_folded_det_equals_vertex_term_det():
    """The det folded over the blocks of a line table is
    ``vertex_term(bn).det()``, for total rank <= 4 and size <= 4; the fold
    yields every fixed point exactly once, at its degree, in reference order."""
    for ranks in ranks_up_to(4):
        table = line_table(ranks, 4, lambda block: block)
        dets = folded_once(
            table,
            lambda block: block.det(),
            lambda x, y: x * y,
            Monomial.one(),
            lambda n: [bn.lengths for bn in fixed_points(ranks, n)],
        )
        for n in range(5):
            for bn in fixed_points(ranks, n):
                assert dets[bn.lengths] == vertex_term(bn).det(), bn
