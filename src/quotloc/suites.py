"""Named verification suites behind the command-line driver.

Every suite runs a family of exact checks at seeded points and reports the
number of checks together with the first counterexample of each failing
check (fixed point or diagram tuple, the point, and both values).  All
suites are deterministic functions of their configuration.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field

from .chars import (
    Character,
    FactoredForm,
    Monomial,
    T1,
    T2,
    k_euler,
    pair_value,
    t_var,
    u_var,
    w_var,
)
from .limits import (
    crossing_shift_monomial,
    factored_shift_monomial,
    limit_table,
    slot_shifts,
)
from .oracle import PartitionTuple, oracle_forms, plane_invariants
from .points import draw_point, rational_stream, retry_points
from .rational import rat_str, rational
from .series import (
    QSeries,
    coh_variables,
    cy_first_order,
    cy_first_order_closed,
    cy_order,
    eval_forms,
    euler_char_series,
    half_weight_twist,
    line_table,
    localized_forms,
    twisted_point,
    z_closed,
    z_rank1_product,
    zcoh_closed,
    zhat_closed,
)
from .vertex import (
    FixedPoint,
    Ranks,
    fixed_points,
    smooth_tangent,
    vertex_block,
    vertex_blocks_sum,
    vertex_term,
)

CLOSED_FORM_RANKS = (Ranks(1, 0), Ranks(0, 1), Ranks(1, 1), Ranks(2, 1), Ranks(2, 2), Ranks(3, 1))
FACTORIZATION_RANKS = (Ranks(1, 1), Ranks(2, 1), Ranks(2, 2))
TWIST_RANKS = (Ranks(1, 0), Ranks(1, 1), Ranks(2, 1))


def ranks_up_to(total: int) -> tuple:
    """All rank pairs with ``1 <= r1 + r2 <= total``, lexicographically."""
    out = []
    for r1 in range(total + 1):
        for r2 in range(total + 1 - r1):
            if r1 + r2 >= 1:
                out.append(Ranks(r1, r2))
    return tuple(out)


@dataclass
class SuiteReport:
    """Outcome of one verification suite."""

    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, describe) -> None:
        """Count a check; on failure record ``describe()``, a zero-argument callable."""
        self.checks += 1
        if not ok:
            self.failures.append(describe())


def by_degree(leaves) -> list:
    """The ``(states, size, acc)`` leaves of a :meth:`~quotloc.series.BlockTable.fold`,
    stably sorted by size: each degree's fixed points in ``slot_states`` order."""
    return sorted(leaves, key=operator.itemgetter(1))


def _first_mismatch(lhs: QSeries, rhs: QSeries):
    for n, (a, b) in enumerate(zip(lhs.coefficients, rhs.coefficients)):
        if a != b:
            return n, a, b
    return None


def _series_check(report, label, point, lhs, rhs):
    bad = _first_mismatch(lhs, rhs)
    report.check(
        bad is None,
        lambda: (
            f"{label}: q^{bad[0]} differs at {point}: "
            f"{rat_str(bad[1])} vs {rat_str(bad[2])}"
        ),
    )


def _compare_at_points(report, labels, variables, sides, num_points, seed):
    """Check each ``lhs`` of ``sides(p) == (*lhs, rhs)`` against ``rhs``, under its label, at
    ``num_points`` points drawn from one seeded stream; a pole on any side redraws the point."""
    stream = rational_stream(seed)
    for _ in range(num_points):
        point, (*lefts, right) = retry_points(variables, stream, sides)
        for label, left in zip(labels, lefts):
            _series_check(report, label, point, left, right)


# ---------------------------------------------------------------------------
# series equality suites
# ---------------------------------------------------------------------------


def suite_closed_form(ranks_list=CLOSED_FORM_RANKS, order=6, num_points=5, seed=1):
    """Localized residue sums equal the plethystic closed form."""
    report = SuiteReport()
    for ranks in ranks_list:
        forms = localized_forms(ranks, order)
        _compare_at_points(
            report, [f"closed-form r={ranks.r1},{ranks.r2}"], ranks.variables(),
            lambda p: (eval_forms(forms, p), z_closed(ranks, p, order)),
            num_points, seed,
        )
    return report


def suite_rank1_product(order=8, num_points=5, seed=1):
    """The rank-one product formula matches the closed form."""
    report = SuiteReport()
    _compare_at_points(
        report, ["rank1-product"], (T1, T2),
        lambda p: (z_rank1_product(p, order), z_closed(Ranks(1, 0), p, order)), num_points, seed,
    )
    return report


def suite_framing(ranks=Ranks(2, 2), order=5, num_assignments=3, seed=1):
    """The coefficient vector is independent of the framing values."""
    report = SuiteReport()
    forms = localized_forms(ranks, order)
    stream = rational_stream(seed)
    t_values = {T1: next(stream), T2: next(stream)}

    def with_framing(w_point):
        point = w_point.with_values(t_values)
        return point, eval_forms(forms, point)

    outcomes = [
        retry_points(ranks.w_vars(), stream, with_framing)[1]
        for _ in range(num_assignments)
    ]
    base_point, base = outcomes[0]
    for point, series in outcomes[1:]:
        bad = _first_mismatch(base, series)
        report.check(
            bad is None,
            lambda: (
                f"framing r={ranks.r1},{ranks.r2}: q^{bad[0]} moved from "
                f"{rat_str(bad[1])} at {base_point} to {rat_str(bad[2])} at {point}"
            ),
        )
    return report


def suite_factorization(ranks_list=FACTORIZATION_RANKS, order=4, num_points=3, seed=1):
    """Limit calculus and the explicit rank-one factorization of the series:
    the limit table's sum, the product of q-shifted rank-one closed forms and
    the localized sum all equal the closed form at one full point."""
    report = SuiteReport()
    for ranks in ranks_list:
        forms = localized_forms(ranks, order)
        limits = limit_table(ranks, order)

        def sides(p):
            lines = {1: z_closed(Ranks(1, 0), p, order), 2: z_closed(Ranks(0, 1), p, order)}
            product = QSeries.one(order)
            for (i, _a), shift in zip(ranks.slots(), slot_shifts(ranks)):
                product = product * lines[i].scale_q(pair_value(*p.monomial_pair(shift)))
            return eval_forms(limits, p), product, eval_forms(forms, p), z_closed(ranks, p, order)

        names = ("limits-sum", "factorized-product", "localized-vs-factorized")
        labels = [f"{name} r={ranks.r1},{ranks.r2}" for name in names]
        _compare_at_points(report, labels, ranks.variables(), sides, num_points, seed)
    return report


def suite_limits(ranks=Ranks(2, 2), max_len=5, seed=1):
    """Block-by-block framing limits: the two symbolic limit identities,
    the q-shift bookkeeping and numeric convergence toward the limit."""
    report = SuiteReport()
    slots, table = ranks.slots(), limit_table(ranks, max_len)
    for lo in range(len(slots)):
        for hi in range(lo + 1, len(slots)):
            (i, alpha), (j, beta) = slots[lo], slots[hi]
            for n_low in range(max_len + 1):
                for n_high in range(max_len + 1):
                    bn = _pair_point(ranks, {lo: n_low, hi: n_high})
                    fwd = table.weight(lo, hi, n_low, n_high)
                    report.check(
                        fwd.is_one,
                        lambda: f"limit of block ({i}{j},{alpha}{beta}) at {bn} is {fwd} != 1",
                    )
                    back = table.weight(hi, lo, n_high, n_low)
                    expected = FactoredForm(monomial=Monomial.var(("t", j), n_low))
                    report.check(
                        back == expected,
                        lambda: f"limit of block ({j}{i},{beta}{alpha}) at {bn} is {back} != t{j}^{n_low}",
                    )
    for other in ranks_up_to(4):
        shifts = slot_shifts(other)
        for n in range(max_len + 1):
            for bn in fixed_points(other, n):
                report.check(
                    crossing_shift_monomial(bn) == factored_shift_monomial(bn, shifts),
                    lambda: f"q-shift bookkeeping fails at {bn}",
                )
    _limits_numeric_convergence(report, ranks, seed)
    return report


def _pair_point(ranks, lengths: dict) -> FixedPoint:
    """The fixed point with ``lengths[k]`` on slot ``k`` and 0 elsewhere."""
    return FixedPoint(ranks, tuple(lengths.get(k, 0) for k in range(ranks.total)))


def _limits_numeric_convergence(report, ranks, seed):
    """Evaluating at concrete hierarchical speeds approaches the limit: slot
    ``k`` moves as ``big^(k + 1)``, so raising ``big`` from ``10^3`` to ``10^6``
    must shrink the gap by ``10^(3 (hi - lo))``, up to one decimal.  Any strictly
    increasing speeds realise the speed order here: a cross block holds the framing
    variables only as ``w_hi^-1 w_lo`` or its inverse (see ``framing_limit``)."""
    stream = rational_stream(seed)
    t_point = draw_point((T1, T2), stream)
    slots = ranks.slots()
    forms, limits = localized_forms(ranks, 3), limit_table(ranks, 3)
    for lo in range(len(slots)):
        for hi in range(lo + 1, len(slots)):
            (i, alpha), (j, beta) = slots[lo], slots[hi]
            bn = _pair_point(ranks, {lo: 2, hi: 3})
            form = forms.weight(hi, lo, 3, 2)
            limit_value = limits.weight(hi, lo, 3, 2).eval_point(t_point)
            gaps = []
            for big in (10**3, 10**6):
                w = {v: rational(big) ** (k + 1) for k, v in enumerate(ranks.w_vars())}
                gaps.append(abs(form.eval_point(t_point.with_values(w)) - limit_value))
            report.check(
                gaps[1] < gaps[0] and gaps[1] * 10 ** (3 * (hi - lo) - 1) <= gaps[0],
                lambda: f"no convergence toward the limit for block ({j}{i},{beta}{alpha}) at {bn}",
            )


def suite_oracle(ranks_list=ranks_up_to(3), order=4, num_points=3, seed=1):
    """The plane Quot scheme recomputation agrees with the fixed-line one,
    and at every diagram tuple the tangent ``T`` and the insertion ``I`` have
    rank ``r n`` and ``T`` has no trivial weight, folded over the blocks of the
    oracle table (:func:`~quotloc.oracle.plane_invariants`)."""
    report = SuiteReport()
    for ranks in ranks_list:
        plane = oracle_forms(ranks, order)
        for diagrams, n, (rank, trivial, taut_rank) in by_degree(plane_invariants(plane)):
            expected = ranks.total * n
            tup = lambda: PartitionTuple(ranks, diagrams)  # built only for a failure
            report.check(
                rank == expected and not trivial,
                lambda: f"plane tangent at {tup()} has rank {rank} != {expected}"
                if rank != expected
                else f"plane tangent at {tup()} has a trivial weight",
            )
            report.check(
                taut_rank == expected,
                lambda: f"tautological character at {tup()} has rank {taut_rank} != {expected}",
            )
        lines = localized_forms(ranks, order)
        _compare_at_points(
            report, [f"oracle r={ranks.r1},{ranks.r2}"], ranks.variables(),
            lambda p: (eval_forms(plane, p), eval_forms(lines, p)),
            num_points, seed,
        )
    return report


def suite_cohomological(ranks_list=TWIST_RANKS, order=4, num_points=5, seed=1):
    """Cohomological residues equal the binomial closed form."""
    report = SuiteReport()
    for ranks in ranks_list:
        forms = localized_forms(ranks, order)
        _compare_at_points(
            report, [f"cohomological r={ranks.r1},{ranks.r2}"], coh_variables(ranks),
            lambda p: (eval_forms(forms, p.linearized()), zcoh_closed(ranks, p, order)),
            num_points, seed,
        )
    return report


def suite_no_twist(
    det_ranks=ranks_up_to(4), det_len=5, ranks_list=TWIST_RANKS, order=5, num_points=5, seed=1
):
    """Determinant of the tangent character, the product of the dets of its
    blocks ``T_ab`` (a line table of the blocks themselves), and the
    half-weight twisted series against its closed form."""
    report = SuiteReport()
    for ranks in det_ranks:
        table = line_table(ranks, det_len, lambda block: block)
        block_det = lambda key: table.weight(*key).det()
        for lengths, n, got in by_degree(table.fold(block_det, operator.mul, Monomial.one())):
            expected = ranks.framing() ** n
            report.check(
                got == expected,
                lambda: f"det tangent at {FixedPoint(ranks, lengths)} is {got!r} != {expected!r}",
            )
    for ranks in ranks_list:
        forms, twist = localized_forms(ranks, order), half_weight_twist(ranks)
        _compare_at_points(
            report, [f"twisted r={ranks.r1},{ranks.r2}"], (u_var(1), u_var(2)) + ranks.w_vars(),
            lambda p: (eval_forms(forms, twisted_point(p)).scale_q(pair_value(*p.monomial_pair(twist))),
                       zhat_closed(ranks, p, order)), num_points, seed,
        )
    return report


def suite_cy_vanishing(ranks_list=ranks_up_to(3), max_len=5, num_seeds=3, seed=1):
    """Every positive-degree coefficient vanishes on the ``t1 t2 = 1`` locus.

    Proved by vanishing orders: each weight of degree ``n >= 1``, its
    ``ord_D`` along ``D = {t1 t2 = 1}`` summed over its blocks, must be ``>= 1``,
    which makes the coefficient vanish on ``D`` for all ``t2`` and framing
    values.  At each of ``num_seeds`` seeded rest points ``(t2, w)``, one per
    seed for all degrees, the first-order term must equal the closed form's;
    a weight with ``ord_D <= 0`` fails every check of its degree.
    """
    report = SuiteReport()
    for ranks in ranks_list:
        table = localized_forms(ranks, max_len)
        block_order = lambda key: cy_order(table.weight(*key))
        leaves = by_degree(table.fold(block_order, operator.add, 0))
        orders = {states: o for states, _, o in leaves}
        rest_vars = (T2,) + ranks.w_vars()
        first_orders = [
            retry_points(rest_vars, rational_stream(seed + k), lambda p: cy_first_order(table, orders, p))
            for k in range(num_seeds)
        ]
        # leaves[0] is the one fixed point of degree 0
        for n, degree in itertools.groupby(leaves[1:], key=operator.itemgetter(1)):
            label = f"cy-vanishing r={ranks.r1},{ranks.r2} n={n}"
            lengths, _, low = min(degree, key=operator.itemgetter(2))
            for point, values in first_orders:
                if low <= 0:
                    bn = FixedPoint(ranks, lengths)
                    report.check(False, lambda: f"{label}: weight at {bn} has order {low} along t1 t2 = 1")
                    continue
                value, closed = values[n], cy_first_order_closed(ranks, n, point)
                report.check(
                    value == closed,
                    lambda: f"{label}: first-order term at {point} is "
                    f"{rat_str(value)} != {rat_str(closed)}",
                )
    return report


def suite_euler_count(ranks_list=ranks_up_to(4), max_len=10):
    """Fixed-point counts match the binomial generating series."""
    report = SuiteReport()
    for ranks in ranks_list:
        series = euler_char_series(ranks, max_len)
        for n in range(max_len + 1):
            count = len(fixed_points(ranks, n))
            report.check(
                count == series.coefficient(n),
                lambda: f"count r={ranks.r1},{ranks.r2} n={n}: {count} fixed points, "
                f"series says {series.coefficient(n)}",
            )
    return report


def suite_smooth_chi_y(ranks_list=(Ranks(0, 1), Ranks(0, 2), Ranks(0, 3)), max_len=5):
    """One-line moduli: the tangent character identity
    ``T_vir = T - t2^-1 T`` holds symbolically at every fixed point."""
    report = SuiteReport()
    t2_inv = Character.from_monomial(Monomial.var(T2, -1))
    for ranks in ranks_list:
        for n in range(max_len + 1):
            for bn in fixed_points(ranks, n):
                tangent = smooth_tangent(bn)
                report.check(
                    vertex_term(bn) == tangent - t2_inv * tangent,
                    lambda: f"smooth identity fails at {bn}",
                )
    return report


# ---------------------------------------------------------------------------
# randomized structural properties (used by the acceptance suite)
# ---------------------------------------------------------------------------


def random_ranks(rng: random.Random, max_total=4) -> Ranks:
    while True:
        r1 = rng.randrange(0, max_total + 1)
        r2 = rng.randrange(0, max_total + 1 - r1)
        if r1 + r2 >= 1:
            return Ranks(r1, r2)


def random_fixed_point(rng: random.Random, max_total=4, max_size=6) -> FixedPoint:
    ranks = random_ranks(rng, max_total)
    lengths = [0] * ranks.total
    for _ in range(rng.randrange(0, max_size + 1)):
        lengths[rng.randrange(ranks.total)] += 1
    return FixedPoint(ranks, tuple(lengths))


_POOL_VARS = (T1, T2, w_var(1, 1), w_var(1, 2), w_var(2, 1))


def random_monomial(rng: random.Random, nontrivial=False) -> Monomial:
    while True:
        m = Monomial(
            (v, rng.randrange(-3, 4))
            for v in rng.sample(_POOL_VARS, rng.randrange(0, len(_POOL_VARS) + 1))
        )
        if not (nontrivial and m.is_one):
            return m


def random_character(rng: random.Random, nontrivial=False) -> Character:
    return Character(
        (random_monomial(rng, nontrivial), rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(rng.randrange(0, 7))
    )


def suite_vertex_properties(count=100, seed=1):
    """Rank zero, block reconstruction, movability and framing balance of
    randomly generated tangent characters."""
    report = SuiteReport()
    rng = random.Random(seed)
    for _ in range(count):
        bn = random_fixed_point(rng)
        term = vertex_term(bn)
        report.check(term.rank() == 0, lambda: f"vertex term at {bn} has rank {term.rank()}")
        report.check(
            vertex_blocks_sum(bn) == term, lambda: f"block sum differs from vertex term at {bn}"
        )
        report.check(
            not term.trivial_coefficient(), lambda: f"trivial weight in vertex term at {bn}"
        )
        balance: dict = {}
        for m, c in term.items():
            w_part = m.restrict(lambda v: v[0] == "w")
            if not w_part.is_one:
                balance[w_part] = balance.get(w_part, 0) + c
        report.check(
            all(total == 0 for total in balance.values()),
            lambda: f"framing weights unbalanced at {bn}: {balance}",
        )
    return report


def suite_diagonal_blocks(max_len=8):
    """Closed form of the diagonal blocks:
    ``(1 - t_i^-1) sum_(a=1..m) t_ihat^-a``."""
    report = SuiteReport()
    for i in (1, 2):
        for m in range(max_len + 1):
            block = vertex_block((i, 1), (i, 1), m, m)
            one_minus = Character.one() - Character.from_monomial(
                Monomial.var(t_var(i), -1)
            )
            tail = Character(
                (Monomial.var(t_var(3 - i), -a), 1) for a in range(1, m + 1)
            )
            report.check(
                block == one_minus * tail,
                lambda: f"diagonal block closed form fails for i={i}, m={m}",
            )
    return report


def suite_bar_involution(count=100, seed=1):
    """``bar`` is an involutive ring map on random characters."""
    report = SuiteReport()
    rng = random.Random(seed)
    for _ in range(count):
        c = random_character(rng)
        report.check(c.bar().bar() == c, lambda: f"bar is not involutive on {c!r}")
        d = random_character(rng)
        report.check(
            (c * d).bar() == c.bar() * d.bar(),
            lambda: f"bar is not multiplicative on {c!r}, {d!r}",
        )
    return report


def suite_euler_multiplicativity(count=100, seed=1):
    """``k_euler(a + b) = k_euler(a) k_euler(b)`` on random characters."""
    report = SuiteReport()
    rng = random.Random(seed)
    for _ in range(count):
        a = random_character(rng, nontrivial=True)
        b = random_character(rng, nontrivial=True)
        report.check(
            k_euler(a + b) == k_euler(a) * k_euler(b),
            lambda: f"k_euler not multiplicative on {a!r}, {b!r}",
        )
    return report


CLI_SUITES = {
    "closed-form": suite_closed_form,
    "framing": suite_framing,
    "factorization": suite_factorization,
    "limits": suite_limits,
    "oracle": suite_oracle,
    "cohomological": suite_cohomological,
    "no-twist": suite_no_twist,
    "cy-vanishing": suite_cy_vanishing,
    "euler-count": suite_euler_count,
    "smooth-chi-y": suite_smooth_chi_y,
}
