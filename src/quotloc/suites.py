"""Named verification suites behind the command-line driver.

Every suite runs a family of exact checks at seeded points and reports the
number of checks together with the first counterexample of each failing
check (fixed point or diagram tuple, the point, and both values).  All
suites are deterministic functions of their configuration.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field

from .chars import (
    Character,
    Monomial,
    T1,
    T2,
    k_euler,
    t_var,
    u_var,
    w_var,
)
from .limits import (
    LimitValue,
    SpeedOrder,
    block_limit,
    crossing_shift_monomial,
    factored_shift_monomial,
    framing_limit,
    limit_table,
)
from .oracle import oracle_forms, partition_tuples, plane_invariants
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
    localized_forms,
    twisted_point,
    weight_det,
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

    name: str
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, describe) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(describe() if callable(describe) else describe)


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


def _compare_at_points(report, label, variables, lhs, rhs, num_points, seed):
    """Check ``lhs(p) == rhs(p)`` at ``num_points`` pole-free points drawn
    from one seeded stream; a pole on either side redraws the point."""
    stream = rational_stream(seed)
    for _ in range(num_points):
        point, (left, right) = retry_points(variables, stream, lambda p: (lhs(p), rhs(p)))
        _series_check(report, label, point, left, right)


# ---------------------------------------------------------------------------
# series equality suites
# ---------------------------------------------------------------------------


def suite_closed_form(ranks_list=CLOSED_FORM_RANKS, order=6, num_points=5, seed=1):
    """Localized residue sums equal the plethystic closed form."""
    report = SuiteReport("closed-form")
    for ranks in ranks_list:
        forms = localized_forms(ranks, order)
        _compare_at_points(
            report, f"closed-form r={ranks.r1},{ranks.r2}", ranks.variables(),
            lambda p: eval_forms(forms, p), lambda p: z_closed(ranks, p, order),
            num_points, seed,
        )
    return report


def suite_rank1_product(order=8, num_points=5, seed=1):
    """The rank-one product formula matches the closed form."""
    report = SuiteReport("rank1-product")
    _compare_at_points(
        report, "rank1-product", (T1, T2), lambda p: z_rank1_product(p, order),
        lambda p: z_closed(Ranks(1, 0), p, order), num_points, seed,
    )
    return report


def suite_framing(ranks=Ranks(2, 2), order=5, num_assignments=3, seed=1):
    """The coefficient vector is independent of the framing values."""
    report = SuiteReport("framing")
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
    """Limit calculus and the explicit rank-one factorization of the series."""
    report = SuiteReport("factorization")
    for ranks in ranks_list:
        stream = rational_stream(seed)
        forms = localized_forms(ranks, order)
        limits = limit_table(ranks, order)
        for _ in range(num_points):
            t_point = draw_point((T1, T2), stream)
            closed = z_closed(ranks, t_point, order)
            _series_check(
                report,
                f"limits-sum r={ranks.r1},{ranks.r2}",
                t_point,
                eval_forms(limits, t_point),
                closed,
            )
            # explicit product of q-shifted rank-one factors
            t1, t2 = t_point.value(T1), t_point.value(T2)
            product = QSeries.one(order)
            for a in range(1, ranks.r1 + 1):
                shift = t1 ** (ranks.r1 - a) * t2**ranks.r2
                product = product * z_closed(Ranks(1, 0), t_point, order).scale_q(shift)
            for a in range(1, ranks.r2 + 1):
                shift = t2 ** (ranks.r2 - a)
                product = product * z_closed(Ranks(0, 1), t_point, order).scale_q(shift)
            _series_check(
                report,
                f"factorized-product r={ranks.r1},{ranks.r2}",
                t_point,
                product,
                closed,
            )
            # and the localized sum itself, with framing values drawn on top
            def eval_with_framing(wp):
                full = t_point.with_values({v: wp.value(v) for v in wp.variables()})
                return full, eval_forms(forms, full)

            _, (full_point, localized) = retry_points(
                ranks.w_vars(), stream, eval_with_framing
            )
            _series_check(
                report,
                f"localized-vs-factorized r={ranks.r1},{ranks.r2}",
                full_point,
                localized,
                closed,
            )
    return report


def suite_limits(ranks=Ranks(2, 2), max_len=5, seed=1):
    """Block-by-block framing limits: the two symbolic limit identities,
    the q-shift bookkeeping and numeric convergence toward the limit."""
    report = SuiteReport("limits")
    slots = ranks.slots()
    for lo in range(len(slots)):
        for hi in range(lo + 1, len(slots)):
            (i, alpha), (j, beta) = slots[lo], slots[hi]
            for n_low in range(max_len + 1):
                for n_high in range(max_len + 1):
                    lengths = [0] * len(slots)
                    lengths[lo], lengths[hi] = n_low, n_high
                    bn = FixedPoint(ranks, tuple(lengths))
                    fwd = block_limit(bn, i, j, alpha, beta)
                    report.check(
                        fwd.is_one,
                        f"limit of block ({i}{j},{alpha}{beta}) at {bn} is {fwd} != 1",
                    )
                    back = block_limit(bn, j, i, beta, alpha)
                    expected = LimitValue.from_monomial(Monomial.var(("t", j), n_low))
                    report.check(
                        back == expected,
                        f"limit of block ({j}{i},{beta}{alpha}) at {bn} is {back} != t{j}^{n_low}",
                    )
    for other in ranks_up_to(4):
        for n in range(max_len + 1):
            for bn in fixed_points(other, n):
                report.check(
                    crossing_shift_monomial(bn) == factored_shift_monomial(bn),
                    f"q-shift bookkeeping fails at {bn}",
                )
    _limits_numeric_convergence(report, ranks, seed)
    return report


def _limits_numeric_convergence(report, ranks, seed):
    """Evaluating at concrete hierarchical speeds approaches the limit: slot
    ``k`` moves as ``big^(8^k)``, so raising ``big`` from ``10^3`` to ``10^6``
    must shrink the gap by ``10^(3 (8^hi - 8^lo))``, up to one decimal."""
    stream = rational_stream(seed)
    t_point = draw_point((T1, T2), stream)
    slots = ranks.slots()
    speeds = {w_var(i, a): 8**k for k, (i, a) in enumerate(slots)}
    order = SpeedOrder(ranks)
    for lo in range(len(slots)):
        for hi in range(lo + 1, len(slots)):
            (i, alpha), (j, beta) = slots[lo], slots[hi]
            lengths = [0] * len(slots)
            lengths[lo], lengths[hi] = 2, 3
            bn = FixedPoint(ranks, tuple(lengths))
            form = k_euler(-vertex_block(bn, j, i, beta, alpha))
            limit_value = framing_limit(form, order).eval_point(t_point)
            gaps = []
            for big in (10**3, 10**6):
                w_values = {v: rational(big) ** n for v, n in speeds.items()}
                point = t_point.with_values(w_values)
                gaps.append(abs(form.eval_point(point) - limit_value))
            report.check(
                gaps[1] < gaps[0] and gaps[1] * 10 ** (3 * (8**hi - 8**lo) - 1) <= gaps[0],
                f"no convergence toward the limit for block ({j}{i},{beta}{alpha}) at {bn}",
            )


def suite_oracle(ranks_list=ranks_up_to(3), order=4, num_points=3, seed=1):
    """The plane Quot scheme recomputation agrees with the fixed-line one,
    and at every diagram tuple the tangent ``T`` and the insertion ``I`` have
    rank ``r n`` and ``T`` has no trivial weight, folded over the blocks of the
    oracle table (:func:`~quotloc.oracle.plane_invariants`)."""
    report = SuiteReport("oracle")
    for ranks in ranks_list:
        plane = oracle_forms(ranks, order)
        folded = {diagrams: acc for diagrams, _, acc in plane_invariants(plane)}
        for n in range(order + 1):
            expected = ranks.total * n
            for tup in partition_tuples(ranks, n):
                rank, trivial, taut_rank = folded[tup.diagrams]
                report.check(
                    rank == expected and not trivial,
                    lambda: f"plane tangent at {tup} has rank {rank} != {expected}"
                    if rank != expected
                    else f"plane tangent at {tup} has a trivial weight",
                )
                report.check(
                    taut_rank == expected,
                    lambda: f"tautological character at {tup} has rank {taut_rank} != {expected}",
                )
        lines = localized_forms(ranks, order)
        _compare_at_points(
            report, f"oracle r={ranks.r1},{ranks.r2}", ranks.variables(),
            lambda p: eval_forms(plane, p), lambda p: eval_forms(lines, p),
            num_points, seed,
        )
    return report


def suite_cohomological(ranks_list=TWIST_RANKS, order=4, num_points=5, seed=1):
    """Cohomological residues equal the binomial closed form."""
    report = SuiteReport("cohomological")
    for ranks in ranks_list:
        forms = localized_forms(ranks, order)
        _compare_at_points(
            report, f"cohomological r={ranks.r1},{ranks.r2}", coh_variables(ranks),
            lambda p: eval_forms(forms, p.linearized()), lambda p: zcoh_closed(ranks, p, order),
            num_points, seed,
        )
    return report


def suite_no_twist(
    det_ranks=ranks_up_to(4), det_len=5, ranks_list=TWIST_RANKS, order=5, num_points=5, seed=1
):
    """Determinant of the tangent character, a product over the blocks of
    the localized table (:func:`~quotloc.series.weight_det`), and the
    half-weight twisted series against its closed form."""
    report = SuiteReport("no-twist")
    for ranks in det_ranks:
        table = localized_forms(ranks, det_len)
        block_det = lambda key: weight_det(table.block(*key))  # weights are not kept
        dets = {bn: det for bn, _, det in table.fold(block_det, operator.mul, Monomial.one())}
        for n in range(det_len + 1):
            expected = Monomial([(T1, n * ranks.r1), (T2, n * ranks.r2)])
            for bn in fixed_points(ranks, n):
                got = dets[bn.lengths]
                report.check(
                    got == expected,
                    lambda: f"det tangent at {bn} is {got!r} != {expected!r}",
                )
    for ranks in ranks_list:
        forms, twist = localized_forms(ranks, order), half_weight_twist(ranks)
        _compare_at_points(
            report, f"twisted r={ranks.r1},{ranks.r2}", (u_var(1), u_var(2)) + ranks.w_vars(),
            lambda p: eval_forms(forms, twisted_point(p)).scale_q(p.monomial_value(twist)),
            lambda p: zhat_closed(ranks, p, order), num_points, seed,
        )
    return report


def suite_cy_vanishing(ranks_list=ranks_up_to(3), max_len=5, num_seeds=3, seed=1):
    """Every positive-degree coefficient vanishes on the ``t1 t2 = 1`` locus.

    Proved by vanishing orders: each weight of degree ``n >= 1``, merged
    from the blocks of the localized table, must have ``ord_D >= 1`` along
    ``D = {t1 t2 = 1}``, which makes the coefficient vanish on ``D`` for all
    ``t2`` and framing values.  At each of ``num_seeds`` seeded rest points
    ``(t2, w)`` the first-order term must equal the closed form's; a weight
    with ``ord_D <= 0`` fails every check of its degree.
    """
    report = SuiteReport("cy-vanishing")
    for ranks in ranks_list:
        table = localized_forms(ranks, max_len)
        rest_vars = (T2,) + ranks.w_vars()
        for n in range(1, max_len + 1):
            label = f"cy-vanishing r={ranks.r1},{ranks.r2} n={n}"
            bns = fixed_points(ranks, n)
            forms = [table.fixed_point_weight(bn.lengths) for bn in bns]
            orders = [cy_order(form) for form in forms]
            low = min(orders)
            bn = bns[orders.index(low)]
            for k in range(num_seeds):
                if low <= 0:
                    report.check(False, f"{label}: weight at {bn} has order {low} along t1 t2 = 1")
                    continue
                point, value = retry_points(
                    rest_vars, rational_stream(seed + k), lambda p: cy_first_order(forms, p)
                )
                closed = cy_first_order_closed(ranks, n, point)
                report.check(
                    value == closed,
                    lambda: f"{label}: first-order term at {point} is "
                    f"{rat_str(value)} != {rat_str(closed)}",
                )
    return report


def suite_euler_count(ranks_list=ranks_up_to(4), max_len=10):
    """Fixed-point counts match the binomial generating series."""
    report = SuiteReport("euler-count")
    for ranks in ranks_list:
        series = euler_char_series(ranks, max_len)
        for n in range(max_len + 1):
            count = len(fixed_points(ranks, n))
            report.check(
                count == series.coefficient(n),
                f"count r={ranks.r1},{ranks.r2} n={n}: {count} fixed points, "
                f"series says {series.coefficient(n)}",
            )
    return report


def suite_smooth_chi_y(ranks_list=(Ranks(0, 1), Ranks(0, 2), Ranks(0, 3)), max_len=5):
    """One-line moduli: the tangent character identity
    ``T_vir = T - t2^-1 T`` holds symbolically at every fixed point."""
    report = SuiteReport("smooth-chi-y")
    t2_inv = Character.from_monomial(Monomial.var(T2, -1))
    for ranks in ranks_list:
        if ranks.r1 != 0:
            raise ValueError("the smooth-case identity requires r1 = 0")
        for n in range(max_len + 1):
            for bn in fixed_points(ranks, n):
                tangent = smooth_tangent(bn)
                report.check(
                    vertex_term(bn) == tangent - t2_inv * tangent,
                    f"smooth identity fails at {bn}",
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
    report = SuiteReport("vertex-properties")
    rng = random.Random(seed)
    for _ in range(count):
        bn = random_fixed_point(rng)
        term = vertex_term(bn)
        report.check(term.rank() == 0, f"vertex term at {bn} has rank {term.rank()}")
        report.check(
            vertex_blocks_sum(bn) == term, f"block sum differs from vertex term at {bn}"
        )
        report.check(
            not term.trivial_coefficient(), f"trivial weight in vertex term at {bn}"
        )
        balance: dict = {}
        for m, c in term.items():
            w_part = m.restrict(lambda v: v[0] == "w")
            if not w_part.is_one:
                balance[w_part] = balance.get(w_part, 0) + c
        report.check(
            all(total == 0 for total in balance.values()),
            f"framing weights unbalanced at {bn}: {balance}",
        )
    return report


def suite_diagonal_blocks(max_len=8):
    """Closed form of the diagonal blocks:
    ``(1 - t_i^-1) sum_(a=1..m) t_ihat^-a``."""
    report = SuiteReport("diagonal-blocks")
    for i in (1, 2):
        ranks = Ranks(1, 1)
        for m in range(max_len + 1):
            lengths = (m, 0) if i == 1 else (0, m)
            bn = FixedPoint(ranks, lengths)
            block = vertex_block(bn, i, i, 1, 1)
            one_minus = Character.one() - Character.from_monomial(
                Monomial.var(t_var(i), -1)
            )
            tail = Character(
                (Monomial.var(t_var(3 - i), -a), 1) for a in range(1, m + 1)
            )
            report.check(
                block == one_minus * tail,
                f"diagonal block closed form fails for i={i}, m={m}",
            )
    return report


def suite_bar_involution(count=100, seed=1):
    """``bar`` is an involutive ring map on random characters."""
    report = SuiteReport("bar-involution")
    rng = random.Random(seed)
    for _ in range(count):
        c = random_character(rng)
        report.check(c.bar().bar() == c, f"bar is not involutive on {c!r}")
        d = random_character(rng)
        report.check(
            (c * d).bar() == c.bar() * d.bar(),
            f"bar is not multiplicative on {c!r}, {d!r}",
        )
    return report


def suite_euler_multiplicativity(count=100, seed=1):
    """``k_euler(a + b) = k_euler(a) k_euler(b)`` on random characters."""
    report = SuiteReport("euler-multiplicativity")
    rng = random.Random(seed)
    for _ in range(count):
        a = random_character(rng, nontrivial=True)
        b = random_character(rng, nontrivial=True)
        report.check(
            k_euler(a + b) == k_euler(a) * k_euler(b),
            f"k_euler not multiplicative on {a!r}, {b!r}",
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
