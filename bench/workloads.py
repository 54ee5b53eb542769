"""The benchmark's workloads: suite calls against ``quotloc.suites``.

Every workload is closed-loop and single-process: the suite calls run one
after another in one fresh interpreter.  Ranks are written as ``(r1, r2)``
pairs and turned into ``quotloc.vertex.Ranks`` when a call is built.  The
benchmark seed is passed to every suite that takes a ``seed``.  ``checks``
is the number of checks the call must report; it does not depend on the
seed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    suite: str
    kwargs: tuple  # (name, value) pairs
    checks: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple

    @property
    def checks(self) -> int:
        return sum(c.checks for c in self.calls)


def call(suite: str, checks: int, **kwargs) -> Call:
    return Call(suite, tuple(sorted(kwargs.items())), checks)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "frontier",
            "closed-form (2,2) and (3,1) at order 10, one point each: 2002 fixed points; "
            "building the characters and Euler forms dominates",
            (call("suite_closed_form", 2, ranks_list=((2, 2), (3, 1)), order=10, num_points=1),),
        ),
        Workload(
            "many-points",
            "closed-form (2,1) at order 8 at 100 points: 16500 weight evaluations of forms "
            "built once; evaluation at a point dominates",
            (call("suite_closed_form", 100, ranks_list=((2, 1),), order=8, num_points=100),),
        ),
        Workload(
            "oracle",
            "plane Quot oracle, total rank <= 3, order 6, 3 points: 4301 checks on "
            "Young-diagram characters with a quadratic Q*bar(Q) term",
            (call("suite_oracle", 4301, order=6, num_points=3),),
        ),
        Workload(
            "acceptance",
            "the eleven acceptance criteria at their stated scale, 4471 checks; the only "
            "workload with cy certificates, limits, twisted and cohomological sums",
            (
                call("suite_closed_form", 30, order=6, num_points=5),
                call("suite_rank1_product", 5, order=8),
                call("suite_framing", 2, order=5, num_assignments=3),
                call("suite_factorization", 27, order=4),
                call("suite_limits", 1367, max_len=5),
                call("suite_oracle", 991, order=4, num_points=3),
                call("suite_no_twist", 944, det_len=5, order=5, num_points=5),
                call("suite_cohomological", 15, order=4, num_points=5),
                call("suite_euler_count", 154, max_len=10),
                call("suite_cy_vanishing", 135, max_len=5, num_seeds=3),
                call("suite_smooth_chi_y", 83, max_len=5),
                call("suite_vertex_properties", 400, count=100),
                call("suite_diagonal_blocks", 18, max_len=8),
                call("suite_bar_involution", 200, count=100),
                call("suite_euler_multiplicativity", 100, count=100),
            ),
        ),
    )
}


def resolve(c: Call, suites, seed: int) -> tuple:
    """The suite function and its complete keyword arguments: ranks built,
    the seed added where the suite takes one, defaults filled in."""
    from quotloc.vertex import Ranks

    fn = getattr(suites, c.suite)
    kwargs = dict(c.kwargs)
    for key in ("ranks", "ranks_list", "det_ranks"):
        if key in kwargs:
            value = kwargs[key]
            kwargs[key] = Ranks(*value) if key == "ranks" else tuple(Ranks(*r) for r in value)
    signature = inspect.signature(fn)
    if "seed" in signature.parameters:
        kwargs["seed"] = seed
    bound = signature.bind(**kwargs)
    bound.apply_defaults()
    return fn, dict(bound.arguments)


def weight_count(c: Call, suites, seed: int) -> int:
    """Fixed-point weights whose values enter a compared coefficient.

    One weight per fixed point (composition, or partition tuple on the
    oracle side) per evaluation point or seed; symbolic checks count none.
    The count depends only on the inputs.
    """
    from quotloc.oracle import partition_tuples
    from quotloc.vertex import fixed_points

    _, a = resolve(c, suites, seed)

    def fp(ranks, order, low=0):
        return sum(len(fixed_points(ranks, n)) for n in range(low, order + 1))

    def pt(ranks, order):
        return sum(len(partition_tuples(ranks, n)) for n in range(order + 1))

    def ranks_list(default_total):
        given = a.get("ranks_list")
        return suites.ranks_up_to(default_total) if given is None else given

    name = c.suite
    if name in ("suite_closed_form", "suite_cohomological", "suite_no_twist"):
        return a["num_points"] * sum(fp(r, a["order"]) for r in a["ranks_list"])
    if name == "suite_framing":
        return a["num_assignments"] * fp(a["ranks"], a["order"])
    if name == "suite_factorization":
        # the limit-calculus sum and the localized sum, per point
        return a["num_points"] * sum(2 * fp(r, a["order"]) for r in a["ranks_list"])
    if name == "suite_oracle":
        return a["num_points"] * sum(fp(r, a["order"]) + pt(r, a["order"]) for r in ranks_list(3))
    if name == "suite_cy_vanishing":
        return a["num_seeds"] * sum(fp(r, a["max_len"], low=1) for r in ranks_list(3))
    return 0
