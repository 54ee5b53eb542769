"""What the traced run wraps, and the per-layer metrics it reports.

A layer is a module of ``quotloc``.  Spans sit on the functions that other
layers call into (plus the suites, which are the roots, and
``ratfun.poly_gcd``, whose call count is a metric of its own).  Helpers that
only their own module calls (``box_char``, ``plane_q_char``,
``limit_weight`` ...) stay inside their caller's self time.
``PointAssignment.monomial_value`` runs once per factor lookup, too often for
a span per call, so it is only counted.
"""

from __future__ import annotations

import statistics

from tracer import LABEL, Target, by_label, enclosing, layer_self, self_times

SUITE_NAMES = (
    "suite_closed_form", "suite_rank1_product", "suite_framing", "suite_factorization",
    "suite_limits", "suite_oracle", "suite_cohomological", "suite_no_twist",
    "suite_cy_vanishing", "suite_euler_count", "suite_smooth_chi_y",
    "suite_vertex_properties", "suite_diagonal_blocks", "suite_bar_involution",
    "suite_euler_multiplicativity",
)


def _targets(layer: str, names: str, make=None) -> list:
    """Targets in module ``layer``; ``attr=alias`` names the span ``layer.alias``."""
    out = []
    for name in names.split():
        attr, _, alias = name.partition("=")
        label = f"{layer}.{alias or attr.rsplit('.', 1)[-1]}"
        out.append(Target(label, f"quotloc.{layer}", attr, make))
    return out


def _count_lookups(tracer, label, fn):
    """Count monomial lookups at a point, and those its memo answers."""
    counters = tracer.counters

    def monomial_value(point, monomial):
        counters["points.lookups"] += 1
        if monomial in point._memo:
            counters["points.memo_hits"] += 1
        return fn(point, monomial)

    return monomial_value


TARGETS = (
    _targets("suites", " ".join(SUITE_NAMES))
    + _targets("vertex", "fixed_points vertex_term vertex_block vertex_blocks_sum contribution "
                         "det_char smooth_tangent")
    + _targets("chars", "k_euler coh_euler substitute_halfweights FactoredForm.eval_point "
                        "LinearFormProduct.eval_point FactoredForm.eval_univar")
    + _targets("points", "draw_point retry_points seeded_point")
    + _targets("points", "PointAssignment.monomial_value", make=_count_lookups)
    + _targets("series", "localized_forms eval_forms z_localized z_closed z_rank1_product "
                         "zhat_localized zhat_closed zcoh_localized zcoh_closed plethystic_exp "
                         "binom_series euler_char_series cy_certificate_with_point=cy_certificate "
                         "cy_vanishing_certificate")
    + _targets("oracle", "partition_tuples plane_tvir taut_char oracle_contribution oracle_forms "
                         "z_oracle")
    + _targets("limits", "z_via_limits framing_limit block_limit crossing_shift_monomial "
                         "factored_shift_monomial")
    + _targets("ratfun", "poly_gcd UnivarRatFun.__init__=new UnivarRatFun.__add__=add "
                         "UnivarRatFun.__call__=call UnivarRatFun.is_pole")
    + _targets("parallel", "parallel_map")
)

SERIES_RESULTS = (
    "series.eval_forms", "series.z_localized", "series.zhat_localized", "series.zcoh_localized",
    "series.z_closed", "series.zhat_closed", "series.zcoh_closed", "series.z_rank1_product",
    "limits.z_via_limits", "oracle.z_oracle",
)
RETRY_LOOPS = ("points.retry_points", "series.cy_certificate")
CLOSED_SIDE = ("series.z_closed", "series.zhat_closed", "series.zcoh_closed")
LAYERS = ("suites", "vertex", "chars", "points", "series", "oracle", "limits", "ratfun", "parallel")

S, COUNT = "s", "count"
PER_LAYER = (
    ("vertex.fixed_points.count", COUNT),
    ("oracle.partition_tuples.count", COUNT),
    ("vertex.vertex_term.calls", COUNT),
    ("vertex.vertex_term.self_s", S),
    ("chars.k_euler.calls", COUNT),
    ("chars.k_euler.self_s", S),
    ("chars.eval_point.calls", COUNT),
    ("chars.eval_point.self_s", S),
    ("points.memo_hit_ratio", "ratio"),
    ("series.coeff_bits_max", "bits"),
    ("series.eval_forms.p50_ms", "ms"),
    ("series.eval_forms.p90_ms", "ms"),
    ("oracle.plane_tvir.self_s", S),
    ("oracle.taut_char.self_s", S),
    ("ratfun.self_s", S),
    ("ratfun.poly_gcd.calls", COUNT),
    ("chars.eval_univar.self_s", S),
    ("series.cy_certificate.incl_s", S),
    ("limits.z_via_limits.self_s", S),
    ("series.zhat_localized.self_s", S),
    ("series.zcoh_localized.self_s", S),
    ("series.closed_side_s", S),
    ("parallel.parallel_map.self_s", S),
    ("parallel.parallel_map.items", COUNT),
    ("points.draws", COUNT),
    ("points.pole_retries", COUNT),
    ("points.retry_budget_used_max", COUNT),
    ("suites.self_s", S),
    ("vertex.self_s", S),
    ("chars.self_s", S),
    ("points.self_s", S),
    ("series.self_s", S),
    ("oracle.self_s", S),
    ("limits.self_s", S),
    ("parallel.self_s", S),
    ("trace.wall_s", S),
    ("trace.accounted_ratio", "ratio"),
    ("trace.spans", COUNT),
    ("trace.overhead_s", S),
)


def install(tracer) -> None:
    """Wrap every target and register the observers the metrics need."""
    import quotloc.chars
    import quotloc.suites  # noqa: F401  (loads every module the targets name)

    poles = [quotloc.chars.PoleAtPoint]
    try:
        from quotloc.ratfun import ZeroDenominator
    except ImportError:
        pass
    else:
        poles.append(ZeroDenominator)
    tracer.pole_types = tuple(poles)
    counters = tracer.counters

    def count_result(key):
        def observe(args, kwargs, result):
            counters[key] += len(result)
        return observe

    def count_items(args, kwargs, result):
        counters["parallel.items"] += len(args[1] if len(args) > 1 else kwargs["items"])

    def coeff_bits(args, kwargs, result):
        bits = max(
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for c in result.coefficients
        )
        counters["series.coeff_bits_max"] = max(counters["series.coeff_bits_max"], bits)

    tracer.observers["vertex.fixed_points"] = count_result("vertex.fixed_points")
    tracer.observers["oracle.partition_tuples"] = count_result("oracle.partition_tuples")
    tracer.observers["parallel.parallel_map"] = count_items
    for label in SERIES_RESULTS:
        tracer.observers[label] = coeff_bits
    tracer.install(TARGETS)


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=10, method="inclusive")[q - 1] * 1e3


def summarize(tracer, wall_s: float) -> dict:
    """Every per-layer metric of one traced run, by name."""
    spans = tracer.spans
    selfs = self_times(spans)
    labels = by_label(spans, selfs)
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []}

    def get(label, key):
        return labels.get(label, empty)[key]

    per_layer = layer_self(labels)
    retries: dict = {}
    for origin in tracer.pole_origins:
        loop = enclosing(spans, origin, RETRY_LOOPS)
        if loop >= 0:
            retries[loop] = retries.get(loop, 0) + 1
    loops = [i for i, s in enumerate(spans) if s[LABEL] in RETRY_LOOPS]
    counters = tracer.counters
    lookups = counters["points.lookups"]
    eval_forms = get("series.eval_forms", "durations")
    accounted = sum(selfs)

    m = {
        "vertex.fixed_points.count": counters["vertex.fixed_points"],
        "oracle.partition_tuples.count": counters["oracle.partition_tuples"],
        "vertex.vertex_term.calls": get("vertex.vertex_term", "calls"),
        "vertex.vertex_term.self_s": get("vertex.vertex_term", "self_s"),
        "chars.k_euler.calls": get("chars.k_euler", "calls"),
        "chars.k_euler.self_s": get("chars.k_euler", "self_s"),
        "chars.eval_point.calls": get("chars.eval_point", "calls"),
        "chars.eval_point.self_s": get("chars.eval_point", "self_s"),
        "points.memo_hit_ratio": counters["points.memo_hits"] / lookups if lookups else 0.0,
        "series.coeff_bits_max": counters["series.coeff_bits_max"],
        "series.eval_forms.p50_ms": _quantile_ms(eval_forms, 5),
        "series.eval_forms.p90_ms": _quantile_ms(eval_forms, 9),
        "oracle.plane_tvir.self_s": get("oracle.plane_tvir", "self_s"),
        "oracle.taut_char.self_s": get("oracle.taut_char", "self_s"),
        "ratfun.poly_gcd.calls": get("ratfun.poly_gcd", "calls"),
        "chars.eval_univar.self_s": get("chars.eval_univar", "self_s"),
        "series.cy_certificate.incl_s": get("series.cy_certificate", "incl_s"),
        "limits.z_via_limits.self_s": get("limits.z_via_limits", "self_s"),
        "series.zhat_localized.self_s": get("series.zhat_localized", "self_s"),
        "series.zcoh_localized.self_s": get("series.zcoh_localized", "self_s"),
        "series.closed_side_s": sum(get(label, "incl_s") for label in CLOSED_SIDE),
        "parallel.parallel_map.self_s": get("parallel.parallel_map", "self_s"),
        "parallel.parallel_map.items": counters["parallel.items"],
        "points.draws": get("points.draw_point", "calls"),
        "points.pole_retries": len(tracer.pole_origins),
        "points.retry_budget_used_max": max((1 + retries.get(i, 0) for i in loops), default=0),
        "trace.wall_s": wall_s,
        "trace.accounted_ratio": accounted / wall_s if wall_s > 0 else 0.0,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_layer.get(layer, 0.0)
    return m
