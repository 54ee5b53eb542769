"""Exact equivariant localization for Quot-scheme partition functions on a
pair of intersecting affine lines.

The package enumerates torus fixed points, builds their virtual tangent
characters, applies the K-theoretic Euler operator, evaluates the weights
at K-theoretic, half-weight and cohomological points and sums the
resulting q-series — all in exact rational arithmetic — and
cross-verifies every closed formula the theory provides: the plethystic
closed form, framing independence, the factorization into rank-one series,
the half-weight twist, the cohomological limit, the vanishing on the
``t1 t2 = 1`` locus, and an independent recomputation through the Quot
scheme of the affine plane.
"""

from .chars import (
    Character,
    FactoredForm,
    Monomial,
    PoleAtPoint,
    TrivialDenominator,
    k_euler,
    pair_value,
    t_var,
    u_var,
    var_name,
    w_var,
)
from .limits import (
    DivergentLimit,
    framing_limit,
    limit_table,
)
from .oracle import (
    PartitionTuple,
    oracle_forms,
    partition_tuples,
    plane_q_char,
    plane_tvir,
    taut_char,
)
from .points import (
    LinearPoint,
    PointAssignment,
    PointExhausted,
    rational_stream,
    retry_points,
    seeded_point,
)
from .rational import rat_str, rational
from .series import (
    BlockTable,
    DiagonalPoint,
    QSeries,
    cy_first_order,
    cy_first_order_closed,
    cy_order,
    euler_char_series,
    eval_forms,
    half_weight_twist,
    localized_forms,
    plethystic_exp,
    single_box,
    twisted_point,
    z_closed,
    z_rank1_product,
    zcoh_closed,
    zhat_closed,
)
from .vertex import (
    FixedPoint,
    MovabilityViolation,
    Ranks,
    box_char,
    contribution,
    fixed_points,
    q_char,
    smooth_tangent,
    vertex_block,
    vertex_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
