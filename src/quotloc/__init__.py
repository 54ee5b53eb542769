"""Exact equivariant localization for Quot-scheme partition functions on a
pair of intersecting affine lines.

The package enumerates torus fixed points, builds their virtual tangent
characters, applies the K-theoretic and cohomological Euler operators and
sums the resulting q-series — all in exact rational arithmetic — and
cross-verifies every closed formula the theory provides: the plethystic
closed form, framing independence, the factorization into rank-one series,
the half-weight twist, the cohomological limit, the vanishing on the
``t1 t2 = 1`` locus, and an independent recomputation through the Quot
scheme of the affine plane.
"""

from .chars import (
    Character,
    FactoredForm,
    LinearForm,
    LinearFormProduct,
    Monomial,
    PoleAtPoint,
    TrivialDenominator,
    TrivialWeight,
    bar,
    coh_euler,
    k_euler,
    substitute_halfweights,
    t_var,
    u_var,
    var_name,
    w_var,
)
from .limits import (
    DivergentLimit,
    LimitValue,
    SpeedOrder,
    framing_limit,
    z_via_limits,
)
from .oracle import (
    Partition,
    PartitionTuple,
    partition_tuples,
    plane_q_char,
    plane_tvir,
    taut_char,
    z_oracle,
)
from .points import (
    EvalContext,
    PointAssignment,
    PointExhausted,
    rational_stream,
    retry_points,
    seeded_point,
)
from .rational import rat_str, rational
from .series import (
    BlockTable,
    QSeries,
    binom_series,
    cy_first_order,
    cy_first_order_closed,
    cy_order,
    euler_char_series,
    plethystic_exp,
    z_closed,
    z_localized,
    z_rank1_product,
    zcoh_closed,
    zcoh_localized,
    zhat_closed,
    zhat_localized,
)
from .vertex import (
    FixedPoint,
    MovabilityViolation,
    Ranks,
    box_char,
    contribution,
    det_char,
    fixed_points,
    q_char,
    smooth_tangent,
    vertex_block,
    vertex_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
