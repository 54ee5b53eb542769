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

__version__ = "0.1.0"
