"""Shared hypothesis strategies for the algebra kernels."""

from hypothesis import strategies as st

from quotloc.chars import Character, Monomial, T1, T2, U1, U2, w_var
from quotloc.rational import rational

VARS = (T1, T2, w_var(1, 1), w_var(1, 2), w_var(2, 1))
# every kind of variable, in sort order: t < u < w, and w by slot
SORTED_VARS = (T1, T2, U1, U2, w_var(1, 1), w_var(1, 2), w_var(2, 1), w_var(2, 3))


def monomials(min_exp=-4, max_exp=4, allow_trivial=True, variables=VARS):
    base = st.dictionaries(
        st.sampled_from(variables), st.integers(min_exp, max_exp), max_size=len(variables)
    ).map(Monomial)
    if allow_trivial:
        return base
    return base.filter(lambda m: not m.is_one)


def characters(allow_trivial=True, max_terms=6):
    return st.lists(
        st.tuples(
            monomials(allow_trivial=allow_trivial),
            st.integers(-4, 4).filter(bool),
        ),
        max_size=max_terms,
    ).map(Character)


def nonzero_rationals(lo=-30, hi=30):
    return st.builds(
        rational,
        st.integers(lo, hi).filter(bool),
        st.integers(1, hi),
    )
