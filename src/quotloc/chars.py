"""Exact Laurent-character algebra over the localization torus.

A :class:`Monomial` is an integer exponent vector over the torus variables
``t1, t2``, the framing variables ``w(i, alpha)`` and, for half-weight
computations, ``u1, u2`` (with the convention ``u_i^2 = t_i``).  A
:class:`Character` is a finite integer combination of monomials, i.e. a
virtual torus representation.  The Euler operator lives here as well:
``k_euler`` sends a character ``sum t^mu - sum t^nu`` to the factored form
``prod (1 - t^-mu) / prod (1 - t^-nu)``.  The half-weight and cohomological
versions of a form are its values at transformed points (``t = u^2``, and
``t^mu -> 1 + mu . s``, see :mod:`quotloc.points`), not separate forms.

Everything is immutable and arithmetic is exact; equality of canonical
forms is syntactic equality.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from .rational import rational

# Variable identifiers.  Tuples sort consistently, which fixes the order in
# which seeded points assign values, the order monomials print and the speed
# hierarchy of the framing limits: ``t < u < w``, and ``("w", i, a)`` by slot.
T1 = ("t", 1)
T2 = ("t", 2)
U1 = ("u", 1)
U2 = ("u", 2)


def t_var(i: int):
    """The weight variable of the torus factor scaling the ``x_i`` axis."""
    if i not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {i}")
    return ("t", i)


def u_var(i: int):
    """The formal square root of ``t_i`` used for half-integer twists."""
    if i not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {i}")
    return ("u", i)


def w_var(i: int, alpha: int):
    """The framing variable scaling summand ``alpha`` on line ``i``."""
    if i not in (1, 2) or alpha < 1:
        raise ValueError(f"bad framing index ({i}, {alpha})")
    return ("w", i, alpha)


def var_name(var) -> str:
    """Short printable name: ``t1``, ``u2``, ``w21``, ``s1``, ``v11``..."""
    kind = var[0]
    if kind in ("t", "u", "s"):
        return f"{kind}{var[1]}"
    return f"{kind}{var[1]}{var[2]}" if var[2] < 10 else f"{kind}{var[1]}_{var[2]}"


class TrivialDenominator(ArithmeticError):
    """The trivial weight occurred with negative multiplicity under ``k_euler``."""


class PoleAtPoint(ArithmeticError):
    """A denominator factor vanished at the chosen evaluation point."""


def pair_value(n: int, d: int):
    """The exact rational ``n / d`` of an unreduced value pair; ``d == 0``
    is a pole and raises :class:`PoleAtPoint`."""
    if not d:
        raise PoleAtPoint("a denominator factor vanishes at the point")
    return rational(n, d)


class Monomial:
    """An irreducible torus character ``prod var^exponent``.

    Zero exponents are never stored, so two monomials are equal exactly when
    their exponent maps coincide.  Instances are immutable and hashable.
    """

    __slots__ = ("_exps", "_hash")

    def __init__(self, exponents: Mapping | Iterable = ()):
        if not isinstance(exponents, Mapping):  # a repeated variable adds up
            merged: dict = {}
            for v, e in exponents:
                merged[v] = merged.get(v, 0) + e
            exponents = merged
        self._exps = tuple(sorted((v, int(e)) for v, e in exponents.items() if e))
        self._hash = hash(self._exps)

    @classmethod
    def _canonical(cls, exps: tuple) -> "Monomial":
        """The monomial of a sorted tuple of nonzero exponents, built from a list:
        a tuple grown from a generator can keep its over-allocated block."""
        out = cls.__new__(cls)
        out._exps, out._hash = exps, hash(exps)
        return out

    @classmethod
    def one(cls) -> "Monomial":
        return _MONOMIAL_ONE

    @classmethod
    def var(cls, var, exponent: int = 1) -> "Monomial":
        return cls._canonical(((var, int(exponent)),) if exponent else ())

    def exponents(self) -> tuple:
        """The stored ``(variable, exponent)`` pairs, sorted by variable."""
        return self._exps

    def exponent(self, var) -> int:
        for v, e in self._exps:
            if v == var:
                return e
        return 0

    def variables(self) -> tuple:
        return tuple(v for v, _ in self._exps)

    @property
    def is_one(self) -> bool:
        return not self._exps

    def __mul__(self, other: "Monomial") -> "Monomial":
        """The product; when every variable of one side sorts before every variable of
        the other (a ``t``-part times a ``w``-part), the sorted exponents concatenate."""
        if not isinstance(other, Monomial):
            return NotImplemented
        a, b = self._exps, other._exps
        if not b:
            return self
        if not a:
            return other
        if a[-1][0] < b[0][0]:
            return Monomial._canonical(a + b)
        if b[-1][0] < a[0][0]:
            return Monomial._canonical(b + a)
        merged = dict(a)
        for v, e in b:
            merged[v] = merged.get(v, 0) + e
        return Monomial(merged)

    def __pow__(self, k: int) -> "Monomial":
        if k == 1:
            return self
        return Monomial._canonical(tuple([(v, e * k) for v, e in self._exps]) if k else ())

    def inverse(self) -> "Monomial":
        """The bar involution on an irreducible character: negate exponents."""
        return Monomial._canonical(tuple([(v, -e) for v, e in self._exps]))

    def restrict(self, keep) -> "Monomial":
        """Sub-monomial over the variables for which ``keep(var)`` is true."""
        return Monomial._canonical(tuple([(v, e) for v, e in self._exps if keep(v)]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._exps:
            return "1"
        parts = []
        for v, e in self._exps:
            parts.append(var_name(v) if e == 1 else f"{var_name(v)}^{e}")
        return "*".join(parts)


_MONOMIAL_ONE = Monomial()


class Character:
    """A virtual torus representation: monomials with integer multiplicities."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable = ()):
        data: dict[Monomial, int] = {}
        for m, c in terms:
            c = int(c)
            if not c:
                continue
            acc = data.get(m, 0) + c
            if acc:
                data[m] = acc
            else:
                del data[m]
        self._terms = data

    @classmethod
    def zero(cls) -> "Character":
        return cls()

    @classmethod
    def one(cls) -> "Character":
        return cls(((_MONOMIAL_ONE, 1),))

    @classmethod
    def from_monomial(cls, m: Monomial, coefficient: int = 1) -> "Character":
        return cls(((m, coefficient),))

    def items(self):
        return self._terms.items()

    def monomials(self):
        return self._terms.keys()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def rank(self) -> int:
        """Virtual dimension: the sum of all multiplicities."""
        return sum(self._terms.values())

    def __add__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        data = dict(self._terms)
        for m, c in other._terms.items():
            acc = data.get(m, 0) + c
            if acc:
                data[m] = acc
            else:
                del data[m]
        out = Character.__new__(Character)
        out._terms = data
        return out

    def __neg__(self) -> "Character":
        out = Character.__new__(Character)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Monomial):
            out = Character.__new__(Character)
            out._terms = {m * other: c for m, c in self._terms.items()}
            return out
        if isinstance(other, Character):
            data: dict[Monomial, int] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    m = m1 * m2
                    acc = data.get(m, 0) + c1 * c2
                    if acc:
                        data[m] = acc
                    elif m in data:
                        del data[m]
            out = Character.__new__(Character)
            out._terms = data
            return out
        return NotImplemented

    __rmul__ = __mul__

    def bar(self) -> "Character":
        """The involution ``t^mu -> t^-mu`` extended linearly."""
        out = Character.__new__(Character)
        out._terms = {m.inverse(): c for m, c in self._terms.items()}
        return out

    def det(self) -> Monomial:
        """Determinant character: the product ``prod m^c`` over all terms."""
        acc: dict = {}
        for m, c in self._terms.items():
            for v, e in m.exponents():
                acc[v] = acc.get(v, 0) + e * c
        return Monomial(acc)

    def trivial_coefficient(self) -> int:
        return self._terms.get(_MONOMIAL_ONE, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Character) and self._terms == other._terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for m, c in sorted(self._terms.items(), key=lambda mc: mc[0].exponents()):
            if c == 1:
                bits.append(f"+ {m!r}")
            elif c == -1:
                bits.append(f"- {m!r}")
            elif c < 0:
                bits.append(f"- {-c}*{m!r}")
            else:
                bits.append(f"+ {c}*{m!r}")
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else text


class FactoredForm:
    """``monomial * prod (1 - m)^c`` over the terms ``c m`` of a character of factors.

    The image of the K-theoretic Euler operator (``monomial`` 1), never identically zero:
    the zero class is ``None`` (see :func:`k_euler`); a framing limit keeps a monomial (see
    :func:`~quotloc.limits.framing_limit`).  The trivial monomial is never a factor, and
    ``character`` and ``monomial`` are read-only.
    """

    __slots__ = ("character", "monomial")

    def __init__(self, factors: Character | Iterable = (), monomial=_MONOMIAL_ONE):
        self.character = factors if isinstance(factors, Character) else Character(factors)
        self.monomial = monomial
        if self.character.trivial_coefficient():
            raise ValueError("trivial monomial is not a valid factor")

    @classmethod
    def one(cls) -> "FactoredForm":
        return cls()

    @property
    def is_one(self) -> bool:
        return self.monomial.is_one and self.character.is_zero

    def factors(self):
        return self.character.items()

    def __mul__(self, other: "FactoredForm") -> "FactoredForm":
        if not isinstance(other, FactoredForm):
            return NotImplemented
        return FactoredForm(self.character + other.character, self.monomial * other.monomial)

    def adams(self, k: int) -> "FactoredForm":
        """The Adams operation ``psi_k``: each factor and the monomial to the ``k``-th power."""
        return FactoredForm(Character((m**k, c) for m, c in self.factors()), self.monomial**k)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FactoredForm)
            and self.monomial == other.monomial
            and self.character == other.character
        )

    __hash__ = None

    def atoms(self, point):
        """``(numerator, denominator)``, whose products are :meth:`eval_pair`; the one
        multiplicity rule: with ``point.factor(m) = (a, b)``, ``(1 - m)^c`` puts ``a`` ``c`` times
        in the numerator and ``b`` in the denominator if ``c > 0``, else ``b`` and ``a`` ``-c``.
        A monomial other than 1 puts its pair ``point.monomial_pair(monomial)`` first."""
        num, den = [], []
        if not self.monomial.is_one:
            a, b = point.monomial_pair(self.monomial)
            num.append(a)
            den.append(b)
        for m, c in self.character.items():
            a, b = point.factor(m)
            if c < 0:
                a, b, c = b, a, -c
            num += [a] * c
            den += [b] * c
        return tuple(num), tuple(den)

    def eval_pair(self, point):
        """Exact value ``monomial(p) * prod (1 - m(p))^c`` at a point assignment, as the
        unreduced integer pair ``(n, d)`` of :meth:`atoms`.  A vanishing numerator factor gives
        ``n == 0``, a vanishing denominator factor ``d == 0`` whatever else vanishes
        (see :func:`pair_value`)."""
        num, den = self.atoms(point)
        return math.prod(num), math.prod(den)

    def eval_point(self, point):
        """The value of :meth:`eval_pair` as one exact rational."""
        return pair_value(*self.eval_pair(point))

    def __repr__(self) -> str:
        bits = [] if self.monomial.is_one else [repr(self.monomial)]
        for m, c in sorted(self.factors(), key=lambda mc: mc[0].exponents()):
            base = f"(1 - {m!r})"
            bits.append(base if c == 1 else f"{base}^{c}")
        return "*".join(bits) or "1"


def k_euler(character: Character) -> FactoredForm | None:
    """The K-theoretic Euler operator on a virtual character.

    ``sum_mu t^mu - sum_nu t^nu`` maps to
    ``prod_mu (1 - t^-mu) / prod_nu (1 - t^-nu)``.  A trivial weight with
    positive multiplicity makes the result the zero class ``None``; with
    negative multiplicity the operator is undefined.
    """
    k0 = character.trivial_coefficient()
    if k0 < 0:
        raise TrivialDenominator("trivial weight occurs with negative multiplicity")
    return None if k0 else FactoredForm(character.bar())
