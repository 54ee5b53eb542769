"""Exact Laurent-character algebra over the localization torus.

A :class:`Monomial` is an integer exponent vector over the torus variables
``t1, t2``, the framing variables ``w(i, alpha)`` and, for half-weight
computations, ``u1, u2`` (with the convention ``u_i^2 = t_i``).  A
:class:`Character` is a finite integer combination of monomials, i.e. a
virtual torus representation.  The two Euler operators live here as well:
``k_euler`` sends a character ``sum t^mu - sum t^nu`` to the factored form
``prod (1 - t^-mu) / prod (1 - t^-nu)`` and ``coh_euler`` sends it to the
product of linear weight forms ``prod (mu . s)``.

Everything is immutable and arithmetic is exact; equality of canonical
forms is syntactic equality.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from .rational import ONE as RAT_ONE, ZERO as RAT_ZERO

# Variable identifiers.  Tuples sort consistently, which fixes the order in
# which seeded points assign values and the order monomials print.
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


class TrivialWeight(ArithmeticError):
    """The trivial weight occurred where a nonzero linear form is required."""


class PoleAtPoint(ArithmeticError):
    """A denominator factor vanished at the chosen evaluation point."""


class Monomial:
    """An irreducible torus character ``prod var^exponent``.

    Zero exponents are never stored, so two monomials are equal exactly when
    their exponent maps coincide.  Instances are immutable and hashable.
    """

    __slots__ = ("_exps", "_hash")

    def __init__(self, exponents: Mapping | Iterable = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        self._exps = tuple(sorted((v, int(e)) for v, e in items if e))
        self._hash = hash(self._exps)

    @classmethod
    def one(cls) -> "Monomial":
        return _MONOMIAL_ONE

    @classmethod
    def var(cls, var, exponent: int = 1) -> "Monomial":
        return cls(((var, exponent),))

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
        if not isinstance(other, Monomial):
            return NotImplemented
        if not other._exps:
            return self
        if not self._exps:
            return other
        merged = dict(self._exps)
        for v, e in other._exps:
            merged[v] = merged.get(v, 0) + e
        return Monomial(merged)

    def __pow__(self, k: int) -> "Monomial":
        if k == 1:
            return self
        return Monomial((v, e * k) for v, e in self._exps)

    def inverse(self) -> "Monomial":
        """The bar involution on an irreducible character: negate exponents."""
        return Monomial((v, -e) for v, e in self._exps)

    def restrict(self, keep) -> "Monomial":
        """Sub-monomial over the variables for which ``keep(var)`` is true."""
        return Monomial((v, e) for v, e in self._exps if keep(v))

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

    def __init__(self, terms: Mapping | Iterable = ()):
        data: dict[Monomial, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for m, c in items:
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

    def coefficient(self, m: Monomial) -> int:
        return self._terms.get(m, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator:
        return iter(self._terms.items())

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
        if isinstance(other, int):
            if not other:
                return Character.zero()
            out = Character.__new__(Character)
            out._terms = {m: c * other for m, c in self._terms.items()}
            return out
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

    def map_monomials(self, fn) -> "Character":
        """Apply a monomial map ``fn`` (a ring map on characters)."""
        return Character((fn(m), c) for m, c in self._terms.items())

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


def substitute_halfweights(character: Character) -> Character:
    """Replace every ``t_i^e`` by ``u_i^(2e)``; framing variables pass through.

    This realizes half-integer powers of ``t`` monomials inside the integral
    exponent lattice of the ``u`` variables.  The input may contain only
    ``t`` and ``w`` variables.
    """

    def to_u(m: Monomial) -> Monomial:
        exps = []
        for v, e in m.exponents():
            if v[0] == "t":
                exps.append((("u", v[1]), 2 * e))
            elif v[0] == "w":
                exps.append((v, e))
            else:
                raise ValueError(f"cannot substitute half-weights in {var_name(v)}")
        return Monomial(exps)

    return character.map_monomials(to_u)


class FactoredForm:
    """A signed multiset of monomials ``m`` denoting ``prod (1 - m)^c``.

    The image of the K-theoretic Euler operator.  ``zero`` marks the
    identically-zero element (a ``(1 - 1)`` factor in the numerator); the
    trivial monomial is never stored as a factor key.
    """

    __slots__ = ("_factors", "_zero")

    def __init__(self, factors: Mapping | Iterable = (), is_zero: bool = False):
        data: dict[Monomial, int] = {}
        items = factors.items() if isinstance(factors, Mapping) else factors
        for m, c in items:
            c = int(c)
            if not c:
                continue
            if m.is_one:
                raise ValueError("trivial monomial is not a valid factor")
            acc = data.get(m, 0) + c
            if acc:
                data[m] = acc
            else:
                del data[m]
        self._factors = data
        self._zero = bool(is_zero)

    @classmethod
    def one(cls) -> "FactoredForm":
        return cls()

    @classmethod
    def zero(cls) -> "FactoredForm":
        return cls((), is_zero=True)

    @property
    def is_zero(self) -> bool:
        return self._zero

    @property
    def is_one(self) -> bool:
        return not self._zero and not self._factors

    def factors(self):
        return self._factors.items()

    def __mul__(self, other: "FactoredForm") -> "FactoredForm":
        if not isinstance(other, FactoredForm):
            return NotImplemented
        if self._zero or other._zero:
            return FactoredForm.zero()
        data = dict(self._factors)
        for m, c in other._factors.items():
            acc = data.get(m, 0) + c
            if acc:
                data[m] = acc
            else:
                del data[m]
        out = FactoredForm.__new__(FactoredForm)
        out._factors = data
        out._zero = False
        return out

    def inverse(self) -> "FactoredForm":
        if self._zero:
            raise ZeroDivisionError("the zero factored form has no inverse")
        out = FactoredForm.__new__(FactoredForm)
        out._factors = {m: -c for m, c in self._factors.items()}
        out._zero = False
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FactoredForm)
            and self._zero == other._zero
            and self._factors == other._factors
        )

    __hash__ = None

    def eval_point(self, point):
        """Exact value ``prod (1 - m(p))^c`` at a point assignment.

        Raises :class:`PoleAtPoint` when a factor with negative multiplicity
        vanishes; a vanishing factor with positive multiplicity gives 0.
        """
        if self._zero:
            return RAT_ZERO
        value = RAT_ONE
        hit_zero = False
        mv = point.monomial_value
        for m, c in self._factors.items():
            f = 1 - mv(m)
            if not f:
                if c < 0:
                    raise PoleAtPoint(f"factor 1 - {m!r} vanishes at the point")
                hit_zero = True
            elif not hit_zero:
                value = value * f if c == 1 else value * f**c
        return RAT_ZERO if hit_zero else value

    def __repr__(self) -> str:
        if self._zero:
            return "0"
        if not self._factors:
            return "1"
        bits = []
        for m, c in sorted(self._factors.items(), key=lambda mc: mc[0].exponents()):
            base = f"(1 - {m!r})"
            bits.append(base if c == 1 else f"{base}^{c}")
        return "*".join(bits)


def k_euler(character: Character) -> FactoredForm:
    """The K-theoretic Euler operator on a virtual character.

    ``sum_mu t^mu - sum_nu t^nu`` maps to
    ``prod_mu (1 - t^-mu) / prod_nu (1 - t^-nu)``.  A trivial weight with
    positive multiplicity makes the result the zero class; with negative
    multiplicity the operator is undefined.
    """
    k0 = character.trivial_coefficient()
    if k0 < 0:
        raise TrivialDenominator("trivial weight occurs with negative multiplicity")
    form = FactoredForm(
        (m.inverse(), c) for m, c in character.items() if not m.is_one
    )
    if k0 > 0:
        return FactoredForm.zero()
    return form


class LinearForm:
    """An integer linear form ``mu . s`` in the cohomological variables.

    The image of an irreducible character ``t1^a t2^b prod w^e`` is
    ``a*s1 + b*s2 + sum e*v`` where ``s_i`` and ``v(i, alpha)`` generate the
    equivariant cohomology of the point.
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self._coeffs = tuple(sorted((v, int(c)) for v, c in items if c))
        self._hash = hash(self._coeffs)

    @classmethod
    def from_monomial(cls, m: Monomial) -> "LinearForm":
        coeffs = []
        for v, e in m.exponents():
            if v[0] == "t":
                coeffs.append((("s", v[1]), e))
            elif v[0] == "w":
                coeffs.append(((("v",) + v[1:]), e))
            else:
                raise ValueError(f"no cohomological variable for {var_name(v)}")
        return cls(coeffs)

    def coefficients(self) -> tuple:
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def eval_point(self, point):
        value = RAT_ZERO
        for v, c in self._coeffs:
            value += c * point.value(v)
        return value

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearForm) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        bits = []
        for v, c in self._coeffs:
            name = var_name(v)
            if c == 1:
                bits.append(f"+ {name}")
            elif c == -1:
                bits.append(f"- {name}")
            elif c < 0:
                bits.append(f"- {-c}{name}")
            else:
                bits.append(f"+ {c}{name}")
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else text


class LinearFormProduct:
    """A product ``prod (mu . s)^k`` of linear forms with integer powers.

    The cohomological analogue of :class:`FactoredForm`.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors: Mapping | Iterable = ()):
        data: dict[LinearForm, int] = {}
        items = factors.items() if isinstance(factors, Mapping) else factors
        for form, c in items:
            c = int(c)
            if not c:
                continue
            acc = data.get(form, 0) + c
            if acc:
                data[form] = acc
            else:
                del data[form]
        self._factors = data

    def factors(self):
        return self._factors.items()

    def __mul__(self, other: "LinearFormProduct") -> "LinearFormProduct":
        if not isinstance(other, LinearFormProduct):
            return NotImplemented
        data = dict(self._factors)
        for f, c in other._factors.items():
            acc = data.get(f, 0) + c
            if acc:
                data[f] = acc
            else:
                del data[f]
        out = LinearFormProduct.__new__(LinearFormProduct)
        out._factors = data
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearFormProduct) and self._factors == other._factors

    __hash__ = None

    def eval_point(self, point):
        value = RAT_ONE
        hit_zero = False
        for form, c in self._factors.items():
            f = form.eval_point(point)
            if not f:
                if c < 0:
                    raise PoleAtPoint(f"linear form {form!r} vanishes at the point")
                hit_zero = True
            elif not hit_zero:
                value = value * f if c == 1 else value * f**c
        return RAT_ZERO if hit_zero else value

    def __repr__(self) -> str:
        if not self._factors:
            return "1"
        bits = []
        for form, c in sorted(self._factors.items(), key=lambda fc: fc[0].coefficients()):
            base = f"({form!r})"
            bits.append(base if c == 1 else f"{base}^{c}")
        return "*".join(bits)


def coh_euler(character: Character) -> LinearFormProduct:
    """The cohomological Euler operator: ``t^mu`` maps to the linear form
    ``mu . s`` and sums map to products with signed powers.

    The trivial weight has the zero linear form and is rejected.
    """
    if character.trivial_coefficient():
        raise TrivialWeight("trivial weight has the zero linear form")
    return LinearFormProduct(
        (LinearForm.from_monomial(m), c) for m, c in character.items()
    )
