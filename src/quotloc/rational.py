"""Exact rational scalar shared by every module: the stdlib
``fractions.Fraction``, imported under the one name ``rational``."""

from decimal import Decimal
from fractions import Fraction as rational

ZERO = rational(0)
ONE = rational(1)


def rat_str(value) -> str:
    """Serialize an exact rational as ``numerator/denominator``; ``Decimal`` has no digit limit."""
    q = rational(value)
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"
