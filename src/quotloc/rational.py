"""Exact rational scalar shared by every module.

The stdlib ``fractions.Fraction`` is the default.  When gmpy2 is installed
(the optional ``fast`` extra), its ``mpq`` is used instead as a faster
drop-in.  Both expose ``.numerator``/``.denominator`` and interoperate, so
nothing downstream depends on which one is active.
"""

try:
    from gmpy2 import mpq as rational
except ImportError:  # the default: gmpy2 is an optional extra
    from fractions import Fraction as rational

ZERO = rational(0)
ONE = rational(1)


def rat_str(value) -> str:
    """Serialize an exact rational as ``numerator/denominator``."""
    q = rational(value)
    return f"{q.numerator}/{q.denominator}"
