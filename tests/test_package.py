"""The package root holds its submodules and ``__version__`` and nothing else: each
name is imported from the module that defines it."""

import fractions
import importlib
import pkgutil
import sys

import quotloc


def test_root_holds_only_submodules_and_version():
    names = {info.name for info in pkgutil.iter_modules(quotloc.__path__)}
    for name in names:
        importlib.import_module(f"quotloc.{name}")
    public = {name for name in vars(quotloc) if not name.startswith("_")}
    assert public == names
    assert all(getattr(quotloc, name) is sys.modules[f"quotloc.{name}"] for name in names)
    assert quotloc.__version__


def test_rational_is_a_module():
    import quotloc.rational as r

    assert r is sys.modules["quotloc.rational"]
    assert r.rational is fractions.Fraction
    assert r.rat_str(r.ZERO) == "0/1"


def test_rat_str_prints_a_rational_of_any_size():
    """A 5000-digit numerator and denominator print whole, past the digit limit
    that ``str`` of an ``int`` keeps by default."""
    import quotloc.rational as r

    n, d = 10**4999 + 1, 10**4999 + 3
    assert r.rat_str(r.rational(-n, d)) == "-1" + "0" * 4998 + "1/1" + "0" * 4998 + "3"
