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
