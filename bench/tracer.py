"""Span tracer for the benchmark's traced run.

The tracer wraps functions and methods of the ``quotloc`` modules from the
outside; the package itself carries no instrumentation.  Every wrapped call
records one span ``[label, start, end, parent, root]``, where ``parent`` and
``root`` are indices into the span list (``-1`` for no parent) and every
top-level call (a suite) is its own root.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans add up to the durations of the roots.

``from .x import y`` copies the reference into the importing module, so a
wrapper is bound under every name, in every ``quotloc`` module, that holds
the original function.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

LABEL, START, END, PARENT, ROOT = range(5)


@dataclass(frozen=True)
class Target:
    """One function or method to trace.

    ``label`` names the span (``<module>.<name>``, the module being the
    layer).  ``where`` is the module path and ``attr`` the attribute inside
    it, ``Class.method`` for a method.  ``make(tracer, label, fn)``, when
    given, builds the wrapper in place of a span recorder; it serves
    functions called too often to record a span per call.
    """

    label: str
    where: str
    attr: str
    make: Optional[Callable] = None


class Tracer:
    """Spans and counters kept in memory, written out after the run."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: Counter = Counter()
        self.observers: dict = {}
        self.pole_types: tuple = ()
        self.pole_origins: list = []
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, label: str, fn: Callable) -> Callable:
        """A wrapper that records one span per call of ``fn``."""
        spans, stack, clock = self.spans, self._stack, self.clock
        observers = self.observers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            record = [label, 0.0, 0.0, parent, spans[parent][ROOT] if parent >= 0 else index]
            spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except self.pole_types as exc:
                if not getattr(exc, "_bench_origin_seen", False):
                    exc._bench_origin_seen = True
                    self.pole_origins.append(index)
                raise
            finally:
                record[END] = clock()
                stack.pop()
            observe = observers.get(label)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, targets, package: str = "quotloc") -> None:
        """Wrap every target that exists; record the labels that do not.

        A missing target is not an error: a later version of the program may
        have removed the function, and its metrics then read zero.
        """
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for target in targets:
            owner = sys.modules.get(target.where)
            *cls_path, name = target.attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(name) if owner is not None else None
            if original is None:
                self.missing.append(target.label)
                continue
            if target.make is None:
                wrapper = self.wrap(target.label, original)
            else:
                wrapper = target.make(self, target.label, original)
            if cls_path:
                self._rebind_in(owner, original, wrapper)
            else:
                for module in modules:
                    self._rebind_in(module, original, wrapper)

    def _rebind_in(self, namespace, original, wrapper) -> None:
        for key, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, key, wrapper)
                self._undo.append((namespace, key, original))

    def uninstall(self) -> None:
        """Put every original reference back."""
        while self._undo:
            namespace, key, original = self._undo.pop()
            setattr(namespace, key, original)


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def by_label(spans: list, selfs: Optional[list] = None) -> dict:
    """Per label: ``calls``, inclusive seconds ``incl_s``, ``self_s`` and the
    list of ``durations``."""
    if selfs is None:
        selfs = self_times(spans)
    out: dict = {}
    for s, own in zip(spans, selfs):
        entry = out.setdefault(s[LABEL], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []})
        duration = s[END] - s[START]
        entry["calls"] += 1
        entry["incl_s"] += duration
        entry["self_s"] += own
        entry["durations"].append(duration)
    return out


def layer_self(labels: dict) -> dict:
    """Self seconds per layer, the layer being the label's first component."""
    out: dict = {}
    for label, entry in labels.items():
        layer = label.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + entry["self_s"]
    return out


def enclosing(spans: list, index: int, labels) -> int:
    """Index of the nearest span at or above ``index`` whose label is in
    ``labels``; ``-1`` if there is none."""
    while index >= 0:
        if spans[index][LABEL] in labels:
            return index
        index = spans[index][PARENT]
    return -1
