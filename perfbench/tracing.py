"""Function-boundary hooks for the benchmark.

``Patches`` replaces every binding of a package function -- the defining
module's and each ``from x import y`` copy in the other package modules -- and
puts the originals back on ``restore()``.  ``Tracer`` builds the wrappers that
record one span per call.  Spans stay in flat in-memory arrays (start, end,
parent span, name) and are written once, at the end of a run; a span's self
time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "dayahead"


def _package_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Patches:
    """Rebinds package functions to wrappers; ``restore()`` undoes every rebind."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, qualname: str, make_wrapper) -> bool:
        """Rebind ``<module>.<qualname>`` to ``make_wrapper(current)``.

        A method (``Class.name``) is bound once, on its class.  A module-level
        function is rebound in every package module holding it, found by
        identity after unwrapping earlier wrappers.  Returns False, changing
        nothing, when the name does not exist.
        """
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not inspect.isfunction(vars(owner).get(attr)):
            return False
        if path:
            sites = [(owner, attr)]
        else:
            original = inspect.unwrap(vars(owner)[attr])
            sites = [(site, key) for site in _package_modules()
                     for key, value in list(vars(site).items())
                     if inspect.isfunction(value) and inspect.unwrap(value) is original]
        for site, key in sites:
            current = vars(site)[key]
            self._undo.append((site, key, current))
            setattr(site, key, make_wrapper(current))
        return True

    def restore(self) -> None:
        while self._undo:
            site, key, value = self._undo.pop()
            setattr(site, key, value)


class Tracer:
    """Records a span per wrapped call, with the enclosing span as parent."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn, observe=None):
        """Wrapper of ``fn`` recording spans under ``name``.

        ``observe(args, kwargs, result)`` runs after each call that returns.
        """
        if name not in self.names:
            self.names.append(name)
        ident = self.names.index(name)
        start, end, parent, names, stack = (self.start, self.end, self.parent,
                                            self.name, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(ident)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _arrays(self):
        as_int = lambda a: np.frombuffer(a, dtype=np.int64) if len(a) else np.zeros(0, np.int64)
        return as_int(self.start), as_int(self.end), as_int(self.parent), as_int(self.name)

    def totals(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self time in ms)}`` over every recorded span."""
        start, end, parent, name = self._arrays()
        duration = (end - start).astype(float)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(start))
        own = duration - children
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        own_ms = np.bincount(name, weights=own, minlength=width) / 1e6
        return {n: (int(calls[i]), float(own_ms[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        start, end, parent, name = self._arrays()
        np.savez(path, names=np.array(self.names), start_ns=start, end_ns=end,
                 parent=parent, name=name)
