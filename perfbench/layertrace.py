"""Call counts and span times for the public functions of the firngas modules.

The tracer wraps functions from the outside: it replaces each public
function of a module (and ``__call__`` plus the public methods of each
public class) with a wrapper that counts calls and times them.  Nothing in
the package is edited.  Names that do not exist at a given commit are
simply absent from the stats; :func:`metric` reads them as 0, so the
benchmark keeps running when a later refactor removes or renames a
function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

MODULES = ("cli", "mesh", "model", "analysis", "assembly", "solver", "oracle")


class Tracer:
    """Per-name call count, total time and self time (total minus wrapped children)."""

    def __init__(self):
        self.stats = {}      # name -> [calls, total_s, self_s]
        self.bytes = {}      # name -> bytes written (writers only)
        self._stack = []     # child time accumulated by each open span
        self._active = {}    # name -> open spans of that name (recursion guard)

    def wrap(self, name, func):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            active[name] = active.get(name, 0) + 1
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                active[name] -= 1
                stats[0] += 1
                if not active[name]:
                    stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def wrap_writer(self, name, func):
        """Like :meth:`wrap`, also counting bytes written to the target."""
        timed = self.wrap(name, func)

        @functools.wraps(func)
        def writer(obj, target, *args, **kwargs):
            before = target.tell() if hasattr(target, "tell") else 0
            result = timed(obj, target, *args, **kwargs)
            if hasattr(target, "tell"):
                written = target.tell() - before
            else:
                written = os.path.getsize(target)
            self.bytes[name] = self.bytes.get(name, 0) + written
            return result

        return writer


def _public(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names if hasattr(module, n)]


def install(tracer: Tracer, package: str = "firngas") -> None:
    """Wrap every public function and method of the traced modules.

    Functions re-exported under another module (``firngas.run`` is
    ``firngas.solver.run``) are replaced there too, so every route to a
    function goes through its one wrapper.
    """
    replaced = {}
    for short in MODULES:
        try:
            module = importlib.import_module(f"{package}.{short}")
        except ImportError:
            continue
        for attr in _public(module):
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere; wrapped where defined
            if inspect.isfunction(obj):
                wrapped = tracer.wrap(f"{short}.{attr}", obj)
                setattr(module, attr, wrapped)
                replaced[id(obj)] = (obj, wrapped)
            elif inspect.isclass(obj):
                _wrap_class(tracer, f"{short}.{attr}", obj)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def _wrap_class(tracer: Tracer, prefix: str, cls) -> None:
    for attr, value in list(vars(cls).items()):
        if attr == "__call__":
            label = "call"
        elif attr.startswith("_"):
            continue
        else:
            label = attr
        if not inspect.isfunction(value):
            continue  # properties, classmethods and staticmethods stay as they are
        name = f"{prefix}.{label}"
        if attr == "write_csv":
            setattr(cls, attr, tracer.wrap_writer(name, value))
        else:
            setattr(cls, attr, tracer.wrap(name, value))


def snapshot(tracer: Tracer) -> dict:
    """Plain-data copy of the stats, for passing between processes."""
    out = {name: {"calls": s[0], "s": s[1], "self_s": s[2]} for name, s in tracer.stats.items()}
    for name, written in tracer.bytes.items():
        out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})["bytes"] = written
    return out


def metric(stats: dict, name: str, field: str):
    """``field`` of a traced name; 0 when the name was not called or no longer exists."""
    return stats.get(name, {}).get(field, 0)
