"""Outside-in tracer: wraps a package's public functions without touching it.

`Tracer.bind` makes a wrapper for each chosen function and finds every module
namespace of the package that holds it (so ``from .formulas import
print_formula`` call sites are traced too), and for the chosen methods, their
class.  `install` puts the wrappers there and `uninstall` the originals back;
the two can alternate, and the counts accumulate.

Each wrapped call is counted.  A call opens a span unless the same function
already has an open span on the stack: recursion (``print_formula`` printing
its sub-formulas, a closure nested inside a ``yields`` test inside a closure)
runs inside the outer span, so self time is never counted twice.  A span's
self time is its duration minus the durations of the spans it directly
encloses; the wrapper's own bookkeeping is charged to the wrapper, not to the
enclosing span.

Spans are kept in memory as flat arrays (function id, start, end, parent
span) and written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass, field


@dataclass
class FnStats:
    calls: int = 0
    spans: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: dict = field(default_factory=dict)  # exception type name -> spans it ended
    active: bool = False


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, FnStats] = {}
        self.names: list[str] = []
        # one entry per span, in closing order; spans are numbered in opening order
        self.span_id = array("i")
        self.span_fn = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")  # number of the enclosing span, -1 at top
        # open spans: [time in enclosed spans, span number]
        self._stack: list[list] = []
        self._opened = 0
        self._bindings: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """Counting, span-opening wrapper around fn.  observe(args, kwargs,
        result, outermost) runs after each call that returns, outside the span."""
        stat = self.stats.setdefault(name, FnStats())
        fn_id = len(self.names)
        self.names.append(name)
        clock = self.clock
        stack = self._stack
        span_id, span_fn, span_start, span_end, span_parent = (
            self.span_id, self.span_fn, self.span_start, self.span_end, self.span_parent)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            if stat.active:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result, False)
                return result
            t0 = clock()
            stat.active = True
            stat.spans += 1
            number = self._opened
            self._opened += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, number]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                stat.errors[kind] = stat.errors.get(kind, 0) + 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                stat.active = False
                dt = t1 - t0
                stat.total_s += dt
                stat.self_s += dt - frame[0]
                span_id.append(number)
                span_fn.append(fn_id)
                span_start.append(t0)
                span_end.append(t1)
                span_parent.append(parent)
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, kwargs, result, True)
            if stack:
                # charge the wrapper's bookkeeping to this call, not the caller
                stack[-1][0] += clock() - t1
            return result

        return functools.update_wrapper(wrapper, fn)

    def bind(self, package: str, functions: dict, methods: dict = (), observers: dict = ()):
        """Make wrappers for functions ({trace name: function}) wherever a
        module of the package binds them, and for methods ({trace name:
        (class, attribute)}).  Nothing changes until `install`."""
        observers = dict(observers)
        wrappers = {}
        for name, fn in functions.items():
            wrappers[id(fn)] = (fn, self.wrap(name, fn, observers.get(name)))
        prefix = package + "."
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value, hit[1]))
        for name, (cls, attr) in dict(methods).items():
            original = cls.__dict__[attr]
            self._bindings.append((cls, attr, original, self.wrap(name, original, observers.get(name))))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped JSON columns: names, then per span the
        function id, start and end (seconds) and the number of the enclosing
        span (spans are numbered in opening order; -1 means none)."""
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        payload = {
            "names": self.names,
            "fn": [self.span_fn[i] for i in order],
            "start": [self.span_start[i] for i in order],
            "end": [self.span_end[i] for i in order],
            "parent": [self.span_parent[i] for i in order],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


def public_functions(module, skip=()) -> dict:
    """{"<module short name>.<function>": function} for the functions a module
    defines, minus private names, generators and the names in skip."""
    short = module.__name__.rsplit(".", 1)[-1]
    out = {}
    for attr, value in vars(module).items():
        if attr.startswith("_") or attr in skip or not inspect.isfunction(value):
            continue
        if value.__module__ != module.__name__ or inspect.isgeneratorfunction(value):
            continue
        out[f"{short}.{attr}"] = value
    return out
