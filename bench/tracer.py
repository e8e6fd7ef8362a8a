"""Call tracing for the benchmark's traced run.

`traced(tracer)` replaces every public function of the `advssl` package, at
every module that bound it, and every public method of its classes with a
wrapper that records one span per call. On exit every original object is put
back. Spans stay in memory; `summarize` turns them into per-function counts,
inclusive time and self time.

A span is named after the function's defining module, not the module that
called it: `prm.fit_regression_tree` is recorded as `tree.fit_regression_tree`.
Methods are named `<module>.<Class>.<method>`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager

PACKAGE = "advssl"

# Span fields, kept as plain lists because the traced run records ~10^5 of them.
NAME, START, END, PARENT, OUTER, VALUE = range(6)


class Tracer:
    """Records spans: name, start, end, parent index, outermost flag, probe value.

    `probes` maps a span name to `fn(arguments, result) -> number`, where
    `arguments` are the call's bound arguments by parameter name. The number
    is stored on the span; a probe that raises stores None.
    """

    def __init__(self, probes=None, clock=time.perf_counter_ns):
        self.spans: list[list] = []
        self.probes = dict(probes or {})
        self.clock = clock
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    def call(self, name, fn, signature, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        depth = self._active.get(name, 0)
        span = [name, 0, 0, parent, depth == 0, None]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        self._active[name] = depth + 1
        span[START] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = self.clock()
            self._stack.pop()
            self._active[name] = depth
        probe = self.probes.get(name)
        if probe is not None:
            try:
                span[VALUE] = probe(signature.bind(*args, **kwargs).arguments, result)
            except Exception:  # a changed signature must not break the traced op
                span[VALUE] = None
        return result


def package_modules():
    """The `advssl` package and every module in it, imported."""
    root = importlib.import_module(PACKAGE)
    mods = [root]
    for info in pkgutil.iter_modules(root.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _is_public_function(name: str, obj) -> bool:
    return (
        not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__.startswith(PACKAGE + ".")
    )


@contextmanager
def traced(tracer: Tracer):
    """Wrap the package's public functions and methods; restore them on exit."""
    patches: list[tuple[object, str, object]] = []
    wrappers: dict[object, object] = {}

    def wrapper_for(fn, name):
        if fn in wrappers:
            return wrappers[fn]
        signature = inspect.signature(fn) if name in tracer.probes else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, signature, args, kwargs)

        wrappers[fn] = wrapper
        tracer.wrapped.add(name)
        return wrapper

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                if _is_public_function(attr, obj):
                    patch(mod, attr, wrapper_for(obj, f"{_layer(obj.__module__)}.{obj.__name__}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, method in list(vars(obj).items()):
                        if _is_public_function(mattr, method):
                            name = f"{_layer(mod.__name__)}.{obj.__name__}.{mattr}"
                            patch(obj, mattr, wrapper_for(method, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, sum of probe values.

    Inclusive time counts only outermost calls, so recursion is not counted
    twice. Self time is a span's duration minus the durations of its direct
    children; the self times of all spans add up to the root spans' time.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        dur = span[END] - span[START]
        stat = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0})
        stat["calls"] += 1
        if span[OUTER]:
            stat["s"] += dur / 1e9
        stat["self_s"] += (dur - child_ns[i]) / 1e9
        if span[VALUE] is not None:
            stat["value"] += span[VALUE]
    return out


def nearest_ancestor(spans, index: int, names) -> int:
    """Index of the closest ancestor whose name is in `names`, or -1."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return parent
        parent = spans[parent][PARENT]
    return -1


def root_ns(spans) -> int:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
