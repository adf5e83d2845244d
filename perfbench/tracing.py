"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces each public function of each ``subid`` module (and
each public method of its classes) with a wrapper that records a span: id,
parent id, name, start and end in nanoseconds.  The replacement is made in
every module namespace that holds the function, because ``from .x import y``
leaves a copy of ``y`` in the importing module.  A layer is a module, and a
span's name is ``<module>.<qualified name>``.

Self time is a span's duration minus the time its child spans cover.  It is
summed per name as spans close, so the totals are exact however many spans
there are; the spans themselves are kept in memory up to ``keep`` and written
out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter

MARK = "_perfbench_original"
LAYERS = ("parser", "graph", "separation", "components", "identify", "estimand", "oracle", "cli")


def _targets(package):
    """(class or None, function, span name) for every public function and method."""
    out = []
    for module in modules(package)[1:]:
        layer = module.__name__.rsplit(".", 1)[1]
        names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((None, obj, f"{layer}.{name}"))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                        out.append((obj, member, f"{layer}.{obj.__name__}.{attr}"))
    return out


def modules(package):
    """The package and every layer module: the namespaces wrappers go into."""
    return [package] + [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]


def wrapped_functions(package) -> list[str]:
    """Names of functions that still carry a wrapper; empty when none is installed."""
    found = []
    for module in modules(package):
        for space in [vars(module)] + [vars(c) for c in vars(module).values() if inspect.isclass(c)]:
            found += [getattr(f, "__qualname__", "?") for f in space.values() if hasattr(f, MARK)]
    return found


class Tracer:
    """Installs wrappers, records spans and per-name totals, removes wrappers."""

    def __init__(self, keep: int = 200_000, alloc_layer: str | None = None):
        self.keep = keep
        self.alloc_layer = alloc_layer
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.dropped = 0
        self.peak_alloc = 0
        self.active = True
        self._stack: list[list] = []  # [span id, name, start ns, ns covered by children]
        self._next = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self._next, name, time.perf_counter_ns(), 0]
        self._next += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, covered = frame
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, one per operation."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def paused(self, call, *args):
        """``call(*args)`` with the wrappers passing straight through."""
        self.active = False
        try:
            return call(*args)
        finally:
            self.active = True

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        tracks_alloc = layer == self.alloc_layer
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entering = tracks_alloc and not tracemalloc.is_tracing()
            if entering:
                tracemalloc.start()
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(frame)
                if entering:
                    tracer.peak_alloc = max(tracer.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, package, only: str | None = None) -> None:
        """Wrap every public function, or only those of the layer ``only``."""
        for cls, fn, name in _targets(package):
            if only is not None and not name.startswith(only + "."):
                continue
            wrapper = self._wrap(name, fn)
            owners = [cls] if cls is not None else modules(package)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._restore.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines: id, parent, name, start_ns, end_ns."""
        with open(path, "w") as out:
            out.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
