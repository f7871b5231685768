"""Outside-in tracer for the smoothwords modules.

`Tracer.install` replaces every public function of the package's modules
with a timing wrapper at every module binding that holds it, not only in
the defining module: `cli` reaches the other modules through module
attributes, `genfunc` and `transfer` hold their own `theta_poly`, and
`spectral` holds `divisors` and `totient`.  Calls inside the package go
through those bindings, so each call is seen once, under the name of its
defining module.

Per function it keeps a call count, total time and self time (total minus
the time of wrapped calls made inside it).  It also keeps spans (name,
start, end, parent) in memory, but only for the first `SPAN_CAP` calls of
each function, so that hot inner calls such as `words.canonical_rotation`
(about a million per ``check`` request) cost an aggregate update each
rather than a span.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import time

MODULES = ("cli", "transfer", "genfunc", "chebyshev", "spectral", "words")
SPAN_CAP = 64


class Tracer:
    """Call counts, times and spans of the wrapped functions, per process."""

    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []         # (id, parent id, name, start, end)
        self._stack: list[list] = []         # [child time, span id] per open call
        self._cached: dict[str, object] = {}  # name -> lru_cache-wrapped original
        self._span_ids = itertools.count()

    def install(self) -> None:
        """Wrap the public functions of every smoothwords module in place."""
        package = importlib.import_module("smoothwords")
        modules = [package] + [importlib.import_module(f"smoothwords.{m}")
                               for m in MODULES]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                name = _traced_name(attr, obj)
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                    if hasattr(obj, "cache_info"):
                        self._cached[name] = obj
                setattr(module, attr, wrappers[id(obj)])

    def snapshot(self) -> dict:
        """Aggregates and spans gathered so far, as JSON-ready data."""
        builds = {name: fn.cache_info().misses
                  for name, fn in self._cached.items()}
        return {"stats": self.stats, "builds": builds, "spans": self.spans}

    def _wrap(self, name: str, fn):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        span_ids = self._span_ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(span_ids) if entry[0] < SPAN_CAP else -1
            frame = [0.0, sid]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if sid >= 0:
                    spans.append((sid, parent, name, start, end))

        return traced


def _traced_name(attr: str, obj) -> str | None:
    """``module.function`` for a public smoothwords function, else None."""
    if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
        return None
    home = getattr(obj, "__module__", None) or ""
    package, _, module = home.partition(".")
    if package != "smoothwords" or module not in MODULES:
        return None
    return f"{module}.{obj.__name__}"
