"""Span tracing of a package's functions from outside the package.

The tracer replaces chosen functions with timing wrappers at every module
binding inside the package (``from .linalg import hermitian_sqrt`` makes a
second binding in the importing module, and calls through it would otherwise
escape the trace), and puts every original back when the traced block ends.

Spans are aggregated as they close: per function name the call count, the
total time and the self time, which is a span's duration minus the time its
child spans cover.  Calls are sequential (one thread), so child spans never
overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counted: float = 0.0  # sum of the per-call count read from return values


def rebind(package: str, original, replacement) -> list:
    """Point every binding of ``original`` in the package's loaded modules at
    ``replacement``; returns the (module, attribute, original) triples."""
    saved = []
    prefix = package + "."
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(prefix)):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                saved.append((module, attr, original))
    return saved


def restore(saved: list) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


@contextmanager
def intercepted(package: str, module, name: str, make_wrapper):
    """Temporarily replace ``module.name`` at every binding in the package by
    ``make_wrapper(original)``."""
    original = getattr(module, name)
    saved = rebind(package, original, make_wrapper(original))
    try:
        yield
    finally:
        restore(saved)


class Tracer:
    """Times wrapped calls, attributing each span to its innermost open parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.root_s = 0.0     # summed duration of spans with no parent
        self.spans = 0
        self._stack: list = []  # open spans: [name, start, child_s]

    def wrap(self, name: str, fn, count=None):
        """Wrapper recording one span per call; ``count(result)``, when given,
        is added to the span's ``counted`` total."""
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                self.spans += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
            if count is not None:
                stats.counted += count(result)
            return result

        return traced

    @contextmanager
    def patched(self, package: str, targets: dict):
        """Trace ``targets`` ({"module.function": count-or-None}, modules named
        relative to the package) for the duration of the block."""
        saved = []
        try:
            for qualified, count in targets.items():
                mod_name, func_name = qualified.rsplit(".", 1)
                original = getattr(sys.modules[f"{package}.{mod_name}"], func_name)
                saved += rebind(package, original, self.wrap(qualified, original, count))
            yield self
        finally:
            restore(saved)


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost one span adds to a call (seconds), for overhead estimates."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(repeats):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(repeats):
            traced()
        best = min(best, (time.perf_counter() - started - plain) / repeats)
    return max(best, 0.0)
