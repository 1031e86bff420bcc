"""In-memory span tracer for the traced benchmark pass.

The tracer replaces a function by a timing wrapper in the module where
its caller looks it up (``mipmot.tracker.kf_predict`` is the name the
tracker calls, not ``mipmot.motion.kf_predict``), so no file of the
program changes. Each call of a wrapped function records one span:
name, start and end in ``perf_counter_ns``, the index of the enclosing
span and the frame the benchmark was stepping. Cheap, very frequent
functions get a counting wrapper instead, which records calls and hits
keyed by the enclosing span's name and the frame.

``install`` puts the wrappers in place and ``restore`` puts every
original back, so traced and untraced passes can alternate in one
process. A name that no longer exists is listed in ``missing`` instead
of raising, so the metrics built on it can be reported as absent.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, frame)
        self.spans: list[tuple | None] = []
        # (name, enclosing span name, frame) -> [calls, hits]
        self.counts: dict[tuple, list[int]] = {}
        self.frame: int | None = None
        self.missing: list[str] = []
        self._open: list[tuple[int, str]] = []
        # (module, attribute, original, wrapper)
        self._targets: list[tuple[object, str, object, object]] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._open.append((index, name))
        return index

    def _exit(self, index: int, name: str, start: int, end: int) -> None:
        self._open.pop()
        parent = self._open[-1][0] if self._open else -1
        self.spans[index] = (name, start, end, parent, self.frame)

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        index = self._enter(name)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._exit(index, name, start, perf_counter_ns())

    def _lookup(self, module_name: str, attr: str, name: str):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
        return module, original

    def add_span(self, module_name: str, attr: str, name: str, on_call=None) -> None:
        """Record a span per call of ``module_name.attr`` while installed.

        ``on_call(args, result)`` runs after the span closes but inside
        the caller's span, so it should only keep references.
        """
        module, original = self._lookup(module_name, attr, name)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._enter(name)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(index, name, start, perf_counter_ns())
            if on_call is not None:
                on_call(args, result)
            return result

        self._targets.append((module, attr, original, traced))

    def add_count(self, module_name: str, attr: str, name: str, is_hit) -> None:
        """Count calls of ``module_name.attr``, and results that ``is_hit``."""
        module, original = self._lookup(module_name, attr, name)
        if original is None:
            return
        tracer = self

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            parent = tracer._open[-1][1] if tracer._open else ""
            key = (name, parent, tracer.frame)
            entry = tracer.counts.get(key)
            if entry is None:
                entry = tracer.counts[key] = [0, 0]
            entry[0] += 1
            if is_hit(result):
                entry[1] += 1
            return result

        self._targets.append((module, attr, original, counted))

    def install(self) -> None:
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when none is left wrapped."""
        for module, attr, original, _ in reversed(self._targets):
            setattr(module, attr, original)
        return all(getattr(module, attr) is original for module, attr, original, _ in self._targets)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span is not None and span[3] >= 0:
                out.setdefault(span[3], []).append(index)
        return out

    def write(self, path) -> None:
        """Write spans as tab-separated lines: index, name, start, end, parent, frame."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tname\tstart_ns\tend_ns\tparent\tframe\n")
            for index, span in enumerate(self.spans):
                if span is not None:
                    f.write("\t".join(str(v) for v in (index, *span)) + "\n")


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
