"""Spans around the benchmark's calls into zetalab's layers.

A span is [name, start, end, parent index, request id]; the layer is the
part of the name before the first dot.  Spans stay in memory and are
written out once, when the run ends.  The untraced run uses NullTracer,
which keeps the same failure attribution and records nothing.
"""

from __future__ import annotations

import statistics
from time import perf_counter


def _tag_layer(exc: Exception, name: str) -> None:
    # the innermost span an exception leaves is the layer it failed in
    if not hasattr(exc, "bench_layer"):
        exc.bench_layer = name.split(".", 1)[0]


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            _tag_layer(exc, name)
            raise

    def begin(self, request_id):
        pass

    def end(self):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), 0.0, parent, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            _tag_layer(exc, name)
            raise
        finally:
            self._close(span)

    def begin(self, request_id):
        self._request = request_id
        self._open("bench.request")

    def end(self):
        self._close(self.spans[self._stack[-1]])
        self._request = None


def span_cost(samples: int = 2000) -> float:
    """Seconds one traced call adds, measured on calls to a no-op."""
    tracer = Tracer()
    tracer.begin(0)

    def noop():
        return None

    runs = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(samples):
            tracer.call("bench.noop", noop)
        t1 = perf_counter()
        for _ in range(samples):
            noop()
        runs.append((t1 - t0 - (perf_counter() - t1)) / samples)
    return max(statistics.median(runs), 0.0)


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out
