"""Spans around the benchmark's calls into the library, kept in memory.

A span is (name, op, parent, start_ns, end_ns, ok). `op` is the index of the
operation the span belongs to, shared by all its spans; `parent` is that
index for a call made inside the op's timed span and None for an op span
itself or for a probe made after it.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.inside_op = False

    def __call__(self, name, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self.spans.append((name, self.op, self.op if self.inside_op else None,
                               start, time.perf_counter_ns(), ok))

    def record_op(self, op, start_ns, end_ns, ok):
        self.spans.append(("op", op, None, start_ns, end_ns, ok))

    def write(self, path) -> None:
        keys = ("name", "op", "parent", "start_ns", "end_ns", "ok")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
