"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span (-1 at the top level) and `op` the index of the timed
operation it belongs to (-1 during set-up and between operations). Spans
stay in memory while the run measures and are written out once at the end.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext


def no_span(name: str):
    """Stand-in for Tracer.span in untraced code paths."""
    return nullcontext()


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _self_times(self) -> list[float]:
        # a span's self time is its duration minus the time its direct children cover
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations_ms(self, name: str, in_ops: bool) -> list[float]:
        """Durations of every span called `name`; only inside timed ops when in_ops."""
        return [
            1e3 * (end - start)
            for n, start, end, _, op in self.spans
            if n == name and (op >= 0 or not in_ops)
        ]

    def layer_self_ms(self, n_batches: int) -> dict[str, float]:
        """Self time per layer (the span-name prefix) inside timed ops, per batch."""
        totals: dict[str, float] = defaultdict(float)
        for (name, _, _, _, op), own in zip(self.spans, self._self_times()):
            if op >= 0:
                totals[name.split(".", 1)[0]] += own
        return {layer: 1e3 * total / max(n_batches, 1) for layer, total in totals.items()}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start_s": start - self.origin,
                    "end_s": end - self.origin,
                    "parent": parent,
                    "op": op,
                }) + "\n")


class _Span:
    """Context manager that records one span; cheaper than a generator-based one."""

    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, -1, tracer.op]

    def __enter__(self):
        tracer, record = self.tracer, self.record
        if tracer._stack:
            record[3] = tracer._stack[-1]
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(record)
        record[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
