"""In-memory span recording for the traced benchmark run.

A span is one call into a thetaforge public function: its name, start, end
(``time.perf_counter`` seconds), the span that was open when it began, and the
run id shared by every span of one traced process.  Spans stay in memory and
are handed back when the process ends.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self._spans = []            # [id, name, start, end, parent id]
        self._open = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        rec = [len(self._spans), name, time.perf_counter(), None,
               self._open[-1] if self._open else None]
        self._spans.append(rec)
        self._open.append(rec[0])
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            rec[3] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str):
        """Replace owner.attr by a wrapper that records a span per call, so
        calls made from inside the package are seen too."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(owner, attr, traced)

    def spans(self) -> list:
        return [{"id": i, "name": n, "start": s, "end": e, "parent": par,
                 "run": self.run_id} for i, n, s, e, par in self._spans]


class Untraced:
    """Same calling convention as Tracer, recording nothing."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def layer_seconds(spans: list) -> dict:
    """Total wall time per span name.

    A span nested inside another span of the same name (recursion, or a
    wrapped function calling a sibling under one name) is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    totals: dict = {}
    for s in spans:
        par = s["parent"]
        while par is not None and by_id[par]["name"] != s["name"]:
            par = by_id[par]["parent"]
        if par is None:
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
    return totals
