"""In-memory span recorder for the traced benchmark run.

A span is a named interval ``[start, end]`` with the id of the span that was
open when it began, plus integer or float counts attached at its boundary.
Layers are traced from outside: ``wrap`` replaces a function in the module
that calls it (for example ``nmsse.ensemble.h_exponential_batch``), so the
program itself carries no tracing code.  Spans stay in memory and are written
out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Record one span; the caller may add counts to the yielded dict."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, count=None):
        """Trace every call of ``module.attr`` made through that binding.

        ``count(args, kwargs, result)`` returns counts to attach to the span.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, kwargs, result))
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self):
        """Put every wrapped function back, last wrapped first."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def dump(self, path: str, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: list[dict]) -> float:
    """Duration minus the part of the span that its children cover."""
    covered = 0.0
    reach = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo = max(child["start"], reach)
        hi = min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return duration(span) - covered


def descendants(spans: list[dict], root_id: int) -> list[dict]:
    """Every span below ``root_id``; spans are stored parents first."""
    inside = {root_id}
    out = []
    for s in spans[root_id + 1:]:
        if s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out
