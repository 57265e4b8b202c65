"""In-memory span tracing for the benchmark's traced run.

A span is one call of a public swfocal function: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when
it started (its parent, ``-1`` at top level) and optional counts taken
from the call's arguments and result.  Spans stay in
memory and are written out once, at the end.

Functions are wrapped by swapping the attribute on the module where the
caller looks the name up (``swfocal.tracking.update`` for ``run_tracker``,
``swfocal.io.write_grid`` for the benchmark itself); ``patched`` restores
every original on exit, also when the body raises.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans of one process, single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent})
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, counts: dict | None = None) -> None:
        self.spans[index]["end"] = time.perf_counter()
        if counts:
            self.spans[index]["counts"] = counts
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} is open")

    def wrap(self, fn, counter=None):
        """``fn`` recording one span per call, named ``<module>.<function>``.

        ``counter(args, result)`` returns the counts stored on the span.
        """
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, counter(args, result) if counter and result is not None else None)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **s}) + "\n")


@contextmanager
def patched(tracer: Tracer, targets):
    """Wrap ``(module, attribute, counter)`` targets for the ``with`` body.

    Every original attribute is put back on exit.
    """
    saved = []
    try:
        for module, attr, counter in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append((s["end"] - s["start"]) - covered)
    return out
