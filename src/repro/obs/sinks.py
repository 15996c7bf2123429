"""Span sinks: where decision traces go.

A sink receives fully-built span dicts from the
:class:`~repro.obs.trace.Tracer` through ``emit(span)`` and is closed
with ``close()``. :class:`JsonlSink` appends one deterministic JSON line
per span to a file, flushed per record so a SIGTERM'd process leaves a
complete trace behind (the same contract the service audit log keeps).

The zero-cost rule lives one level up: a tracer with **no** sinks never
builds a span dict at all, so instrumented batch runs stay
byte-identical and pay nothing.
"""

from __future__ import annotations

import json


class JsonlSink:
    """Append one sorted-keys JSON line per span, flushed per record."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "w")

    def emit(self, span: dict) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(span, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
