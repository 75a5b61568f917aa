"""Spans recorded from outside the package.

A span is taken around a direct call into a public function, or, during
a traced run only, around three module attributes the package calls
through, which ``rebound`` replaces with timing wrappers and restores on
exit. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Optional

import contensor.compiler
import contensor.executor

# (module, attribute, span name) of every call rebound in a traced run
REBOUND = (
    (contensor.compiler, "validate", "lang.validate"),
    (contensor.compiler, "simplify_plan", "simplify.simplify_plan"),
    (contensor.executor, "build_tensor", "executor.build_tensor"),
)

_NULL = contextlib.nullcontext()


class NoTrace:
    """The untraced stand-in for a Tracer: every span is a no-op."""

    def __call__(self, name: str, program: Optional[str] = None):
        return _NULL


NO_TRACE = NoTrace()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    query: int
    program: Optional[str]  # the workload program it serves, if any

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Call it with a span name to get a context manager timing that span.

    A span without a program takes its parent's.
    """

    def __init__(self):
        self.spans: list = []
        self.query = -1
        self._stack: list = []

    @contextlib.contextmanager
    def __call__(self, name: str, program: Optional[str] = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if program is None and parent is not None:
            program = self.spans[parent].program
        span = Span(name, perf_counter(), 0.0, parent, self.query, program)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def of_query(self, query: int) -> list:
        return [s for s in self.spans if s.query == query]

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


@contextlib.contextmanager
def rebound(tr: Tracer):
    """Wrap the REBOUND attributes in spans; put the originals back on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in REBOUND]

    def wrap(fn, name):
        def traced(*args, **kwargs):
            with tr(name):
                return fn(*args, **kwargs)
        return traced

    try:
        for (mod, attr, orig), (_, _, name) in zip(saved, REBOUND):
            setattr(mod, attr, wrap(orig, name))
        yield
    finally:
        for mod, attr, orig in saved:
            setattr(mod, attr, orig)
