"""In-memory spans around the program's public functions.

A span is ``[span_id, parent_id, op_id, name, start_ns, end_ns, value]``.
Spans of one benchmark operation share ``op_id``; ``parent_id`` is the span
that was open when this one started (0 at top level). ``value`` carries one
number taken from the call's result where a metric needs it (bytes written
by ``serialize``, nodes a pass changed, size of a Pareto front), else None.

``Tracer.install`` replaces each listed function in every ``cndkit`` module
that binds it, so calls the package makes to itself are seen too. Nothing
under ``src/`` changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> list:
        span = [len(self.spans) + 1, self._stack[-1] if self._stack else 0, self.op_id, name,
                time.perf_counter_ns(), 0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, value=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if value is not None:
                span[6] = value(result)
            return result
        return traced

    def install(self, targets: dict[str, tuple[object, object]]) -> None:
        """``targets`` maps span name -> (original function, value function or None)."""
        wrappers = {id(fn): self.wrap(name, fn, value) for name, (fn, value) in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cndkit" and not mod_name.startswith("cndkit."):
                continue
            for attr, val in list(vars(module).items()):
                if id(val) in wrappers:
                    self._patches.append((module, attr, val))
                    setattr(module, attr, wrappers[id(val)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_ns(self) -> dict[int, int]:
        """Span id -> duration minus the time its direct children cover."""
        child = defaultdict(int)
        for sid, parent, _op, _name, start, end, _v in self.spans:
            if parent:
                child[parent] += end - start
        return {s[0]: s[5] - s[4] - child[s[0]] for s in self.spans}

    def write(self, path) -> None:
        selfs = self.self_ns()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["span_id", "parent_id", "op_id", "name", "start_ns", "end_ns",
                           "value", "self_ns"],
                "spans": [s + [selfs[s[0]]] for s in self.spans],
            }, fh, separators=(",", ":"))
            fh.write("\n")
