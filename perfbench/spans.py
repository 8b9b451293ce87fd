"""In-memory span tracer that wraps library functions where they are called.

`Tracer.install` replaces every module-level binding of a target function
(in the defining module and in each module that imported it by name) with a
wrapper that records one span per call: name, start, end, parent span and
the operation it belongs to, plus work counts computed from the call's
arguments and result.  Self time is a span's duration minus the time its
child spans cover.  `uninstall` restores the original bindings.
"""

from __future__ import annotations

import functools
import inspect
import json
import time


class Span:
    __slots__ = ("id", "op", "name", "parent", "start", "end", "child_time",
                 "counts", "ball_len")

    def __init__(self, sid, op, name, parent):
        self.id = sid
        self.op = op
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_time = 0.0
        self.counts = None
        self.ball_len = 0      # size of the last ball a child enumerated

    @property
    def self_time(self):
        return self.end - self.start - self.child_time


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    # ----------------------------------------------------------- recording

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), self.op, name,
                    parent.id if parent is not None else -1)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_time += span.end - span.start

    def root(self, name):
        """Open the root span of a new operation; close it with `end`.

        The operation's id is the id of this root span."""
        self.op = len(self.spans)
        return self._open(name)

    def end(self, span, **counts):
        self._close(span)
        if counts:
            span.counts = counts

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                bound = sig.bind(*args, **kwargs).arguments
                parent = self._stack[-1] if self._stack else None
                span.counts = counter(bound, result, span, parent)
            return result

        return traced

    # ------------------------------------------------------------ patching

    def install(self, modules, targets):
        """targets: (span name, function, counter or None) triples.

        A counter is called as counter(arguments, result, span, parent) and
        returns a dict of work counts for the span.
        """
        for name, fn, counter in targets:
            wrapper = self._wrap(name, fn, counter)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    # ----------------------------------------------------------- reporting

    def totals(self):
        """name -> {"self_s", "calls", <count>: sum} over all spans."""
        out = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"self_s": 0.0, "calls": 0})
            agg["self_s"] += s.self_time
            agg["calls"] += 1
            for key, val in (s.counts or {}).items():
                agg[key] = agg.get(key, 0) + val
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "op": s.op, "name": s.name,
                    "parent": s.parent, "start": s.start, "end": s.end,
                    "counts": s.counts or {}}) + "\n")
