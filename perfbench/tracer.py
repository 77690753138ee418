"""In-memory span recorder for the traced benchmark run.

A span is ``[id, parent_id, name, start, end, attrs]``; the parent is the
span that was open when this one started, so nested calls form a tree.
Spans stay in memory until the process writes them out with ``dump``.
"""

import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name, attrs=None):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None, attrs or {}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def close(self, rec):
        self._stack.pop()
        rec[4] = time.perf_counter()

    def wrap(self, owner, attr, name, attrs=None):
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``attrs(args, kwargs)`` runs before the call and returns the span's
        attributes (sizes, cache state).  Patch the name where callers look
        it up: a ``from m import f`` binding is a separate attribute.
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.open(name, attrs(args, kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(rec)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Span id -> duration minus the part of it covered by its children."""
    children = {}
    for sid, parent, _name, start, end, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _attrs in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out
