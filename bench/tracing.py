"""In-memory spans and call counters for the traced benchmark run.

A span records its name, start, end, parent span and op id. A counted call
is a wrapped library function whose calls are tallied rather than stored one
by one, because some run 10^5 times in one traced pass. Both kinds subtract
their duration from the enclosing span, so a span's self time is its
duration minus the time its children and counted calls covered.
"""

import contextlib
import json
import time


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, start ns, end ns, parent index, op id, self ns]
        self.calls = {}  # name -> [count, total ns]
        self._stack = []  # [start ns, child ns, span index or None]
        self.op = None

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _parent(self):
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return -1

    def _close(self):
        start, child, index = self._stack.pop()
        end = time.perf_counter_ns()
        if self._stack:
            self._stack[-1][1] += end - start
        return start, end, end - start - child

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [self._name_id(name), 0, 0, self._parent(), self.op, 0]
        self.spans.append(record)
        self._stack.append([time.perf_counter_ns(), 0, index])
        try:
            yield
        finally:
            record[1], record[2], record[5] = self._close()

    def spanned(self, fn, name):
        """fn wrapped so that every call is a span named name."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, fn, name):
        """fn wrapped so that every call is counted and timed under name."""
        tally = self.calls.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            self._stack.append([time.perf_counter_ns(), 0, None])
            try:
                return fn(*args, **kwargs)
            finally:
                start, end, _ = self._close()
                tally[0] += 1
                tally[1] += end - start

        return wrapper

    @contextlib.contextmanager
    def rebound(self, bindings, wrap):
        """Each (module, attribute, name) binding replaced by wrap(fn, name)
        while the block runs; the original functions are restored after."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in bindings]
        try:
            for module, attr, name in bindings:
                setattr(module, attr, wrap(getattr(module, attr), name))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def totals(self, name):
        """(count, total ns, self ns) over the spans with this name."""
        nid = self._name_ids.get(name)
        count = total = own = 0
        for rec in self.spans:
            if rec[0] == nid:
                count += 1
                total += rec[2] - rec[1]
                own += rec[5]
        return count, total, own

    def call_totals(self, name):
        count, total = self.calls.get(name, (0, 0))
        return count, total

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op", "self_ns"],
                    "names": self.names,
                    "spans": self.spans,
                    "calls": self.calls,
                },
                fh,
            )
