"""Span tracer that times qiepulse's layers from outside the package.

The tracer replaces a function by a wrapper under the name its caller looks
it up by (``qiepulse.cli.propagate``, ``qiepulse.designer.theta_profile``,
...), so the package itself is never edited.  Every wrapped call records a
span: name, start, end, parent span and an optional work figure (bytes of a
file, propagator steps).  Spans stay in flat in-memory arrays and are
written out once, when the run ends.
"""

import inspect
import os
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name_id = array("l")
        self.work = array("d")
        self._stack = []
        self._patched = []

    def __len__(self):
        return len(self.start)

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, module, attr, name, work=None):
        """Replace module.attr by a traced wrapper.

        work(bound_arguments) -> float is evaluated after the call, outside
        the span's own interval; it may read the call's arguments (a file
        path, the batch size).
        """
        fn = getattr(module, attr)
        nid = self._id(name)
        sig = inspect.signature(fn) if work is not None else None
        start, end, parent, name_id, work_arr = (
            self.start, self.end, self.parent, self.name_id, self.work)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            start.append(0.0)
            end.append(0.0)
            work_arr.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if work is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work_arr[idx] = float(work(bound.arguments))

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self):
        """Put every wrapped function back, newest first."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def aggregate(self, lo, hi):
        """Per-name (calls, self seconds, work) over spans [lo, hi).

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.  Spans
        whose parent lies before lo count as roots.
        """
        n_names = len(self.names)
        if hi <= lo:
            zero = np.zeros(n_names)
            return zero, zero, zero
        start = np.frombuffer(self.start, dtype=float)[lo:hi]
        end = np.frombuffer(self.end, dtype=float)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int_)[lo:hi] - lo
        name_id = np.frombuffer(self.name_id, dtype=np.int_)[lo:hi]
        work = np.frombuffer(self.work, dtype=float)[lo:hi]
        dur = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner],
                            minlength=dur.size)
        self_s = dur - child
        calls = np.bincount(name_id, minlength=n_names).astype(float)
        return (calls,
                np.bincount(name_id, weights=self_s, minlength=n_names),
                np.bincount(name_id, weights=work, minlength=n_names))

    def save(self, path):
        """Write every span as an .npz of flat arrays plus the name table."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int_),
            parent=np.frombuffer(self.parent, dtype=np.int_),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            work=np.frombuffer(self.work, dtype=float),
        )
