"""Spans around the calls into each hecg layer, recorded from outside the package.

A traced function is replaced at every binding site where callers look it
up: the module attribute of every loaded ``hecg`` module that holds the
original object (``encrypt`` is bound as ``hecg.cipher.encrypt``,
``hecg.cli.encrypt``, ``hecg.pipeline.encrypt`` ...), or the class
attribute for methods. ``Patches.undo`` puts every original back.

Spans stay in memory as flat int64 rows and are written out once, when
the benchmark ends. A span's self time is its duration minus the
durations of the spans nested directly inside it on the same thread.
"""

import array
import functools
import gzip
import inspect
import itertools
import sys
import threading
import time

import numpy as np

# (name id, span id, parent span id or -1, thread index, start ns, end ns, self ns)
FIELDS = ("name", "span", "parent", "thread", "start_ns", "end_ns", "self_ns")


def _resolve(qualname: str):
    """Owner object and attribute for 'module.attr' or 'module.Class.attr'."""
    parts = qualname.split(".")
    owner = sys.modules.get("hecg." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
    return owner, parts[-1]


class Patches:
    """Replace hecg functions at all their binding sites, and undo it."""

    def __init__(self):
        self._undo = []

    def wrap(self, qualname: str, make_wrapper) -> bool:
        """Install make_wrapper(original) wherever qualname is bound.

        Returns False, changing nothing, when the name does not exist.
        """
        owner, attr = _resolve(qualname)
        if owner is None or attr not in vars(owner):
            return False
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(make_wrapper(raw.__func__)))
            else:
                self._set(owner, attr, make_wrapper(raw))
            return True
        new = make_wrapper(raw)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hecg" and not mod_name.startswith("hecg."):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, key, new)
        return True

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    """Records one span per call of each traced function, on any thread."""

    def __init__(self, names):
        self.names = list(names)
        self.rows = array.array("q")
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = itertools.count()

    def _stack(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.thread = next(self._threads)
        return local.stack

    def _call(self, name_id, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.rows.extend(
                (name_id, span_id, parent, self._local.thread, start, end, duration - frame[1])
            )

    def wrapper_for(self, name: str):
        """A make_wrapper for Patches.wrap that records spans named name.

        A generator function gets one span per item it produces.
        """
        name_id = self.names.index(name)
        call = self._call

        def make(fn):
            if inspect.isgeneratorfunction(fn):

                @functools.wraps(fn)
                def traced_gen(*args, **kwargs):
                    gen = fn(*args, **kwargs)
                    while True:
                        try:
                            item = call(name_id, next, (gen,), {})
                        except StopIteration:
                            return
                        yield item

                return traced_gen

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(name_id, fn, args, kwargs)

            return traced

        return make

    def install(self, patches: Patches) -> list:
        """Wrap every traced name; returns the names that do not exist."""
        return [n for n in self.names if not patches.wrap(n, self.wrapper_for(n))]

    def table(self) -> np.ndarray:
        return np.frombuffer(self.rows, dtype=np.int64).reshape(-1, len(FIELDS))

    def reset(self):
        self.rows = array.array("q")

    def summary(self) -> dict:
        """Per name: total self ms, call count, and per-call durations in call order."""
        t = self.table()
        out = {}
        for name_id, name in enumerate(self.names):
            sel = t[t[:, 0] == name_id]
            sel = sel[np.argsort(sel[:, 4], kind="stable")]
            out[name] = {
                "self_ms": float(sel[:, 6].sum()) / 1e6,
                "calls": int(len(sel)),
                "durations_ns": sel[:, 5] - sel[:, 4],
            }
        return out

    def write(self, path):
        """Write the spans as gzipped tab-separated rows with a header."""
        t = self.table()
        with gzip.open(path, "wt") as fh:
            fh.write("\t".join(FIELDS) + "\n")
            for row in t.tolist():
                row[0] = self.names[row[0]]
                fh.write("\t".join(map(str, row)) + "\n")
