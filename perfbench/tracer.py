"""In-memory span tracer that wraps library functions from outside.

A :class:`Tracer` records one span per call of every wrapped function: the
span's name, start and end time, the span that was open when it started
(its parent), an integer tag (for example the number of points a kernel
call evaluated) and whether the call raised.  Spans live in flat arrays
until the caller asks for them, so a traced pass pays a small constant cost
per call and nothing else.

:meth:`Tracer.installed` rebinds each target function in every
``nodalbubbles.*`` namespace that holds it, so calls made inside the
library (``reduced_energy.axis_g``, ``saddle_solver.grad_psi_k``, ...) are
traced too, and restores every original object on exit.

This module imports only the standard library at import time, so a process
can time its own ``import nodalbubbles`` after importing it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "nodalbubbles"


@dataclass(frozen=True)
class Target:
    """One function to trace: ``module.attr`` or ``module.Class.method``.

    ``tag`` maps the call's positional arguments to the integer stored on
    the span; it runs before the wrapped call.
    """

    module: str
    attr: str
    tag: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    """Records nested spans; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._reset_arrays()
        self._restore: list[tuple] = []

    def _reset_arrays(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")
        self.raised = array("b")
        self._stack = [-1]

    def clear(self) -> None:
        """Drop every recorded span (names stay interned)."""
        if len(self._stack) != 1:
            raise RuntimeError("cannot clear a tracer with open spans")
        self._reset_arrays()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, tag: int = 0) -> int:
        """Open a span as a child of the innermost open span."""
        i = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.tag.append(tag)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def finish(self, i: int, raised: bool = False) -> None:
        """Close span ``i``, which must be the innermost open span."""
        self.end[i] = self.clock()
        if raised:
            self.raised[i] = 1
        if self._stack.pop() != i:
            raise RuntimeError(f"span {i} closed out of order")

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        i = self.begin(name)
        try:
            yield i
        except BaseException:
            self.finish(i, raised=True)
            raise
        self.finish(i)

    def wrap(self, fn: Callable, name: str, tag: Callable | None = None):
        """A wrapper of ``fn`` that records one span per call."""
        nid = self._intern(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The arrays are looked up on each call because clear() swaps them.
            starts = self.start
            i = len(starts)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.tag.append(tag(args) if tag is not None else 0)
            self.raised.append(0)
            self.end.append(0.0)
            self._stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.end[i] = clock()
                self._stack.pop()

        return traced

    # -- rebinding ---------------------------------------------------------

    @contextmanager
    def installed(self, targets):
        """Rebind every target for the duration of the block, then restore."""
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def install(self, targets) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        try:
            for t in targets:
                owner = importlib.import_module(f"{PACKAGE}.{t.module}")
                if "." in t.attr:
                    cls_name, meth = t.attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._rebind(cls, meth, original,
                                 self.wrap(original, t.name, t.tag))
                    continue
                original = getattr(owner, t.attr)
                wrapper = self.wrap(original, t.name, t.tag)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- read-out ----------------------------------------------------------

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays (imports numpy on first use)."""
        if len(self._stack) != 1:
            raise RuntimeError("spans are still open")
        import numpy as np
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": parent,
            "start": start,
            "end": end,
            "tag": np.frombuffer(self.tag, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).astype(bool),
            "self_s": self_times(parent, end - start),
        }


def save_spans(path, tracer: Tracer) -> None:
    """Write the tracer's spans and interned names to a compressed .npz."""
    import numpy as np
    np.savez_compressed(path, names=np.array(tracer.names, dtype=str),
                        **tracer.arrays())


def self_times(parent, duration):
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span do not overlap and
    the covered time is the sum of their durations.
    """
    import numpy as np
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered


def under(parent, flag):
    """For each span, whether some strict ancestor has ``flag`` set."""
    import numpy as np
    out = np.zeros(len(parent), dtype=bool)
    p = parent.copy()
    live = p >= 0
    while live.any():
        out[live] |= flag[p[live]]
        p[live] = parent[p[live]]
        live = p >= 0
    return out
