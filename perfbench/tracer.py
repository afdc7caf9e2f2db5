"""In-memory span tracer and the hooks that feed it.

Spans are recorded around calls into the program's modules: around the
benchmark's own calls, and around module attributes that are swapped for
wrappers while a traced repetition runs (the attribute is replaced where the
caller looks the name up, and restored afterwards). Each span keeps name,
start, end and parent; self time is derived after the run. Calls that are too
frequent to keep a span each (quadrature integrands, kernel helpers) are
counted instead.

A hook whose module or attribute no longer exists is reported as ``absent``
and skipped; the run goes on.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


class Tracer:
    """Spans in compact arrays plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def timed(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so each call records a span (and passes its result to ``on_result``)."""
        nid = self._name_id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(perf_counter())
            self.end.append(0.0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[i] = perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls as ``<name>.calls``."""
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_with_evals(self, name: str, fn: Callable) -> Callable:
        """For ``fn(f, ...)``: count calls, and calls into the user-supplied ``f``."""
        counts = self.counts
        calls_key = name + ".calls"
        evals_key = name + ".f_evals"

        def wrapper(f, *args, **kwargs):
            evals = 0

            def counted_f(x):
                nonlocal evals
                evals += 1
                return f(x)

            try:
                return fn(counted_f, *args, **kwargs)
            finally:
                counts[calls_key] += 1
                counts[evals_key] += evals

        return wrapper

    # -- results ---------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """{name: (spans, total seconds, self seconds)}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the spans called ``name``, from span index ``since`` on."""
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i] for i in range(since, len(self.start)) if self.name_id[i] == nid]

    def write_spans(self, path: str) -> None:
        """All spans as CSV: index, name, start, end, parent (times in seconds)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]}\n"
                )


@dataclass(frozen=True)
class Hook:
    """Replace ``module.attr`` by ``kind``-wrapped version named ``name``.

    ``kind`` is ``timed``, ``counted`` or ``counted_with_evals``.
    """

    module: str
    attr: str
    name: str
    kind: str


class Hooks:
    """Installs a set of hooks on a tracer and restores the originals on exit."""

    def __init__(self, tracer: Tracer, hooks: list[Hook], on_result: Optional[dict] = None):
        self.tracer = tracer
        self.hooks = hooks
        self.on_result = on_result or {}
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        for h in self.hooks:
            try:
                mod = importlib.import_module(h.module)
            except ImportError:
                mod = None
            target = getattr(mod, h.attr, None) if mod is not None else None
            if target is None:
                label = f"{h.module}.{h.attr}"
                if label not in self.tracer.absent:
                    self.tracer.absent.append(label)
                continue
            if h.kind == "timed":
                wrapped = self.tracer.timed(h.name, target, self.on_result.get(h.name))
            elif h.kind == "counted":
                wrapped = self.tracer.counted(h.name, target)
            else:
                wrapped = self.tracer.counted_with_evals(h.name, target)
            self._saved.append((mod, h.attr, target))
            setattr(mod, h.attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
