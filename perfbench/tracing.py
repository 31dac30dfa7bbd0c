"""Spans recorded from outside the program.

The traced run replaces public functions of tsalab's modules with wrappers
that open a span (name, start, end, parent, op id) around each call.  A
wrapper placed on the name the calling module looks up also sees the calls
made inside tsalab, e.g. `tsalab.tsa.ts_apply` catches every tree-stack
operation the search makes.  Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self.op_id = -1
        self._open = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace module.attr by a traced version; `observe(counters,
        result)` sees each return value."""
        fn = getattr(module, attr)
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if observe is not None:
                observe(self.counters, result)
            return result

        setattr(module, attr, traced)

    def summary(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (span name, parent span name or ""): calls, total time and
        self time, the total minus the time its direct child spans cover."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        out: dict[tuple[str, str], dict[str, float]] = {}
        for i in range(n):
            p = self.parent[i]
            key = (self.names[self.name[i]], self.names[self.name[p]] if p >= 0 else "")
            row = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: id, name, parent id, op id,
        start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tparent\top\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                f.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                        f"{self.op[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
