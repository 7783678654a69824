"""In-memory spans around calls into quasiradial's layers, recorded from outside.

A target function is replaced, at each module where callers look it up, by
a wrapper that records one span: name, start, end and the span that was open
when it was called (its parent).  Spans live in compact arrays until `dump`
writes them to one `.npz` file at the end of the process.
"""

from __future__ import annotations

import functools
import time
from array import array

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        # span index -> (nodes, iterations) for solve spans, profiles kept
        # for trial-family spans
        self.extra: dict[int, tuple] = {}
        self._open = [-1]

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, module, attr: str, name: str, on_return=None):
        """Replace module.attr by a span-recording wrapper.

        on_return(span_index, args, result) runs after the span closes, so
        its cost stays outside the span.
        """
        fn = getattr(module, attr)
        code = self._code(name)
        parent, names, start, end, opened = (self.parent, self.name, self.start,
                                             self.end, self._open)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(opened[-1])
            names.append(code)
            end.append(0.0)
            opened.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                opened.pop()
            if on_return is not None:
                on_return(idx, args, result)
            return result

        setattr(module, attr, wrapper)

    def outer_total(self, *names: str) -> float:
        """Summed duration of the spans named in `names` that are not nested
        in another span of those names (0 when none)."""
        codes = {self._codes[n] for n in names if n in self._codes}
        return sum(e - s for c, s, e, par in zip(self.name, self.start, self.end,
                                                  self.parent)
                   if c in codes and (par < 0 or self.name[par] not in codes))

    def dump(self, path) -> None:
        import numpy as np

        idx = np.fromiter(self.extra.keys(), dtype=np.int64, count=len(self.extra))
        vals = np.array([self.extra[i] for i in idx], dtype=np.int64).reshape(-1, 2)
        np.savez(path, names=np.array(self.names, dtype=str),
                 parent=np.array(self.parent, dtype=np.int64),
                 name=np.array(self.name, dtype=np.int32),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64),
                 extra_idx=idx, extra_val=vals)
