"""Span tracer for the traced benchmark run.

All tracing happens from outside the program: the tracer replaces, for the
length of one traced pass, every pentacc function that one module imports
from another (``pentacc.certify.F``, ``pentacc.cli.region_classify``, ...)
and the few named interval methods the upper layers call, with wrappers that
record a span.  Interval operators dispatch through dunder methods rather
than imported names, so their time stays inside the calling layer's self
time; the tracer counts the ``Interval`` objects they build instead.

Spans are kept in memory as ``[name, layer, start, end, parent]`` lists and
written out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("intervals", "symmetric", "certify", "equations", "geometry",
          "tropical", "cli")

# Named interval-layer methods that the upper layers call directly.  Methods
# used inside the interval operators themselves (``point``, ``intersect``)
# are left alone: wrapping them would trace every arithmetic operation.
_INTERVAL_METHODS = (
    ("Interval", "split"),
    ("Interval", "around"),
    ("Box", "split_coord"),
    ("Jet2", "variable_y"),
    ("Jet2", "variable_a"),
)


class Tracer:
    """Records spans at layer boundaries and counts Interval objects."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.objects = 0
        self._stack: list = []
        self._patches: list = []

    def wrap(self, layer: str, name: str, fn):
        """``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch the layer boundaries of every pentacc module."""
        from pentacc import intervals

        for layer in LAYERS:
            module = importlib.import_module(f"pentacc.{layer}")
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None) or ""
                if (callable(obj) and not isinstance(obj, type)
                        and home.startswith("pentacc.") and home != module.__name__):
                    self._patch(module, attr, self.wrap(
                        home.rpartition(".")[2], f"{module.__name__}.{attr}", obj))
        for cls_name, meth in _INTERVAL_METHODS:
            cls = getattr(intervals, cls_name)
            raw = cls.__dict__[meth]
            name = f"pentacc.intervals.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(
                    self.wrap("intervals", name, raw.__func__)))
            else:
                self._patch(cls, meth, self.wrap("intervals", name, raw))

        init = intervals.Interval.__init__
        tracer = self

        def counting_init(iv, lo, hi):
            tracer.objects += 1
            init(iv, lo, hi)

        self._patch(intervals.Interval, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self, first: int = 0, last: int | None = None) -> dict:
        """{layer: (calls, self seconds)} over spans[first:last].

        Self time is a span's duration minus the durations of its direct
        children; spans nest, since the load is one closed-loop caller.
        """
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, layer, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for i, (name, layer, start, end, parent) in enumerate(spans):
            totals[layer][0] += 1
            totals[layer][1] += (end - start) - child[i]
        return {layer: (c, s) for layer, (c, s) in totals.items()}

    def inclusive(self, layer: str, first: int = 0, last: int | None = None) -> float:
        """Seconds spent inside outermost spans of ``layer`` in a range."""
        spans = self.spans
        stop = len(spans) if last is None else last
        total = 0.0
        for i in range(first, stop):
            name, lay, start, end, parent = spans[i]
            if lay != layer:
                continue
            p = parent
            while p >= first and spans[p][1] != layer:
                p = spans[p][4]
            if p < first:
                total += end - start
        return total
