"""In-memory spans around calls into the program's layers.

The benchmark times each layer from outside the program: a :class:`Tracer`
replaces public functions and methods with thin wrappers that record one
span per call (layer name, start, end, parent span) and bump per-layer
counters, and puts the originals back when the traced phase ends. No file
of the program changes, and untraced phases run the original code.

A layer's *self time* is its spans' durations minus the part of each span
that its child spans cover; the root span's self time is what no named
layer claims (``trace.unattributed_ratio``).

Spans are kept on one stack, so a tracer assumes the traced calls happen
on one thread. The campaign's worker processes (the supervised pool) run
none of the wrapped code.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "defining_class", "self_times"]

#: ``count(tracer, owner_self, args, result)`` — updates ``tracer.counts``
#: after a wrapped call returns.
CountHook = Callable[["Tracer", object, tuple, object], None]


@dataclass
class Span:
    layer: str
    start: float
    end: float
    #: Index of the enclosing span in the tracer's list, -1 for a root.
    parent: int


def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: span durations minus their children's cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        covered = _covered(children.get(index, ()), span.start, span.end)
        totals[span.layer] += (span.end - span.start) - covered
    return dict(totals)


def defining_class(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose own namespace defines ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


class Tracer:
    """Records spans and counters around wrapped calls, in memory.

    Use as a context manager: wrappers installed with :meth:`wrap` are
    removed on exit, even when the traced code raises.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._active: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        self._active[layer] += 1
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()
        self._active[self.spans[index].layer] -= 1

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self._open(layer)
        try:
            yield
        finally:
            self._close(index)

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    def total(self, layer: str) -> float:
        """Summed duration of the outermost spans of ``layer``."""
        return sum(
            span.end - span.start
            for span in self.spans
            if span.layer == layer
            and (span.parent < 0 or self.spans[span.parent].layer != layer)
        )

    # -- wrappers -------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        name: str,
        layer: str,
        count: Optional[CountHook] = None,
        only_under: Optional[str] = None,
    ) -> None:
        """Replace ``owner.name`` with a span-recording wrapper.

        ``owner`` is a module or a class; for a class the attribute is
        patched on the class of its MRO that defines it, so every subclass
        that inherits the method is traced. With ``only_under`` the call is
        traced only while a span of that layer is open (so optimizer steps
        of encoder pre-training stay inside ``ml.pretrain``).
        """
        if isinstance(owner, type):
            owner = defining_class(owner, name)
        original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if only_under is not None and not tracer._active[only_under]:
                return original(*args, **kwargs)
            index = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer, args[0] if args else None, args, result)
            return result

        self._patches.append((owner, name, original))
        setattr(owner, name, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
