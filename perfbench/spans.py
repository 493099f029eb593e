"""Spans and counters recorded from outside the program.

A :class:`Tracer` replaces functions of ``repro`` classes and modules with
wrappers, in this process only and only until :meth:`Tracer.uninstall`.
With ``timing=True`` every wrapped call records a span (name, start, end,
parent, run id); with ``timing=False`` the wrappers only count calls and
rows, which is what the untraced runs use for their correctness checks.

Calls and rows are counted at the outermost span of a name only, so a
method that calls a wrapped method of the same layer (a subclass calling
``super()``, a batched evaluator looping over the scalar one) is counted
once.  Spans are kept in memory and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import threading
import time
from collections import defaultdict

__all__ = [
    "Tracer",
    "self_times",
    "percentile",
    "tail_percentile",
    "quartile_spread",
    "wrapper_cost",
]


class Tracer:
    """Wraps functions at run time and records what passes through them."""

    def __init__(self, timing: bool = True) -> None:
        self.timing = timing
        #: Finished spans: ``(id, name, start, end, parent_id, run_id)``.
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0
        self._id_lock = threading.Lock()

    # -- run ids ---------------------------------------------------------
    @property
    def run_id(self):
        return getattr(self._local, "run_id", None)

    @run_id.setter
    def run_id(self, value) -> None:
        self._local.run_id = value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    # -- spans -----------------------------------------------------------
    def span(self, name: str):
        """Context manager recording one span (the benchmark's own roots);
        a no-op when not timing."""
        return _Span(self, name) if self.timing else contextlib.nullcontext()

    def _open(self, name: str):
        stack = self._stack()
        outermost = all(frame[1] != name for frame in stack)
        frame = (self._new_id() if self.timing else 0, name, outermost)
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((frame[0], frame[1], start, end, parent, self.run_id))

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, rows=None, after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``rows(args, kwargs)`` gives the rows one call processes and
        ``after(tracer, result)`` reads counters off the return value; both
        run at the outermost span of ``name`` only.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame, parent = tracer._open(name)
            outermost = frame[2]
            if outermost:
                tracer.counts[name + ".calls"] += 1
                if rows is not None:
                    tracer.counts[name + ".rows"] += rows(args, kwargs)
            start = time.perf_counter() if tracer.timing else 0.0
            try:
                result = original(*args, **kwargs)
            finally:
                if tracer.timing:
                    tracer._close(frame, parent, start)
                else:
                    tracer._stack().pop()
            if outermost and after is not None:
                after(tracer, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, run_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame, self.parent = self.tracer._open(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self.frame, self.parent, self.start)


def self_times(spans) -> dict:
    """Self time per span name: each span's duration minus its children's.

    ``spans`` are ``(id, name, start, end, parent_id, run_id)`` tuples.
    Children run inside their parent's interval on the same thread, so a
    child's whole duration is covered by its parent.
    """
    children = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        totals[name] += (end - start) - children.get(span_id, 0.0)
    return dict(totals)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values, q: float, beyond: int = 10) -> tuple[float, float]:
    """The ``q``-quantile, or the highest one that has ``beyond`` samples above it.

    Returns ``(value, quantile used)``.  With too few samples for any
    quantile above the median to have ``beyond`` samples past it, the
    median is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(min(math.ceil(q * n), n - beyond), math.ceil(0.5 * n), 1)
    return float(ordered[rank - 1]), rank / n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


class _Probe:
    def call(self):
        return None


def wrapper_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one timing wrapper adds to a call (median of ``repeats``)."""
    probe = _Probe()
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            probe.call()
        plain = time.perf_counter() - start
        tracer = Tracer(timing=True)
        tracer.wrap(_Probe, "call", "probe")
        try:
            start = time.perf_counter()
            for _ in range(calls):
                probe.call()
            wrapped = time.perf_counter() - start
        finally:
            tracer.uninstall()
        costs.append(max(wrapped - plain, 0.0) / calls)
    return statistics.median(costs)
