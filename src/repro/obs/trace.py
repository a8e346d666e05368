"""Hierarchical tracing spans with wall/CPU timing.

A span marks one pipeline stage (``with span("train"): ...``); spans nest,
and every completed span is appended to the process-wide
:class:`TraceCollector` with a pointer to its parent, so the collector's
flat list is a forest. The open-span stack is thread-local (concurrent
threads each build their own branch); the completed list is shared under a
lock.

Disabled-by-default: :func:`span` returns a shared no-op context manager
unless :func:`enable` was called, so instrumented hot paths cost one
attribute check. The ``< 2%`` overhead budget of DESIGN.md D16 is not
measured by any benchmark yet (ROADMAP item 4).

Process-pool fan-outs survive tracing: a worker exports its completed
spans (:func:`export_spans`), the parent re-attaches them under its
currently open span (:func:`merge_spans`), re-indexing parents and
keeping the worker's pid so merged timelines remain attributable.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "OBS",
    "SpanRecord",
    "TraceCollector",
    "aggregate_spans",
    "disable",
    "enable",
    "enabled",
    "estimate_span_overhead_s",
    "export_spans",
    "format_span_tree",
    "get_collector",
    "merge_spans",
    "reset_tracing",
    "span",
]


class _ObsState:
    """Process-wide observability switch (shared by tracing and metrics).

    Call sites guard with ``if OBS.enabled:`` -- a single attribute load
    on the disabled path.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


OBS = _ObsState()


@dataclass
class SpanRecord:
    """One completed span.

    Attributes:
        name: stage name (dotted, e.g. ``"monitor.trace"``).
        parent: index of the enclosing span in the collector's list, or
            ``-1`` for a root span.
        t_start: wall-clock start (``time.perf_counter`` domain of the
            recording process; only differences are meaningful).
        wall_s: elapsed wall time in seconds.
        cpu_s: elapsed process CPU time in seconds.
        pid: OS process id that recorded the span (workers differ from
            the parent after a merge).
    """

    name: str
    parent: int
    t_start: float
    wall_s: float
    cpu_s: float
    pid: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "parent": self.parent,
            "t_start": self.t_start,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            name=str(data["name"]),
            parent=int(data["parent"]),
            t_start=float(data["t_start"]),
            wall_s=float(data["wall_s"]),
            cpu_s=float(data["cpu_s"]),
            pid=int(data["pid"]),
        )


class TraceCollector:
    """Process-wide store of completed spans.

    The completed list is append-only under ``_lock``; the stack of open
    span indices is thread-local so concurrent threads nest independently.
    """

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- open-span stack ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_parent(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def open_span(self, name: str) -> int:
        """Reserve a slot for a starting span; returns its index."""
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                SpanRecord(
                    name=name,
                    parent=self.current_parent(),
                    t_start=0.0,
                    wall_s=0.0,
                    cpu_s=0.0,
                    pid=os.getpid(),
                )
            )
        self._stack().append(index)
        return index

    def close_span(
        self, index: int, t_start: float, wall_s: float, cpu_s: float
    ) -> None:
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        if index >= len(self.spans):
            # The collector was reset while this span was open (e.g. a
            # worker exported mid-task); drop the record rather than
            # corrupting someone else's slot.
            return
        record = self.spans[index]
        record.t_start = t_start
        record.wall_s = wall_s
        record.cpu_s = cpu_s

    # -- export / merge (process-pool support) -------------------------------

    def export(self, reset: bool = False) -> List[Dict[str, Any]]:
        """Completed spans as plain dicts (open spans are excluded).

        ``reset`` empties the collector -- callers (the process-pool
        worker shim) invoke it between tasks, when no span is open.
        """
        with self._lock:
            done = [s.to_dict() for s in self.spans if s.t_start]
            if reset:
                self.spans = []
        return done

    def merge(self, exported: List[Dict[str, Any]]) -> None:
        """Attach a child process's exported spans under the current span.

        Parent indices are re-based onto this collector's list; the
        child's root spans become children of the caller's currently open
        span (or roots, outside any span).
        """
        if not exported:
            return
        attach_to = self.current_parent()
        with self._lock:
            offset = len(self.spans)
            for item in exported:
                record = SpanRecord.from_dict(item)
                record.parent = (
                    attach_to if record.parent < 0 else record.parent + offset
                )
                self.spans.append(record)

    def clear(self) -> None:
        with self._lock:
            self.spans = []
        self._local = threading.local()


_collector = TraceCollector()


def get_collector() -> TraceCollector:
    return _collector


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    __slots__ = ("_name", "_index", "_t0", "_c0", "_abs0")

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self) -> "_LiveSpan":
        self._index = _collector.open_span(self._name)
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        _collector.close_span(self._index, self._t0, wall, cpu)


def span(name: str):
    """Context manager timing one pipeline stage (no-op when disabled)."""
    if not OBS.enabled:
        return _NOOP_SPAN
    return _LiveSpan(name)


def enable() -> None:
    """Turn observability (tracing + metrics) on for this process."""
    OBS.enabled = True


def disable() -> None:
    OBS.enabled = False


def enabled() -> bool:
    return OBS.enabled


def reset_tracing() -> None:
    """Drop all completed spans (the enabled flag is left as is)."""
    _collector.clear()


def export_spans(reset: bool = False) -> List[Dict[str, Any]]:
    """This process's completed spans, ready to cross a process boundary."""
    return _collector.export(reset=reset)


def merge_spans(exported: List[Dict[str, Any]]) -> None:
    """Fold a worker's exported spans into this process's collector."""
    _collector.merge(exported)


def aggregate_spans(
    spans: Optional[List[SpanRecord]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-stage rollup: name -> {count, wall_s, cpu_s}.

    This is the per-stage timing block a run manifest stores; the flat
    span forest stays available for tree rendering.
    """
    if spans is None:
        spans = _collector.spans
    out: Dict[str, Dict[str, float]] = {}
    for record in spans:
        agg = out.setdefault(
            record.name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
        )
        agg["count"] += 1
        agg["wall_s"] += record.wall_s
        agg["cpu_s"] += record.cpu_s
    return out


def format_span_tree(
    spans: Optional[List[SpanRecord]] = None, max_spans: int = 200
) -> str:
    """Render the span forest as an indented tree (for ``--trace``).

    Sibling spans of the same name are collapsed into one line with a
    repeat count and summed times, so a 10-benchmark fan-out stays
    readable.
    """
    if spans is None:
        spans = _collector.spans
    children: Dict[int, List[int]] = {}
    for i, record in enumerate(spans):
        children.setdefault(record.parent, []).append(i)

    lines: List[str] = []

    def emit(parent: int, depth: int) -> None:
        groups: Dict[str, List[int]] = {}
        for i in children.get(parent, []):
            groups.setdefault(spans[i].name, []).append(i)
        for name, indices in groups.items():
            if len(lines) >= max_spans:
                return
            wall = sum(spans[i].wall_s for i in indices)
            cpu = sum(spans[i].cpu_s for i in indices)
            count = f" x{len(indices)}" if len(indices) > 1 else ""
            lines.append(
                f"{'  ' * depth}{name}{count}: "
                f"wall={wall:.3f}s cpu={cpu:.3f}s"
            )
            # Recurse under the group's first instance only when collapsed
            # (children of repeated stages are themselves repeated).
            for i in indices:
                emit(i, depth + 1)

    emit(-1, 0)
    if len(lines) >= max_spans:
        lines.append(f"... ({len(spans)} spans total)")
    return "\n".join(lines)


def estimate_span_overhead_s(samples: int = 512) -> float:
    """Measured cost of one enabled span enter/exit, in seconds.

    Runs against a throwaway collector so the calibration does not
    pollute the real trace. Used by manifests to report the enabled-mode
    observability overhead (span count x this).
    """
    global _collector
    real = _collector
    _collector = TraceCollector()
    try:
        t0 = time.perf_counter()
        for _ in range(samples):
            with _LiveSpan("obs.calibration"):
                pass
        elapsed = time.perf_counter() - t0
    finally:
        _collector = real
    return elapsed / samples
