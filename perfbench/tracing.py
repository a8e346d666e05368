"""Outside-in layer trace: spans recorded around calls into the program.

The traced run patches the names callers actually bind (``from x import
f`` copies the binding, so ``repro.stream.batchkernel.peak_rows`` is
wrapped, not ``repro.core.peaks.peak_rows``) with wrappers that record a
span per call: name, start, end, parent span and the timed unit it ran
in. Spans stay in memory until the run ends. A layer's self time is its
spans' duration minus the part their child spans cover; whatever no
layer span covers inside a unit is the unit span's own self time, which
the report calls ``unattributed``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

UNIT = "unit"

# Span record fields.
_NAME, _START, _END, _PARENT, _UNIT = range(5)


class Tracer:
    """Wraps program functions; collects spans and call counts."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.amounts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._unit = -1

    # -- installing -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr`` (a module global or a class attribute)."""
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(
                [name, time.perf_counter(), 0.0,
                 stack[-1] if stack else -1, tracer._unit]
            )
            stack.append(idx)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][_END] = time.perf_counter()

        self._patch(owner, attr, original, traced)

    def count(
        self,
        owner,
        attr: str,
        name: str,
        amount: Optional[Callable[..., float]] = None,
    ) -> None:
        """Count calls of ``owner.attr`` (and ``amount(*args)`` per call)
        without a span."""
        original = getattr(owner, attr)
        calls = self.calls
        amounts = self.amounts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            calls[name] += 1
            if amount is not None:
                amounts[name] += amount(*args)
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def unit(self, index: int):
        """The root span of one timed unit; layer spans nest inside."""
        if self._stack:
            raise RuntimeError("a unit span cannot nest inside another span")
        self._unit = index
        idx = len(self.spans)
        self.spans.append([UNIT, time.perf_counter(), 0.0, -1, index])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][_END] = time.perf_counter()
            self._unit = -1

    # -- reading --------------------------------------------------------------

    def accounting(self, scales: np.ndarray) -> Dict[str, object]:
        """Self and total time per span name, raw and normalized, and
        self time as a share of the traced wall time.

        ``scales[u]`` is the host-normalization factor of unit ``u``.
        ``problems`` lists every way the spans fail to add up: a child
        outside its parent, a span outside any unit, or self times that
        do not sum to the units' wall time.
        """
        spans = self.spans
        problems = set()
        child_time = [0.0] * len(spans)
        for rec in spans:
            parent = rec[_PARENT]
            if rec[_END] < rec[_START]:
                problems.add(f"span {rec[_NAME]} ends before it starts")
            if parent < 0:
                if rec[_NAME] != UNIT:
                    problems.add(f"span {rec[_NAME]} ran outside any unit")
                continue
            outer = spans[parent]
            if rec[_START] < outer[_START] or rec[_END] > outer[_END]:
                problems.add(
                    f"child span {rec[_NAME]} exceeds its parent "
                    f"{outer[_NAME]}"
                )
            child_time[parent] += rec[_END] - rec[_START]
        by_name: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                     "total_norm_s": 0.0, "self_norm_s": 0.0}
        )
        wall = 0.0
        wall_norm = 0.0
        self_sum = 0.0
        for i, rec in enumerate(spans):
            duration = rec[_END] - rec[_START]
            own = duration - child_time[i]
            scale = float(scales[rec[_UNIT]]) if rec[_UNIT] >= 0 else 0.0
            entry = by_name[rec[_NAME]]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += own
            entry["total_norm_s"] += duration * scale
            entry["self_norm_s"] += own * scale
            self_sum += own
            if rec[_NAME] == UNIT:
                wall += duration
                wall_norm += duration * scale
        for entry in by_name.values():
            entry["self_share"] = entry["self_s"] / wall if wall > 0 else 0.0
        if wall <= 0 or abs(self_sum - wall) > 1e-6 * wall:
            problems.add(
                f"layer self times sum to {self_sum:.6f}s, not the traced "
                f"wall time {wall:.6f}s"
            )
        return {
            "wall_s": wall,
            "wall_norm_s": wall_norm,
            "unattributed_share": (
                by_name[UNIT]["self_s"] / wall if wall > 0 else 0.0
            ),
            "layers": {k: dict(v) for k, v in by_name.items()},
            "problems": sorted(problems),
        }
