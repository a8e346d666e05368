"""Typed counters, gauges, and histograms, registered by module.

Every pipeline module registers its instruments under its dotted module
name (``counter("core.monitor", "windows_scored")``); one
:func:`snapshot` call exports the whole registry as a JSON-able dict
that run manifests embed and :func:`merge_snapshot` folds worker-process
snapshots back into the parent -- which is what makes totals (e.g. the
artifact cache's hit/miss counts) correct under the
``ProcessPoolExecutor`` fan-out, where per-process tallies alone are
silently partial; :func:`merge_snapshots` merges without a registry.

All mutation is gated on the shared enabled flag (:data:`~repro.obs.trace.OBS`),
so the disabled path costs one attribute check per call site. Increments
take a per-instrument lock: counter totals stay exact under concurrent
threads (plain ``+=`` on an attribute is not atomic across bytecodes).

Merge semantics (deterministic when merges happen in task order):

- counters add;
- gauges take the incoming value if the incoming instrument was ever set;
- histograms add bin counts and pool count/sum/min/max (bin edges must
  match; mismatched edges raise, or keep the first in the pure merge).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.trace import OBS

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "counter",
    "gauge",
    "histogram",
    "merge_snapshot",
    "merge_snapshots",
    "record_count",
    "reset_metrics",
    "snapshot",
]

_registry: Dict[Tuple[str, str], Union["Counter", "Gauge", "Histogram"]] = {}
_registry_lock = threading.Lock()


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("module", "name", "value", "_lock")

    kind = "counter"

    def __init__(self, module: str, name: str) -> None:
        self.module = module
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if not OBS.enabled:
            return
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {n}")
        with self._lock:
            self.value += int(n)

    def to_dict(self) -> int:
        return self.value

    def merge(self, value: int) -> None:
        with self._lock:
            self.value += int(value)

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class Gauge:
    """A last-write-wins scalar (config values, sizes, levels)."""

    __slots__ = ("module", "name", "value", "is_set", "_lock")

    kind = "gauge"

    def __init__(self, module: str, name: str) -> None:
        self.module = module
        self.name = name
        self.value = 0.0
        self.is_set = False
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if not OBS.enabled:
            return
        with self._lock:
            self.value = float(value)
            self.is_set = True

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "set": self.is_set}

    def merge(self, data: Dict[str, Any]) -> None:
        with self._lock:
            if data.get("set"):
                self.value = float(data["value"])
                self.is_set = True

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0
            self.is_set = False


class Histogram:
    """Binned distribution summary of a stream of observations.

    ``edges`` (ascending bin boundaries) are fixed at registration so
    snapshots from different processes merge bin-by-bin; observations
    below the first or above the last edge land in the two overflow
    slots. Alongside the bins it tracks count / sum / min / max, so a
    manifest can report summary statistics even for wide-range inputs
    (trace power) where the bins are coarse.
    """

    __slots__ = ("module", "name", "edges", "bins", "count", "total",
                 "min", "max", "_lock")

    kind = "histogram"

    def __init__(
        self, module: str, name: str, edges: Sequence[float]
    ) -> None:
        if len(edges) < 2 or any(
            b <= a for a, b in zip(edges, list(edges)[1:])
        ):
            raise ValueError(
                f"histogram {name!r}: edges must be >= 2 ascending values"
            )
        self.module = module
        self.name = name
        self.edges = [float(e) for e in edges]
        # bins[0] = below edges[0]; bins[-1] = at/above edges[-1].
        self.bins = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        if not OBS.enabled:
            return
        self.record_many([value])

    def record_many(self, values: Sequence[float]) -> None:
        """Record a batch in one lock acquisition (the hot-path shape:
        the monitor flushes one run's observations at once)."""
        if not OBS.enabled or len(values) == 0:
            return
        clean = [float(v) for v in values if not math.isnan(float(v))]
        if not clean:
            return
        with self._lock:
            for v in clean:
                self.bins[self._bin_of(v)] += 1
                self.total += v
            self.count += len(clean)
            lo, hi = min(clean), max(clean)
            self.min = lo if self.min is None else min(self.min, lo)
            self.max = hi if self.max is None else max(self.max, hi)

    def _bin_of(self, value: float) -> int:
        # Linear scan is fine: instrument edges are O(10) and recording
        # is batched per run, not per sample.
        if value < self.edges[0]:
            return 0
        for i in range(len(self.edges) - 1):
            if value < self.edges[i + 1]:
                return i + 1
        return len(self.edges)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edges": self.edges,
            "bins": list(self.bins),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge(self, data: Dict[str, Any]) -> None:
        if not _same_edges(self.edges, data["edges"]):
            raise ValueError(
                f"histogram {self.name!r}: cannot merge snapshots with "
                f"different bin edges"
            )
        with self._lock:
            pooled = _pool_histograms(self.to_dict(), data)
            self.bins, self.count, self.total, self.min, self.max = (
                pooled[key] for key in ("bins", "count", "sum", "min", "max")
            )

    def reset(self) -> None:
        with self._lock:
            self.bins = [0] * (len(self.edges) + 1)
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None


def _same_edges(a: Sequence[float], b: Sequence[float]) -> bool:
    return [float(e) for e in a] == [float(e) for e in b]


def _pool_histograms(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Two histogram snapshots with the same edges, pooled."""
    lows = [v for v in (a["min"], b["min"]) if v is not None]
    highs = [v for v in (a["max"], b["max"]) if v is not None]
    return {
        "edges": list(a["edges"]),
        "bins": [x + y for x, y in zip(a["bins"], b["bins"])],
        "count": int(a["count"]) + int(b["count"]),
        "sum": float(a["sum"]) + float(b["sum"]),
        "min": min(lows, default=None),
        "max": max(highs, default=None),
    }


def _get_or_register(module: str, name: str, factory):
    key = (module, name)
    instrument = _registry.get(key)
    if instrument is None:
        with _registry_lock:
            instrument = _registry.get(key)
            if instrument is None:
                instrument = factory()
                _registry[key] = instrument
    return instrument


def counter(module: str, name: str) -> Counter:
    """The (module, name) counter, registered on first use."""
    instrument = _get_or_register(module, name, lambda: Counter(module, name))
    if not isinstance(instrument, Counter):
        raise TypeError(f"{module}/{name} is a {instrument.kind}, not a counter")
    return instrument


def gauge(module: str, name: str) -> Gauge:
    instrument = _get_or_register(module, name, lambda: Gauge(module, name))
    if not isinstance(instrument, Gauge):
        raise TypeError(f"{module}/{name} is a {instrument.kind}, not a gauge")
    return instrument


def histogram(module: str, name: str, edges: Sequence[float]) -> Histogram:
    instrument = _get_or_register(
        module, name, lambda: Histogram(module, name, edges)
    )
    if not isinstance(instrument, Histogram):
        raise TypeError(
            f"{module}/{name} is a {instrument.kind}, not a histogram"
        )
    return instrument


def record_count(module: str, name: str, n: int = 1) -> None:
    """One-line guarded increment for call sites without a cached handle."""
    if OBS.enabled:
        counter(module, name).inc(n)


def snapshot() -> Dict[str, Dict[str, Any]]:
    """The whole registry as a JSON-able dict, sorted for determinism:

    ``{"counters": {"mod/name": int}, "gauges": {...}, "histograms": {...}}``
    """
    with _registry_lock:
        items = sorted(_registry.items())
    out: Dict[str, Dict[str, Any]] = {
        "counters": {}, "gauges": {}, "histograms": {},
    }
    for (module, name), instrument in items:
        out[instrument.kind + "s"][f"{module}/{name}"] = instrument.to_dict()
    return out


def snapshot_module(module: str) -> Dict[str, Dict[str, Any]]:
    """Like :func:`snapshot`, restricted to one module's instruments.

    The serving layer's STATS frames use this to export only the
    ``repro.serve`` instruments instead of the whole process registry.
    """
    with _registry_lock:
        items = sorted(_registry.items())
    out: Dict[str, Dict[str, Any]] = {
        "counters": {}, "gauges": {}, "histograms": {},
    }
    for (mod, name), instrument in items:
        if mod == module:
            out[instrument.kind + "s"][f"{mod}/{name}"] = instrument.to_dict()
    return out


def merge_snapshot(snap: Dict[str, Dict[str, Any]]) -> None:
    """Fold a worker process's snapshot into this process's registry.

    Instruments the parent has not registered yet are created on the fly
    (histogram edges come from the snapshot).
    """
    for full_name, value in snap.get("counters", {}).items():
        module, name = full_name.split("/", 1)
        counter(module, name).merge(value)
    for full_name, value in snap.get("gauges", {}).items():
        module, name = full_name.split("/", 1)
        gauge(module, name).merge(value)
    for full_name, value in snap.get("histograms", {}).items():
        module, name = full_name.split("/", 1)
        histogram(module, name, value["edges"]).merge(value)


def merge_snapshots(
    snaps: Sequence[Dict[str, Dict[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """:func:`merge_snapshot`'s rules applied to ``snaps`` in order, into
    a new snapshot, touching no instrument. A histogram whose edges
    differ from the first one's is skipped instead of raising."""
    out: Dict[str, Dict[str, Any]] = {"counters": {}, "gauges": {}, "histograms": {}}
    counters, gauges, histograms = out.values()
    for snap in snaps:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snap.get("gauges", {}).items():
            if name not in gauges or value.get("set"):
                gauges[name] = dict(value)
        for name, value in snap.get("histograms", {}).items():
            prior = histograms.get(name)
            if prior is None:
                histograms[name] = dict(
                    value, edges=list(value["edges"]), bins=list(value["bins"])
                )
            elif _same_edges(prior["edges"], value["edges"]):
                histograms[name] = _pool_histograms(prior, value)
    return out


def reset_metrics() -> None:
    """Unregister every instrument.

    Handles obtained before the reset keep working but detach from the
    registry (their later values will not appear in snapshots); call
    sites therefore re-fetch instruments per run rather than caching
    them across runs.
    """
    with _registry_lock:
        _registry.clear()
