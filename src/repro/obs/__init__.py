"""Observability layer: tracing spans, typed metrics, run manifests.

Zero-dependency (numpy only, which the pipeline already requires) and
disabled by default: every instrumentation point in the pipeline guards
on ``OBS.enabled``, a single attribute check. The disabled path's <2%
overhead budget (DESIGN.md D16) is not measured by any benchmark yet
(ROADMAP item 4).

Enable with :func:`enable` (the CLI's ``--trace`` / ``--manifest-dir``
flags do), or set ``REPRO_OBS=1`` in the environment before the first
import of this package.

The three sub-layers:

- :mod:`repro.obs.trace` -- hierarchical spans (``with span("train")``)
  with wall/CPU time, a process-wide collector, and export/merge support
  so the ``ProcessPoolExecutor`` fan-out's child-process traces fold back
  into the parent (``repro.experiments.runner.parallel_map`` wires this).
- :mod:`repro.obs.metrics` -- counters/gauges/histograms registered by
  module, exported with one :func:`snapshot` call and merged across
  processes with :func:`merge_snapshot`.
- :mod:`repro.obs.manifest` -- per-experiment run manifests (config
  fingerprint, seeds, git SHA, per-stage timings, metric snapshot,
  result summary) and the ``repro obs diff`` machinery.

Typical embedded use::

    from repro import obs

    obs.enable()
    with obs.span("my-stage"):
        run_pipeline()
    print(obs.format_span_tree())
    print(obs.snapshot())
"""

from __future__ import annotations

import os as _os

from repro.obs.manifest import (
    DEFAULT_DIFF_IGNORE,
    MANIFEST_VERSION,
    build_manifest,
    diff_manifests,
    format_diff,
    git_sha,
    jsonify,
    load_manifest,
    manifest_path,
    write_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    counter,
    gauge,
    histogram,
    merge_snapshot,
    record_count,
    reset_metrics,
    snapshot,
    snapshot_module,
)
from repro.obs.trace import (
    OBS,
    SpanRecord,
    TraceCollector,
    aggregate_spans,
    disable,
    enable,
    enabled,
    export_spans,
    format_span_tree,
    get_collector,
    merge_spans,
    reset_tracing,
    span,
)

__all__ = [
    "DEFAULT_DIFF_IGNORE",
    "MANIFEST_VERSION",
    "OBS",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanRecord",
    "TraceCollector",
    "aggregate_spans",
    "build_manifest",
    "counter",
    "diff_manifests",
    "disable",
    "enable",
    "enabled",
    "export_spans",
    "export_state",
    "format_diff",
    "format_span_tree",
    "gauge",
    "get_collector",
    "git_sha",
    "histogram",
    "jsonify",
    "load_manifest",
    "manifest_path",
    "merge_export",
    "merge_snapshot",
    "merge_spans",
    "record_count",
    "reset",
    "reset_metrics",
    "reset_tracing",
    "snapshot",
    "snapshot_module",
    "span",
    "write_manifest",
]


def reset() -> None:
    """Fresh observability state: drop all spans and instruments.

    The enabled flag is left untouched; experiments reset at the start of
    a run so one process can produce several independent manifests.
    """
    reset_tracing()
    reset_metrics()


def export_state(reset_after: bool = False) -> dict:
    """This process's full observability state (spans + metrics) as a
    picklable dict -- what a pool worker sends back with each task."""
    state = {"spans": export_spans(reset=reset_after), "metrics": snapshot()}
    if reset_after:
        reset_metrics()
    return state


def merge_export(state: dict) -> None:
    """Fold a worker's :func:`export_state` payload into this process."""
    merge_spans(state.get("spans", []))
    merge_snapshot(state.get("metrics", {}))


if _os.environ.get("REPRO_OBS", "").strip() not in ("", "0", "false"):
    enable()
