"""Per-experiment run manifests: what ran, with what config, and what
every stage produced.

A manifest is one JSON artifact per experiment run with four sections:

- ``identity``: experiment name, the full scaling config, its
  content-address (reusing :mod:`repro.cache`'s canonical fingerprints),
  and the seed namespaces -- everything that *determines* the run.
- ``results``: the experiment's result structure plus the full metric
  snapshot (stage counters, per-region K-S rejections, STS peak-count /
  trace-power / K-S p-value histograms) -- everything the run *produced*.
- ``timings``: per-stage span rollups, total wall time, the
  enabled-mode observability overhead estimate, and the counters of
  process-wide caches (:data:`PROCESS_STATE_COUNTERS`).
- ``environment``: git SHA, interpreter/library versions, worker count,
  cache configuration, timestamp -- where/when it ran.

Two runs with identical seeds and config must agree on ``identity`` and
``results`` exactly; ``timings`` and ``environment`` legitimately differ,
so :func:`diff_manifests` ignores them by default. That contract is what
the golden-trace regression suite (``tests/golden/``) and the
parallel-equals-serial test pin down.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = [
    "MANIFEST_VERSION",
    "DEFAULT_DIFF_IGNORE",
    "PROCESS_STATE_COUNTERS",
    "build_manifest",
    "diff_manifests",
    "format_diff",
    "git_sha",
    "load_manifest",
    "manifest_path",
    "write_manifest",
]

MANIFEST_VERSION = 1

# Sections that legitimately differ between reruns of the same config.
DEFAULT_DIFF_IGNORE: Tuple[str, ...] = ("timings", "environment")

# Counters of process-wide caches (the simulator's variant memo, DESIGN.md
# D27). They count what earlier work in the same process left behind, not
# what this run's config and seeds determine, so they are reported with
# the timings instead of the results.
PROCESS_STATE_COUNTERS: Tuple[str, ...] = (
    "arch.engine/variant_compiles",
    "arch.engine/variant_memo_hits",
)


# -- JSON-able views of arbitrary result structures ---------------------------


def jsonify(obj: Any) -> Any:
    """A plain-JSON view of an experiment result structure.

    Dataclasses become dicts, numpy scalars/arrays become Python
    numbers/lists, non-string dict keys are stringified (sorted for
    determinism). Floats survive a JSON round-trip exactly (Python's
    ``repr`` shortest-float behaviour), so equality of jsonified trees is
    equality of the results.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, enum.Enum):
        return str(obj.value)
    if isinstance(obj, np.generic):
        return jsonify(obj.item())
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonify(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {
            _key_str(k): jsonify(v)
            for k, v in sorted(obj.items(), key=lambda kv: _key_str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_key_str(v) for v in obj)
    return repr(obj)


def _key_str(key: Any) -> str:
    return key if isinstance(key, str) else repr(key)


# -- environment --------------------------------------------------------------


def git_sha(start_dir: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The current git commit, or None outside a work tree."""
    candidates = []
    if start_dir is not None:
        candidates.append(Path(start_dir))
    candidates.append(Path.cwd())
    # The source checkout this module was imported from (src/repro/obs/..).
    candidates.append(Path(__file__).resolve().parents[3])
    for directory in candidates:
        try:
            out = subprocess.run(
                ["git", "-C", str(directory), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=5,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if out.returncode == 0:
            return out.stdout.strip()
    return None


# -- building -----------------------------------------------------------------


def build_manifest(
    experiment: str,
    scale: Any = None,
    result: Any = None,
    jobs: Any = None,
    scale_name: Optional[str] = None,
    extra_identity: Optional[Dict[str, Any]] = None,
    cache_info: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest of the observability state accumulated for
    one experiment run (spans + metrics recorded since the last reset)."""
    from repro.cache import describe, fingerprint  # import-light cycle guard

    identity: Dict[str, Any] = {
        "experiment": experiment,
        "scale_name": scale_name,
    }
    if scale is not None:
        identity["scale"] = jsonify(scale)
        identity["config_fingerprint"] = fingerprint(
            "manifest", experiment, scale
        )
        seeds: Dict[str, Any] = {}
        if hasattr(scale, "seed"):
            seeds["base"] = scale.seed
        for namespace in ("train_seed", "monitor_seed", "injected_seed"):
            method = getattr(scale, namespace, None)
            if callable(method):
                seeds[namespace] = method(0)
        identity["seeds"] = seeds
    else:
        identity["config_fingerprint"] = fingerprint("manifest", experiment)
    if extra_identity:
        identity.update(jsonify(extra_identity))

    metrics = obs_metrics.snapshot()
    process_state = {
        name: metrics["counters"].pop(name)
        for name in PROCESS_STATE_COUNTERS
        if name in metrics["counters"]
    }
    results: Dict[str, Any] = {"metrics": metrics}
    if result is not None:
        results["result"] = jsonify(result)
        results["result_type"] = type(result).__name__

    spans = obs_trace.get_collector().spans
    per_span = obs_trace.estimate_span_overhead_s() if spans else 0.0
    timings: Dict[str, Any] = {
        "stages": obs_trace.aggregate_spans(spans),
        "total_wall_s": sum(s.wall_s for s in spans if s.parent < 0),
        "observability": {
            "enabled": obs_trace.enabled(),
            "spans_recorded": len(spans),
            "per_span_overhead_s": per_span,
            "estimated_overhead_s": per_span * len(spans),
        },
        "process_state": process_state,
    }

    environment: Dict[str, Any] = {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "jobs": jobs,
        "cache": cache_info,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }

    return {
        "schema": {"kind": "repro-run-manifest", "version": MANIFEST_VERSION},
        "identity": identity,
        "results": results,
        "timings": timings,
        "environment": environment,
    }


def manifest_path(
    directory: Union[str, Path], experiment: str, scale_name: Optional[str]
) -> Path:
    suffix = f"_{scale_name}" if scale_name else ""
    return Path(directory) / f"{experiment}{suffix}.json"


def write_manifest(manifest: Dict[str, Any], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, allow_nan=True) + "\n"
    )
    return path


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    data = json.loads(Path(path).read_text())
    kind = data.get("schema", {}).get("kind")
    if kind != "repro-run-manifest":
        raise ValueError(f"{path}: not a run manifest (kind={kind!r})")
    return data


# -- diffing ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Difference:
    """One divergence between two manifests."""

    path: str
    a: Any
    b: Any

    def __str__(self) -> str:
        return f"{self.path}: {self.a!r} != {self.b!r}"


def diff_manifests(
    a: Dict[str, Any],
    b: Dict[str, Any],
    ignore: Sequence[str] = DEFAULT_DIFF_IGNORE,
    rtol: float = 1e-9,
) -> List[Difference]:
    """Stage-by-stage structural diff of two manifests.

    ``ignore`` names top-level sections excluded from the comparison --
    by default the two that legitimately vary between reruns (timings,
    environment). Numbers compare with relative tolerance ``rtol`` to
    absorb summation-order jitter (a parallel run folds worker partial
    sums in task order; a serial run accumulates record by record).
    Returns the empty list when the manifests agree.
    """
    diffs: List[Difference] = []
    keys = sorted(set(a) | set(b))
    for key in keys:
        if key in ignore:
            continue
        _diff_value(a.get(key), b.get(key), key, rtol, diffs)
    return diffs


def _numbers(x: Any, y: Any) -> bool:
    return (
        isinstance(x, (int, float)) and not isinstance(x, bool)
        and isinstance(y, (int, float)) and not isinstance(y, bool)
    )


def _diff_value(
    a: Any, b: Any, path: str, rtol: float, out: List[Difference]
) -> None:
    if _numbers(a, b):
        fa, fb = float(a), float(b)
        if math.isnan(fa) and math.isnan(fb):
            return
        if fa == fb:
            return
        if math.isclose(fa, fb, rel_tol=rtol, abs_tol=rtol):
            return
        out.append(Difference(path, a, b))
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            _diff_value(
                a.get(key, _MISSING), b.get(key, _MISSING),
                f"{path}.{key}", rtol, out,
            )
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(
                Difference(f"{path}.<len>", len(a), len(b))
            )
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _diff_value(x, y, f"{path}[{i}]", rtol, out)
        return
    if a != b:
        out.append(
            Difference(
                path,
                "<missing>" if a is _MISSING else a,
                "<missing>" if b is _MISSING else b,
            )
        )


class _Missing:
    def __repr__(self) -> str:
        return "<missing>"


_MISSING = _Missing()


def format_diff(diffs: Sequence[Difference], limit: int = 50) -> str:
    if not diffs:
        return "manifests agree (timings/environment ignored)"
    lines = [str(d) for d in diffs[:limit]]
    if len(diffs) > limit:
        lines.append(f"... and {len(diffs) - limit} more differences")
    return "\n".join(lines)
