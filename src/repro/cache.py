"""Content-addressed artifact cache for expensive pipeline products.

The two dominant costs of every experiment are (a) simulating runs and
capturing their traces and (b) training a model from those runs. Both are
pure functions of their configuration: a program IR, a core config, the
injection state, a seed, and the pipeline knobs fully determine the
output. This module memoizes them on disk under a key derived from a
canonical fingerprint of those inputs, so re-running an experiment (or
running its sibling that shares benchmarks) skips straight to monitoring.

Design points:

- **Fingerprints** (:func:`fingerprint`) are SHA-256 digests of a
  canonical JSON description (:func:`describe`) of the inputs. Dataclass
  trees, enums, numpy arrays, and mappings are handled structurally;
  callables (trip-count/branch-probability lambdas in program IRs) are
  described by their compiled bytecode, constants, and closure values --
  ``repr`` of a lambda contains a memory address and would never be
  stable across processes.
- **Round-trips are lossless.** Models and traces are stored via
  :mod:`repro.serialize` (``.npz``: exact binary arrays + JSON metadata
  whose floats round-trip by ``repr``), so a cache hit produces
  bit-identical downstream results to a recompute.
- **Writes are atomic** (temp file + :func:`os.replace` in the same
  directory), so concurrent workers of the parallel experiment runner
  can share one cache directory without torn entries.
- **Eviction** is size-bounded LRU: when ``max_bytes`` is set, the
  least-recently-used entries (by mtime; hits re-touch) are removed
  after each put until the cache fits.
- **Corruption tolerance**: an entry that fails to load is deleted and
  treated as a miss (the artifact is recomputed and re-cached).
- **Code identity**: entry paths are salted with a digest of the package
  sources (:func:`code_identity`), so after a code change a persistent
  cache misses instead of serving artifacts the old code produced; the
  stale entries age out through :meth:`ArtifactCache.clear` and LRU
  eviction.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import os
import types
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.obs import OBS, record_count
from repro.serialize import (
    atomic_write,
    load_model,
    load_trace,
    save_model,
    save_trace,
)
from repro.types import RegionInterval, RegionTimeline, Signal

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "configure",
    "describe",
    "digest",
    "disable",
    "fingerprint",
    "get_cache",
    "sts_fingerprint",
]

_SIM_RESULT_VERSION = 1


# -- canonical descriptions ---------------------------------------------------


def _describe_callable(obj: Any) -> Any:
    """A process-stable description of a function or lambda.

    Program IRs carry trip-count and branch-probability callables; two
    runs of the same experiment script must fingerprint them identically.
    The compiled bytecode plus constants, names, and captured closure
    values determine the callable's behavior; its ``repr`` (memory
    address) and qualname (enumeration order) do not.
    """
    code = obj.__code__
    closure = tuple(
        describe(cell.cell_contents) for cell in (obj.__closure__ or ())
    )
    defaults = tuple(describe(d) for d in (obj.__defaults__ or ()))
    return [
        "code",
        code.co_code.hex(),
        describe(code.co_consts),
        list(code.co_names),
        list(code.co_varnames),
        closure,
        defaults,
    ]


def describe(obj: Any) -> Any:
    """A canonical, JSON-serializable description of ``obj``.

    Equal inputs (in the "produce the same artifact" sense) yield equal
    descriptions across processes; differing inputs yield differing
    descriptions. Raises ``TypeError`` for types it does not understand
    rather than guessing -- a wrong fingerprint is a silent stale hit.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, obj.value]
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return [
            "ndarray",
            str(data.dtype),
            list(data.shape),
            hashlib.sha256(data.tobytes()).hexdigest(),
        ]
    if isinstance(obj, np.generic):
        return ["npscalar", str(obj.dtype), repr(obj.item())]
    if is_dataclass(obj) and not isinstance(obj, type):
        return [
            "dc",
            type(obj).__name__,
            [[f.name, describe(getattr(obj, f.name))] for f in fields(obj)],
        ]
    if isinstance(obj, (list, tuple)):
        return ["seq", [describe(item) for item in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(json.dumps(describe(i)) for i in obj)]
    if isinstance(obj, dict):
        return ["dict", [[describe(k), describe(v)] for k, v in obj.items()]]
    if isinstance(obj, bytes):
        return ["bytes", obj.hex()]
    if isinstance(obj, types.CodeType):
        # Nested code objects (comprehensions inside lambdas) show up in
        # co_consts.
        return [
            "codeobj",
            obj.co_code.hex(),
            describe(obj.co_consts),
            list(obj.co_names),
            list(obj.co_varnames),
        ]
    # Known pipeline objects that are not dataclasses (imported lazily to
    # keep this module import-light and cycle-free).
    from repro.arch.simulator import Simulator
    from repro.core.model import EddieModel, RegionProfile
    from repro.programs.ir import Program

    if isinstance(obj, Program):
        # Programs are immutable after construction (injections and
        # bursts live on the simulator engine, not the IR), and walking
        # every block's instructions dominates fingerprint cost -- so the
        # description is computed once and memoized on the instance.
        memo = getattr(obj, "_describe_memo", None)
        if memo is None:
            memo = [
                "Program",
                obj.name,
                obj.entry,
                describe(obj.params),
                describe(obj.blocks),
            ]
            obj._describe_memo = memo
        return memo
    if isinstance(obj, Simulator):
        # Everything else in a Simulator (CFG, loop forest, region
        # machine, schedule memos) is derived from program + core.
        return [
            "Simulator",
            describe(obj.program),
            describe(obj.core),
            describe(dict(obj.engine.loop_injections)),
            describe(list(obj._bursts)),
        ]
    if isinstance(obj, RegionProfile):
        return [
            "RegionProfile",
            obj.name,
            obj.num_peaks,
            obj.group_size,
            describe(obj.descriptor_dims),
            describe(obj.reference),
        ]
    if isinstance(obj, EddieModel):
        # Calibration provenance is part of a derived model's identity.
        return [
            "EddieModel",
            obj.program_name,
            describe(obj.config),
            describe(obj.profiles),
            describe(obj.successors),
            describe(list(obj.initial_regions)),
            describe(obj.sample_rate),
            describe(obj.energy_reference),
            describe(obj.calibration),
        ]
    if callable(obj) and hasattr(obj, "__code__"):
        return _describe_callable(obj)
    raise TypeError(
        f"cannot build a stable cache fingerprint for {type(obj).__name__}"
    )


def digest(description: Any) -> str:
    """SHA-256 hex digest of an already-:func:`describe`-d structure.

    Lets callers hoist the expensive description of a shared part (e.g.
    one simulator fingerprinted under many seeds) out of a loop:
    ``digest(["seq", [shared_desc, describe(seed)]])`` equals
    ``fingerprint(shared, seed)``.
    """
    payload = json.dumps(
        description, separators=(",", ":"), ensure_ascii=False
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical description of ``parts``."""
    return digest(describe(list(parts)))


def sts_fingerprint(signal: Any, model: Any) -> str:
    """Cache key of a signal's STS peak stream under ``model``.

    Keyed by the signal's exact samples plus only what the stream depends
    on (STFT geometry, peak extraction, quality gating and, when gating,
    the model's trained energy reference) -- not the whole
    :class:`EddieConfig`, so monitoring knobs like ``alpha`` or
    ``statistic`` (varied by experiment sweeps) reuse the same entry.
    """
    config = model.config
    return fingerprint(
        "sts",
        signal.samples,
        signal.sample_rate,
        signal.t0,
        config.window_samples,
        config.overlap,
        config.energy_fraction,
        config.max_peaks,
        config.peak_prominence,
        config.diffuse_features,
        config.quality_gating,
        config.clip_fraction if config.quality_gating else None,
        config.gap_samples if config.quality_gating else None,
        config.dead_fraction if config.quality_gating else None,
        config.energy_outlier_mads if config.quality_gating else None,
        getattr(config, "frontend", ()),
        model.energy_reference if config.quality_gating else None,
    )


# -- simulator-result persistence ---------------------------------------------
# EM traces reuse repro.serialize's trace format; the simulator's power
# traces (Table 2's source) get the analogous npz codec here.


def _save_sim_result(result: Any, path: Path) -> None:
    meta = {
        "format_version": _SIM_RESULT_VERSION,
        "kind": "sim_result",
        "sample_rate": result.power.sample_rate,
        "t0": result.power.t0,
        "timeline": [
            [iv.region, iv.t_start, iv.t_end] for iv in result.timeline
        ],
        "injected_spans": [list(span) for span in result.injected_spans],
        "cycles": result.cycles,
        "instr_count": result.instr_count,
        "injected_instr_count": result.injected_instr_count,
        "inputs": result.inputs,
    }
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle, meta=json.dumps(meta), power=result.power.samples
        )


def _load_sim_result(path: Path) -> Any:
    from repro.arch.simulator import SimulationResult

    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("kind") != "sim_result":
            raise ValueError(f"{path}: not a cached simulator result")
        if meta.get("format_version") != _SIM_RESULT_VERSION:
            raise ValueError(f"{path}: unsupported sim result version")
        power = Signal(
            data["power"], float(meta["sample_rate"]), float(meta["t0"])
        )
    timeline = RegionTimeline(
        [RegionInterval(r, t0, t1) for r, t0, t1 in meta["timeline"]]
    )
    return SimulationResult(
        power=power,
        timeline=timeline,
        injected_spans=[tuple(span) for span in meta["injected_spans"]],
        cycles=int(meta["cycles"]),
        instr_count=int(meta["instr_count"]),
        injected_instr_count=int(meta["injected_instr_count"]),
        inputs=dict(meta["inputs"]),
    )


# -- the cache ----------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance (this process only).

    Under the parallel experiment runner each pool worker tallies its own
    instance, so these numbers are per-process and silently partial. The
    cross-process totals live in the observability metric snapshot
    (``repro.cache/hits`` etc. in :func:`repro.obs.snapshot`): every
    stats mutation mirrors into an obs counter, and the runner merges the
    workers' snapshots back into the parent (DESIGN.md D16).
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def record(self, event: str, n: int = 1) -> None:
        """Count one event locally and in the process-merged metrics."""
        setattr(self, event, getattr(self, event) + n)
        if OBS.enabled:
            record_count("repro.cache", event, n)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@functools.lru_cache(maxsize=None)
def code_identity() -> str:
    """SHA-256 of the ``repro`` package's ``.py`` sources, once per process.

    Fingerprints name an artifact's inputs, not the code that computed
    it; :class:`ArtifactCache` salts its keys with this digest, so a
    persistent cache directory never serves artifacts that different
    code produced.
    """
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class ArtifactCache:
    """Disk cache of models and traces, keyed by input fingerprints."""

    def __init__(
        self,
        cache_dir: Union[str, Path],
        max_bytes: Optional[int] = None,
    ) -> None:
        self.dir = Path(cache_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    # -- generic machinery ----------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        # Salting every key with the code identity makes an entry written
        # by other code a miss, not a stale hit.
        salted = hashlib.sha256(f"{code_identity()}:{key}".encode()).hexdigest()
        return self.dir / kind / f"{salted}.npz"

    def _get(self, kind: str, key: str, loader) -> Optional[Any]:
        path = self._path(kind, key)
        if not path.exists():
            self.stats.record("misses")
            return None
        try:
            artifact = loader(path)
        except Exception:
            # Torn or corrupted entry (e.g. a crashed writer before the
            # atomic-replace discipline existed): drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.record("misses")
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        self.stats.record("hits")
        return artifact

    def _put(self, kind: str, key: str, saver) -> None:
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, saver)
        self.stats.record("puts")
        self._evict_to_fit()

    def _entries(self) -> List[Path]:
        return [p for p in self.dir.rglob("*.npz") if p.is_file()]

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._entries())

    def _evict_to_fit(self) -> None:
        if self.max_bytes is None:
            return
        entries = self._entries()
        sizes = {}
        for p in entries:
            try:
                stat = p.stat()
            except OSError:
                continue
            sizes[p] = (stat.st_mtime, stat.st_size)
        total = sum(size for _, size in sizes.values())
        if total <= self.max_bytes:
            return
        for path in sorted(sizes, key=lambda p: sizes[p][0]):
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= sizes[path][1]
            self.stats.record("evictions")

    def clear(self) -> None:
        for path in self._entries():
            try:
                path.unlink()
            except OSError:
                pass

    # -- artifact-specific entry points ---------------------------------------

    def get_model(self, key: str):
        """A cached trained model, or None."""
        return self._get("model", key, load_model)

    def put_model(self, key: str, model) -> None:
        self._put("model", key, lambda path: save_model(model, path))

    def get_trace(self, key: str):
        """A cached captured trace (EM or simulator power), or None."""

        def loader(path: Path):
            try:
                return load_trace(path)
            except Exception:
                return _load_sim_result(path)

        return self._get("trace", key, loader)

    def put_trace(self, key: str, trace) -> None:
        from repro.em.scenario import EmTrace

        if isinstance(trace, EmTrace):
            self._put("trace", key, lambda path: save_trace(trace, path))
        else:
            self._put("trace", key, lambda path: _save_sim_result(trace, path))

    def get_sts(self, key: str):
        """A cached STS peak stream ``(peaks, times, quality)``, or None."""

        def loader(path: Path):
            with np.load(path, allow_pickle=False) as data:
                peaks = data["peaks"]
                times = data["times"]
                quality = data["quality"] if "quality" in data else None
            return peaks, times, quality

        return self._get("sts", key, loader)

    def put_sts(self, key: str, peaks, times, quality=None) -> None:
        def saver(path: Path) -> None:
            arrays = {"peaks": peaks, "times": times}
            if quality is not None:
                arrays["quality"] = quality
            with open(path, "wb") as handle:
                np.savez_compressed(handle, **arrays)

        self._put("sts", key, saver)


# -- process-wide configuration -----------------------------------------------

_cache: Optional[ArtifactCache] = None
_configured = False


def configure(
    cache_dir: Optional[Union[str, Path]],
    max_bytes: Optional[int] = None,
) -> Optional[ArtifactCache]:
    """Set (or, with ``cache_dir=None``, unset) the process-wide cache."""
    global _cache, _configured
    _configured = True
    _cache = ArtifactCache(cache_dir, max_bytes) if cache_dir else None
    return _cache


def disable() -> None:
    """Turn caching off for this process."""
    configure(None)


def get_cache() -> Optional[ArtifactCache]:
    """The process-wide cache, if any.

    Unless :func:`configure` was called, the ``REPRO_CACHE_DIR``
    environment variable (read once) decides: set -> cache there,
    unset -> caching off.
    """
    global _configured
    if not _configured:
        env_dir = os.environ.get("REPRO_CACHE_DIR")
        configure(env_dir or None)
    return _cache
