"""Persistence for trained EDDIE models.

A deployed EDDIE monitor (the paper envisions a <$100 dedicated receiver
with "some flash for storing the model from training") needs the model as
an artifact. Models serialize to a single ``.npz`` file: JSON metadata
plus one reference array per region.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from repro.core.model import (
    CalibrationInfo,
    EddieConfig,
    EddieModel,
    RegionProfile,
)
from repro.dsp import stage_from_dict, stage_to_dict
from repro.em.scenario import EmTrace
from repro.errors import ConfigurationError
from repro.types import FaultSpan, RegionInterval, RegionTimeline, Signal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.stream.engine import StreamSnapshot

__all__ = [
    "atomic_write",
    "config_fingerprint",
    "save_model",
    "load_model",
    "save_trace",
    "load_trace",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
    "save_snapshot",
    "load_snapshot",
]

# Version 2 (DESIGN.md D36): models carry the trained energy reference and
# the quality gate keeps no energy history; version 1 files are refused.
_FORMAT_VERSION = 2
_SNAPSHOT_VERSION = 2
_TRACE_VERSION = 1


def atomic_write(path: Path, writer: Callable[[Path], None]) -> None:
    """Write ``path`` whole or not at all.

    ``writer`` fills a temp file created next to ``path`` (same
    directory, ``.tmp-`` prefix, ``path``'s suffix), which then replaces
    ``path`` in one :func:`os.replace`; the temp file is removed if
    anything fails, so readers never see a torn file.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def config_fingerprint(config: EddieConfig) -> str:
    """SHA-256 fingerprint of a pipeline config (via :mod:`repro.cache`).

    Stored in model metadata so loaders (and the model registry) can
    detect a corrupted or hand-edited config section without trusting
    the file's own claims about itself.
    """
    # Imported lazily: repro.cache imports this module at top level.
    from repro.cache import fingerprint

    return fingerprint("eddie-config", config)


def _calibration_digest(cal_dict: dict, cfg_fp: str) -> str:
    """Tamper-evident digest binding a calibration block to its config.

    Covers the canonical JSON of the calibration provenance *and* the
    config fingerprint it was saved under, so neither the provenance
    fields nor the config section can be swapped independently after
    save without the load-time check below refusing the file.
    """
    payload = json.dumps(
        {"calibration": cal_dict, "config_fingerprint": cfg_fp},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_model(model: EddieModel, path: Union[str, Path]) -> None:
    """Write a trained model to ``path`` (.npz)."""
    meta = {
        "format_version": _FORMAT_VERSION,
        "config_fingerprint": config_fingerprint(model.config),
        "program_name": model.program_name,
        "sample_rate": model.sample_rate,
        "initial_regions": model.initial_regions,
        "successors": model.successors,
        "energy_reference": model.energy_reference,
        "config": {
            "window_samples": model.config.window_samples,
            "overlap": model.config.overlap,
            "energy_fraction": model.config.energy_fraction,
            "peak_prominence": model.config.peak_prominence,
            "max_peaks": model.config.max_peaks,
            "alpha": model.config.alpha,
            "statistic": model.config.statistic,
            "diffuse_features": model.config.diffuse_features,
            "change_steps": model.config.change_steps,
            "report_threshold": model.config.report_threshold,
            "change_fraction": model.config.change_fraction,
            "group_sizes": list(model.config.group_sizes),
            "reference_cap": model.config.reference_cap,
            "min_mon_values": model.config.min_mon_values,
            "quality_gating": model.config.quality_gating,
            "clip_fraction": model.config.clip_fraction,
            "gap_samples": model.config.gap_samples,
            "dead_fraction": model.config.dead_fraction,
            "energy_outlier_mads": model.config.energy_outlier_mads,
            "resync_timeout": model.config.resync_timeout,
            "max_unscorable_fraction": model.config.max_unscorable_fraction,
            "frontend": [
                stage_to_dict(stage) for stage in model.config.frontend
            ],
        },
        "regions": [
            {
                "name": profile.name,
                "num_peaks": profile.num_peaks,
                "group_size": profile.group_size,
                "descriptor_dims": list(profile.descriptor_dims),
            }
            for profile in model.profiles.values()
        ],
    }
    if model.calibration is not None:
        cal_dict = model.calibration.to_dict()
        meta["calibration"] = {
            "info": cal_dict,
            "digest": _calibration_digest(
                cal_dict, meta["config_fingerprint"]
            ),
        }
    arrays = {
        f"reference_{i}": profile.reference
        for i, profile in enumerate(model.profiles.values())
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, meta=json.dumps(meta), **arrays)


def load_model(path: Union[str, Path]) -> EddieModel:
    """Load a model previously written by :func:`save_model`.

    Raises :class:`ConfigurationError` (never a raw ``KeyError`` or
    ``TypeError``) when the file is not a model file of this format, its
    metadata is malformed, or its config does not match the fingerprint
    it records.
    """
    with np.load(path, allow_pickle=False) as data:
        if "meta" not in data.files:
            raise ConfigurationError(f"{path}: not an EDDIE model file")
        try:
            return _model_from_meta(path, json.loads(str(data["meta"])), data)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{path}: malformed model metadata ({exc!r})"
            ) from exc


def _model_from_meta(path, meta: dict, data) -> EddieModel:
    """The model a :func:`save_model` file's metadata and reference
    arrays describe, checked against its format version and config
    fingerprint."""
    version = meta.get("format_version")
    if version != _FORMAT_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported model format version {version!r}"
        )
    cfg_dict = dict(meta["config"])
    cfg_dict["group_sizes"] = tuple(cfg_dict["group_sizes"])
    # Legacy files predate the frontend field; absent means none.
    # Present entries round-trip through the stage registry, and a
    # tampered entry either fails reconstruction here or changes the
    # rebuilt config's fingerprint, tripping the check below.
    cfg_dict["frontend"] = tuple(
        stage_from_dict(entry)
        for entry in cfg_dict.get("frontend", ())
    )
    config = EddieConfig(**cfg_dict)
    fingerprint = meta.get("config_fingerprint")
    if fingerprint != config_fingerprint(config):
        # save_model always records it: a missing or wrong value means
        # the metadata was altered after save (corruption or a
        # mislabeled artifact).
        raise ConfigurationError(
            f"{path}: config fingerprint mismatch -- the file's "
            f"config section does not match its recorded fingerprint, "
            f"or it records none (corrupted or mislabeled model artifact)"
        )
    # Models written before the transfer layer carry no calibration
    # block and load as base models. A present block must verify
    # against its recorded digest (which also binds the config
    # fingerprint): any edit to the provenance fields -- base
    # fingerprint, warp parameters -- is refused here.
    calibration = None
    cal_block = meta.get("calibration")
    if cal_block is not None:
        if not isinstance(cal_block, dict) or "info" not in cal_block:
            raise ConfigurationError(
                f"{path}: malformed calibration block"
            )
        recorded = cal_block.get("digest")
        actual = _calibration_digest(cal_block["info"], fingerprint)
        if recorded != actual:
            raise ConfigurationError(
                f"{path}: calibration block failed its integrity "
                f"check (tampered or corrupted derivation provenance)"
            )
        calibration = CalibrationInfo.from_dict(cal_block["info"])
    profiles = {}
    for i, region_meta in enumerate(meta["regions"]):
        profiles[region_meta["name"]] = RegionProfile(
            name=region_meta["name"],
            reference=data[f"reference_{i}"],
            num_peaks=region_meta["num_peaks"],
            group_size=region_meta["group_size"],
            descriptor_dims=tuple(region_meta.get("descriptor_dims", ())),
        )
    return EddieModel(
        program_name=meta["program_name"],
        config=config,
        profiles=profiles,
        successors={k: list(v) for k, v in meta["successors"].items()},
        initial_regions=list(meta["initial_regions"]),
        sample_rate=float(meta["sample_rate"]),
        calibration=calibration,
        energy_reference=meta["energy_reference"],
    )


def _snapshot_digest(meta: dict, arrays: dict) -> str:
    """SHA-256 over the snapshot's canonical content.

    Covers the metadata (canonical JSON) and every array's name, dtype,
    shape, and raw bytes, in sorted name order. A torn spill file or
    flipped bit fails verification instead of restoring garbage state.
    """
    digest = hashlib.sha256()
    digest.update(
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(arr.dtype).encode("utf-8"))
        digest.update(str(arr.shape).encode("utf-8"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def snapshot_to_bytes(snapshot: "StreamSnapshot") -> bytes:
    """Encode a stream snapshot as a self-verifying ``.npz`` blob.

    The blob is versioned and stamped with a content digest (on top of
    the config fingerprint the streaming engine already embeds), so the
    serving layer can spill it to disk and trust what it reads back.
    Uncompressed: spill files are checkpoint-cadence hot-path writes and
    the arrays are mostly noise-like floats that compress poorly.
    """
    wrapper = {
        "format_version": _SNAPSHOT_VERSION,
        "kind": "stream-snapshot",
        "digest": _snapshot_digest(snapshot.meta, snapshot.arrays),
        "state": snapshot.meta,
    }
    buffer = io.BytesIO()
    np.savez(buffer, meta=json.dumps(wrapper), **snapshot.arrays)
    return buffer.getvalue()


def snapshot_from_bytes(data: bytes) -> "StreamSnapshot":
    """Decode and verify a blob written by :func:`snapshot_to_bytes`.

    Raises :class:`ConfigurationError` (never a raw numpy/zipfile
    traceback) when the blob is truncated, corrupted, or not a snapshot.
    """
    from repro.stream.engine import StreamSnapshot

    try:
        with np.load(io.BytesIO(bytes(data)), allow_pickle=False) as npz:
            if "meta" not in npz.files:
                raise ConfigurationError("not a stream snapshot (no metadata)")
            wrapper = json.loads(str(npz["meta"]))
            arrays = {
                name: npz[name] for name in npz.files if name != "meta"
            }
    except ConfigurationError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, KeyError) as exc:
        raise ConfigurationError(
            f"corrupt or truncated stream snapshot: {exc}"
        ) from exc
    if wrapper.get("kind") != "stream-snapshot":
        raise ConfigurationError("not a stream snapshot")
    if wrapper.get("format_version") != _SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"unsupported snapshot format version "
            f"{wrapper.get('format_version')!r}"
        )
    meta = wrapper.get("state")
    if not isinstance(meta, dict):
        raise ConfigurationError("stream snapshot metadata is malformed")
    if wrapper.get("digest") != _snapshot_digest(meta, arrays):
        raise ConfigurationError(
            "stream snapshot failed its integrity check (truncated or "
            "corrupted blob)"
        )
    return StreamSnapshot(meta=meta, arrays=arrays)


def save_snapshot(
    snapshot: "StreamSnapshot", path: Union[str, Path]
) -> None:
    """Write a stream snapshot to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(snapshot_to_bytes(snapshot))


def load_snapshot(path: Union[str, Path]) -> "StreamSnapshot":
    """Load and verify a snapshot written by :func:`save_snapshot`."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read stream snapshot {path}: {exc}"
        ) from exc
    return snapshot_from_bytes(data)


def save_trace(trace: EmTrace, path: Union[str, Path]) -> None:
    """Write one captured EM trace (IQ + ground truth) to ``path`` (.npz).

    Enables the capture-once / analyze-offline workflow: a deployed
    receiver records traces in the field, training and monitoring run
    elsewhere.
    """
    meta = {
        "format_version": _TRACE_VERSION,
        "kind": "trace",
        "sample_rate": trace.iq.sample_rate,
        "t0": trace.iq.t0,
        "timeline": [
            [iv.region, iv.t_start, iv.t_end] for iv in trace.timeline
        ],
        "injected_spans": [list(span) for span in trace.injected_spans],
        "fault_spans": [
            [f.kind, f.t_start, f.t_end, f.magnitude]
            for f in trace.fault_spans
        ],
        "instr_count": trace.instr_count,
        "injected_instr_count": trace.injected_instr_count,
        "inputs": trace.inputs,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, meta=json.dumps(meta), iq=trace.iq.samples)


def load_trace(path: Union[str, Path]) -> EmTrace:
    """Load a trace previously written by :func:`save_trace`."""
    with np.load(path, allow_pickle=False) as data:
        try:
            meta = json.loads(str(data["meta"]))
        except KeyError:
            raise ConfigurationError(f"{path}: not an EDDIE trace file") from None
        if meta.get("kind") != "trace":
            raise ConfigurationError(f"{path}: not an EDDIE trace file")
        if meta.get("format_version") != _TRACE_VERSION:
            raise ConfigurationError(
                f"{path}: unsupported trace format version "
                f"{meta.get('format_version')!r}"
            )
        iq = Signal(data["iq"], float(meta["sample_rate"]), float(meta["t0"]))
    timeline = RegionTimeline(
        [RegionInterval(region, t0, t1) for region, t0, t1 in meta["timeline"]]
    )
    return EmTrace(
        iq=iq,
        timeline=timeline,
        injected_spans=[tuple(span) for span in meta["injected_spans"]],
        instr_count=int(meta["instr_count"]),
        injected_instr_count=int(meta["injected_instr_count"]),
        inputs=dict(meta["inputs"]),
        fault_spans=[
            FaultSpan(kind=k, t_start=s, t_end=e, magnitude=m)
            for k, s, e, m in meta.get("fault_spans", [])
        ],
    )
