"""Versioned on-disk model registry with a shared in-memory LRU.

Fleet-scale serving stands or falls on giving many probes the *same*
reference model without bespoke per-device plumbing (PAPERS.md, the
synthetic-fingerprinting line of work). The registry is that shared
source of truth:

- **Layout**: ``<root>/<name>/v{NNNNN}.npz`` (the model, via
  :mod:`repro.serialize`'s lossless codec) plus a ``.json`` sidecar with
  the publish metadata, so listing never deserializes reference arrays.
- **Addressing**: ``name`` (latest), ``name@latest``, ``name@N``, or a
  content address ``fp:<hex-prefix>`` over the model fingerprint --
  the same canonical SHA-256 hashing :mod:`repro.cache` uses, covering
  config, region profiles, and reference arrays.
- **Integrity**: publish records both the full model fingerprint and the
  config fingerprint; load recomputes the model fingerprint and
  :func:`repro.serialize.load_model` independently verifies the config
  fingerprint, so a corrupted or mislabeled artifact is refused instead
  of silently mis-monitoring a fleet.
- **Atomicity**: artifacts and sidecars are written to a temp file in
  the destination directory and ``os.replace``-d, so concurrent
  publishers and a live server sharing one registry directory never see
  torn entries.
- **LRU**: deserialized :class:`~repro.core.model.EddieModel` instances
  are cached by fingerprint and shared by reference across sessions
  (per-region sorted references precompute once per model, not per
  device) -- the same sharing :class:`~repro.stream.FleetScheduler`
  relies on in-process.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.model import EddieModel
from repro.errors import RegistryError
from repro.obs import OBS, record_count
from repro.serialize import (
    atomic_write,
    config_fingerprint,
    load_model,
    save_model,
)

__all__ = ["ModelRegistry", "RegistryEntry", "ParsedSpec", "parse_spec"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_RE = re.compile(r"^v(\d{5})\.npz$")
# Derived (calibrated) artifacts live beside their base version, tagged
# with a 12-hex label of the derived model's own content fingerprint.
# _VERSION_RE deliberately does not match them: `name@latest` always
# resolves to a *base* version, never silently to somebody's derivation.
_DERIVED_RE = re.compile(r"^v(\d{5})\+cal-([0-9a-f]{12})\.npz$")
_CAL_LABEL_LEN = 12
_HEX_RE = re.compile(r"^[0-9a-fA-F]+$")
_VERSION_PART_RE = re.compile(r"^v?(\d+)$")


@dataclass(frozen=True)
class ParsedSpec:
    """A model spec, parsed: exactly one of ``fingerprint`` / ``name``.

    Grammar (DESIGN.md D23)::

        spec        := "fp:" HEX            (>= 6 hex digits)
                     | name version? cal?
        version     := "@latest" | "@" INT | "@v" INT
        cal         := "+cal:" HEX          (>= 6 hex digits)

    ``version is None`` means "latest". Fingerprint specs cannot carry a
    version or a calibration suffix -- a content address is already
    exact.
    """

    name: Optional[str] = None
    version: Optional[int] = None
    fingerprint: Optional[str] = None
    cal: Optional[str] = None

    def __str__(self) -> str:
        if self.fingerprint is not None:
            return f"fp:{self.fingerprint}"
        spec = str(self.name)
        if self.version is not None:
            spec += f"@{self.version}"
        if self.cal is not None:
            spec += f"+cal:{self.cal}"
        return spec


def _bad_spec(spec: object, why: str) -> RegistryError:
    return RegistryError(
        f"invalid model spec {spec!r}: {why}", code="bad_spec"
    )


def parse_spec(spec: str) -> ParsedSpec:
    """Parse a model spec string, or raise a typed ``bad_spec`` error.

    Never raises anything but :class:`~repro.errors.RegistryError` --
    malformed input from the CLI or a network peer must surface as a
    typed refusal, not a traceback.
    """
    if not isinstance(spec, str):
        raise _bad_spec(spec, "spec must be a string")
    if not spec:
        raise _bad_spec(spec, "spec is empty")
    if spec.startswith("fp:"):
        prefix = spec[3:]
        if len(prefix) < 6:
            raise _bad_spec(
                spec, "fingerprint prefix too short (use >= 6 hex digits)"
            )
        if not _HEX_RE.match(prefix):
            raise _bad_spec(spec, "fingerprint prefix is not hex")
        return ParsedSpec(fingerprint=prefix.lower())
    body, plus, cal_part = spec.partition("+")
    cal: Optional[str] = None
    if plus:
        if not cal_part.startswith("cal:"):
            raise _bad_spec(spec, "only '+cal:HEX' suffixes are supported")
        cal = cal_part[4:]
        if len(cal) < 6:
            raise _bad_spec(
                spec, "calibration label too short (use >= 6 hex digits)"
            )
        if len(cal) > _CAL_LABEL_LEN:
            raise _bad_spec(
                spec,
                f"calibration label longer than {_CAL_LABEL_LEN} hex digits",
            )
        if not _HEX_RE.match(cal):
            raise _bad_spec(spec, "calibration label is not hex")
        cal = cal.lower()
    name, at, version_part = body.partition("@")
    if not _NAME_RE.match(name):
        raise _bad_spec(spec, "bad model name")
    version: Optional[int] = None
    if at:
        if version_part != "latest":
            match = _VERSION_PART_RE.match(version_part)
            if not match:
                raise _bad_spec(spec, f"bad version {version_part!r}")
            version = int(match.group(1))
            if version < 1:
                raise _bad_spec(spec, "version must be >= 1")
    return ParsedSpec(name=name, version=version, cal=cal)


def model_fingerprint(model: EddieModel) -> str:
    """Content address of a trained model (config + profiles + arrays)."""
    from repro.cache import fingerprint

    return fingerprint("eddie-model", model)


@dataclass(frozen=True)
class RegistryEntry:
    """One published model version (base, or a ``+cal:`` derivation).

    ``cal`` is the derivation label (12 hex digits of the derived
    model's own fingerprint) and ``base_fingerprint`` the full content
    address of the base model it was calibrated from; both are empty for
    base versions.
    """

    name: str
    version: int
    fingerprint: str
    path: Path
    meta: Dict = field(default_factory=dict, compare=False)
    cal: str = ""
    base_fingerprint: str = ""

    @property
    def is_derived(self) -> bool:
        return bool(self.cal)

    @property
    def spec(self) -> str:
        if self.cal:
            return f"{self.name}@{self.version}+cal:{self.cal}"
        return f"{self.name}@{self.version}"


class ModelRegistry:
    """Publish/resolve/load trained models under a registry directory."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        cache_size: int = 8,
    ) -> None:
        if cache_size < 0:
            raise RegistryError(
                f"cache_size must be >= 0, got {cache_size}",
                code="internal",
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cache_size = int(cache_size)
        self._lru: "OrderedDict[str, EddieModel]" = OrderedDict()
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- publishing -----------------------------------------------------------

    def publish(
        self,
        model: EddieModel,
        name: Optional[str] = None,
        *,
        version: Optional[int] = None,
    ) -> RegistryEntry:
        """Write one model version; returns its entry.

        ``name`` defaults to the model's program name; ``version``
        defaults to one past the latest published version (1 for a new
        name). Publishing an explicit version that already exists is an
        error -- published versions are immutable.
        """
        if model.calibration is not None:
            raise RegistryError(
                "calibrated models are published with publish_derived(), "
                "which records their base lineage",
                code="internal",
            )
        name = name if name is not None else model.program_name
        if not _NAME_RE.match(name):
            raise RegistryError(
                f"invalid model name {name!r}: use letters, digits, "
                f"'.', '_', '-'",
                code="internal",
            )
        model_dir = self.root / name
        model_dir.mkdir(parents=True, exist_ok=True)
        existing = self._versions(name)
        if version is None:
            version = (max(existing) + 1) if existing else 1
        elif version in existing:
            raise RegistryError(
                f"{name}@{version} is already published; versions are "
                f"immutable",
                code="internal",
            )
        elif version < 1:
            raise RegistryError(
                f"version must be >= 1, got {version}", code="internal"
            )
        path = model_dir / f"v{version:05d}.npz"
        meta = {
            "name": name,
            "version": version,
            "fingerprint": model_fingerprint(model),
            "config_fingerprint": config_fingerprint(model.config),
            "program_name": model.program_name,
            "sample_rate": model.sample_rate,
            "regions": len(model.profiles),
            "created_at": time.time(),
        }
        atomic_write(path, lambda tmp: save_model(model, tmp))
        atomic_write(
            path.with_suffix(".json"),
            lambda tmp: tmp.write_text(
                json.dumps(meta, indent=2, sort_keys=True)
            ),
        )
        if OBS.enabled:
            record_count("repro.serve.registry", "published")
        return RegistryEntry(
            name=name,
            version=version,
            fingerprint=meta["fingerprint"],
            path=path,
            meta=meta,
        )

    def publish_derived(
        self,
        model: EddieModel,
        base: Union[str, RegistryEntry],
    ) -> RegistryEntry:
        """Publish a calibrated derivation beside its base version.

        ``base`` is the published base entry (or a spec resolving to
        one). The derived artifact is stored as
        ``<name>/v{NNNNN}+cal-{LABEL}.npz`` where ``LABEL`` is the first
        12 hex digits of the derived model's own content fingerprint,
        and resolves as ``name@N+cal:LABEL``. The sidecar records the
        base fingerprint and the full calibration provenance; load
        refuses the derivation if either was tampered with or the base
        is no longer published.
        """
        if model.calibration is None:
            raise RegistryError(
                "publish_derived() needs a calibrated model (no "
                "calibration provenance attached)",
                code="internal",
            )
        base_entry = base if isinstance(base, RegistryEntry) else (
            self.resolve(base)
        )
        if base_entry.is_derived:
            raise RegistryError(
                f"{base_entry.spec}: cannot derive from a derivation; "
                f"calibrate from the base model",
                code="internal",
            )
        if model.calibration.base_fingerprint != base_entry.fingerprint:
            raise RegistryError(
                f"model was calibrated from "
                f"fp:{model.calibration.base_fingerprint[:12]}, not from "
                f"{base_entry.spec} "
                f"(fp:{base_entry.fingerprint[:12]})",
                code="internal",
            )
        fingerprint = model_fingerprint(model)
        label = fingerprint[:_CAL_LABEL_LEN]
        path = (
            self.root / base_entry.name
            / f"v{base_entry.version:05d}+cal-{label}.npz"
        )
        if path.exists():
            raise RegistryError(
                f"{base_entry.spec}+cal:{label} is already published; "
                f"derivations are immutable",
                code="internal",
            )
        meta = {
            "name": base_entry.name,
            "version": base_entry.version,
            "cal": label,
            "fingerprint": fingerprint,
            "config_fingerprint": config_fingerprint(model.config),
            "base_fingerprint": base_entry.fingerprint,
            "base_spec": base_entry.spec,
            "calibration": model.calibration.to_dict(),
            "program_name": model.program_name,
            "sample_rate": model.sample_rate,
            "regions": len(model.profiles),
            "created_at": time.time(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, lambda tmp: save_model(model, tmp))
        atomic_write(
            path.with_suffix(".json"),
            lambda tmp: tmp.write_text(
                json.dumps(meta, indent=2, sort_keys=True)
            ),
        )
        if OBS.enabled:
            record_count("repro.serve.registry", "published_derived")
        return RegistryEntry(
            name=base_entry.name,
            version=base_entry.version,
            fingerprint=fingerprint,
            path=path,
            meta=meta,
            cal=label,
            base_fingerprint=base_entry.fingerprint,
        )

    # -- listing / resolution -------------------------------------------------

    def _versions(self, name: str) -> List[int]:
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        versions = []
        for entry in model_dir.iterdir():
            match = _VERSION_RE.match(entry.name)
            if match:
                versions.append(int(match.group(1)))
        return sorted(versions)

    def _derived_labels(self, name: str, version: int) -> List[str]:
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        labels = []
        for entry in model_dir.iterdir():
            match = _DERIVED_RE.match(entry.name)
            if match and int(match.group(1)) == version:
                labels.append(match.group(2))
        return sorted(labels)

    def _entry(
        self, name: str, version: int, cal: str = ""
    ) -> RegistryEntry:
        if cal:
            path = self.root / name / f"v{version:05d}+cal-{cal}.npz"
        else:
            path = self.root / name / f"v{version:05d}.npz"
        sidecar = path.with_suffix(".json")
        meta: Dict = {}
        if sidecar.exists():
            try:
                meta = json.loads(sidecar.read_text())
            except (OSError, json.JSONDecodeError):
                meta = {}
        return RegistryEntry(
            name=name,
            version=version,
            fingerprint=str(meta.get("fingerprint", "")),
            path=path,
            meta=meta,
            cal=cal,
            base_fingerprint=str(meta.get("base_fingerprint", "")),
        )

    def list_entries(self) -> List[RegistryEntry]:
        """Every published version (base versions, then each version's
        derivations), sorted by (name, version, cal)."""
        entries: List[RegistryEntry] = []
        for model_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            for version in self._versions(model_dir.name):
                entries.append(self._entry(model_dir.name, version))
                for label in self._derived_labels(model_dir.name, version):
                    entries.append(
                        self._entry(model_dir.name, version, label)
                    )
        return entries

    def resolve(self, spec: str) -> RegistryEntry:
        """Resolve a model spec to its entry.

        Accepts ``name``, ``name@latest``, ``name@N``, ``fp:HEX``, and
        calibrated derivations ``name[@N]+cal:HEX``. Malformed specs
        raise a typed ``bad_spec`` :class:`RegistryError`; well-formed
        specs that match nothing raise ``unknown_model``.
        """
        parsed = parse_spec(spec)
        if parsed.fingerprint is not None:
            return self._resolve_fingerprint(parsed.fingerprint)
        name = str(parsed.name)
        versions = self._versions(name)
        if not versions:
            raise RegistryError(f"no model named {name!r} in {self.root}")
        if parsed.version is None:
            version = versions[-1]
        elif parsed.version not in versions:
            raise RegistryError(
                f"{name}@{parsed.version} is not published (have "
                f"{', '.join(map(str, versions))})"
            )
        else:
            version = parsed.version
        if parsed.cal is None:
            return self._entry(name, version)
        labels = [
            label
            for label in self._derived_labels(name, version)
            if label.startswith(parsed.cal)
        ]
        if not labels:
            raise RegistryError(
                f"{name}@{version} has no derivation matching "
                f"+cal:{parsed.cal}"
            )
        if len(labels) > 1:
            raise RegistryError(
                f"+cal:{parsed.cal} is ambiguous under {name}@{version} "
                f"({len(labels)} derivations); use a longer label"
            )
        return self._entry(name, version, labels[0])

    def _resolve_fingerprint(self, prefix: str) -> RegistryEntry:
        matches = [
            e for e in self.list_entries()
            if e.fingerprint.startswith(prefix)
        ]
        if not matches:
            raise RegistryError(f"no published model matches fp:{prefix}")
        distinct = {e.fingerprint for e in matches}
        if len(distinct) > 1:
            raise RegistryError(
                f"fp:{prefix} is ambiguous ({len(distinct)} distinct "
                f"models); use a longer prefix"
            )
        # Identical content published under several names/versions:
        # any entry serves; pick the newest deterministically.
        return max(matches, key=lambda e: (e.name, e.version, e.cal))

    # -- loading --------------------------------------------------------------

    def load(self, spec: str) -> Tuple[EddieModel, RegistryEntry]:
        """Resolve and deserialize a model, via the shared LRU.

        A hit returns the *same* :class:`EddieModel` instance earlier
        sessions got -- model state is immutable during monitoring, and
        sharing it is what keeps per-session memory at just the stream
        state. A miss deserializes, verifies the content fingerprint
        against the sidecar, and caches.
        """
        entry = self.resolve(spec)
        with self._lock:
            model = self._lru.get(entry.fingerprint)
            if model is not None:
                self._lru.move_to_end(entry.fingerprint)
                self.cache_hits += 1
                if OBS.enabled:
                    record_count("repro.serve.registry", "lru_hits")
                return model, entry
            self.cache_misses += 1
        if OBS.enabled:
            record_count("repro.serve.registry", "lru_misses")
        if not entry.fingerprint:
            # Publish always records the fingerprint atomically, so an
            # entry without one means the sidecar was lost or torn --
            # refuse rather than serve an unverifiable artifact.
            raise RegistryError(
                f"{entry.spec}: no recorded content fingerprint (missing "
                f"or corrupt sidecar); republish the model",
                code="model_corrupt",
            )
        try:
            model = load_model(entry.path)
        except FileNotFoundError:
            raise RegistryError(
                f"{entry.spec}: artifact file is missing"
            ) from None
        except Exception as error:
            raise RegistryError(
                f"{entry.spec}: failed to load ({error})",
                code="model_corrupt",
            ) from error
        if model_fingerprint(model) != entry.fingerprint:
            raise RegistryError(
                f"{entry.spec}: content fingerprint mismatch (corrupted "
                f"or mislabeled artifact)",
                code="model_corrupt",
            )
        if entry.is_derived:
            # A derivation's lineage must check out end to end: the
            # artifact itself carries (digest-verified) calibration
            # provenance, the sidecar pins the same base fingerprint,
            # and that base must still be published here.
            if model.calibration is None:
                raise RegistryError(
                    f"{entry.spec}: derivation artifact carries no "
                    f"calibration provenance (tampered or mislabeled)",
                    code="model_corrupt",
                )
            if model.calibration.base_fingerprint != entry.base_fingerprint:
                raise RegistryError(
                    f"{entry.spec}: base fingerprint mismatch between "
                    f"artifact and sidecar (tampered derivation)",
                    code="model_corrupt",
                )
            base_published = any(
                not e.is_derived
                and e.fingerprint == entry.base_fingerprint
                for e in self.list_entries()
            )
            if not base_published:
                raise RegistryError(
                    f"{entry.spec}: base model "
                    f"fp:{entry.base_fingerprint[:12]} is not published "
                    f"here; refusing the orphaned derivation",
                )
        elif model.calibration is not None:
            raise RegistryError(
                f"{entry.spec}: base entry resolves to a calibrated "
                f"artifact (mislabeled derivation)",
                code="model_corrupt",
            )
        if self.cache_size:
            with self._lock:
                self._lru[entry.fingerprint] = model
                self._lru.move_to_end(entry.fingerprint)
                while len(self._lru) > self.cache_size:
                    self._lru.popitem(last=False)
        return model, entry

    @property
    def cached_fingerprints(self) -> List[str]:
        with self._lock:
            return list(self._lru)
