"""Composable preprocessing stages between capture and STFT.

The EDDIE pipeline was hard-wired: whatever IQ the receiver produced went
straight into the STFT. Harsh RF environments (DESIGN.md D22) need a seam
there -- a denoiser, a gain normalizer, a band gate -- and the synthetic
fingerprint-transfer work will need calibration/warping stages on the
same seam. This module defines that seam:

- :class:`FrontendStage`: a frozen, keyword-only dataclass that is both
  the stage's configuration (fingerprintable by :mod:`repro.cache`,
  serializable into model metadata) and its implementation. The batch
  form is a pure function ``process(iq) -> iq``; :meth:`streaming`
  builds the stateful counterpart.
- :class:`StreamingStage`: the chunked form with
  ``feed/flush/export_state/restore_state``, following the
  :class:`~repro.core.stft.StreamingStft` idiom. Contract: for any
  chunking of a signal, ``concat(feed(c) for c in chunks) + flush()``
  is bit-identical to ``process(signal)``.
- :class:`FrontendChain`: the streaming composition of a stage tuple --
  what :class:`~repro.stream.StreamingMonitor` drives.
- A stage registry (:func:`stage_to_dict` / :func:`stage_from_dict`) so
  :mod:`repro.serialize` can embed the front-end chain in model
  metadata and reconstruct it exactly on load.

Stages preserve length and sample rate: a stage that buffers internally
(block stages, FIR group-delay compensation) releases every sample by
``flush`` time, so a chained stream emits exactly as many samples as it
was fed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.errors import ConfigurationError, SignalError
from repro.types import Signal

__all__ = [
    "FrontendStage",
    "StreamingStage",
    "BlockStage",
    "AgcStage",
    "FirGateStage",
    "FrontendChain",
    "apply_frontend",
    "register_stage",
    "stage_to_dict",
    "stage_from_dict",
    "validate_frontend",
    "fir_lowpass",
    "fir_filter",
]


class StreamingStage:
    """Stateful chunked counterpart of one :class:`FrontendStage`.

    Subclasses implement the four-method contract:

    - :meth:`feed` consumes one chunk and returns the processed samples
      released so far (possibly empty while the stage buffers);
    - :meth:`flush` releases everything still held, ending the stream;
    - :meth:`export_state` / :meth:`restore_state` round-trip the
      in-flight state (JSON-able meta dict + named ndarrays) so a
      checkpointed monitoring stream resumes bit-identically.

    An empty chunk must be returned unchanged without touching state --
    the chain relies on that when cascading flushes.
    """

    def feed(self, samples: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def flush(self) -> np.ndarray:
        raise NotImplementedError

    def export_state(self) -> tuple:
        raise NotImplementedError

    def restore_state(self, meta: dict, arrays: dict) -> None:
        raise NotImplementedError

    def resident_bytes(self) -> int:
        """Approximate bytes of buffered state (0 unless overridden)."""
        return 0


class FrontendStage:
    """Base of every preprocessing stage.

    Concrete stages are frozen keyword-only dataclasses (so the same
    object is the config: hashable, comparable, fingerprintable by
    :mod:`repro.cache` and serializable by the stage registry) that
    validate eagerly at construction, matching the
    :class:`~repro.core.model.EddieConfig` convention.
    """

    #: registry key; set by :func:`register_stage`.
    stage_type: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "FrontendStage":
        """Check every field; raise ConfigurationError on the first bad
        one. Returns ``self`` so it chains."""
        return self

    def process(self, iq: np.ndarray) -> np.ndarray:
        """Pure batch form: map the whole sample stream at once."""
        raise NotImplementedError

    def streaming(self) -> StreamingStage:
        """A fresh stateful stream applying this stage chunk by chunk."""
        raise NotImplementedError


def fir_lowpass(taps: int, cutoff: float) -> np.ndarray:
    """Hamming-windowed sinc low-pass with unit DC gain.

    ``cutoff`` is the band edge as a fraction of Nyquist. The operations
    repeat ``scipy.signal.firwin(taps, cutoff)`` one for one -- a sinc
    term, a symmetric Hamming window built as scipy's two-term general
    cosine (coefficients ``0.54`` and ``1.0 - 0.54``, which is not
    ``0.46`` in floating point), then division by the tap sum -- so the
    taps are bit-identical to firwin's (``tests/test_dsp.py`` sweeps
    that against scipy).
    """
    m = np.arange(taps, dtype=np.float64) - 0.5 * (taps - 1)
    h = cutoff * np.sinc(cutoff * m)
    h *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, taps))
    return h / np.sum(h)


def fir_filter(
    taps: np.ndarray, x: np.ndarray, zi: Optional[np.ndarray] = None
):
    """Apply an FIR filter; with ``zi``, carry its state across calls.

    Bit-identical to ``scipy.signal.lfilter(taps, 1.0, x, zi=zi)``,
    whose all-zero (``len(a) == 1``) branch it repeats: one full
    ``np.convolve`` in the common dtype, the carried state ``zi`` added
    to its head, and the trailing ``len(taps) - 1`` outputs returned as
    the next state. Returns ``y``, or ``(y, zf)`` when ``zi`` is given.
    """
    dtype = np.result_type(taps, x, *(() if zi is None else (zi,)))
    full = np.convolve(
        np.asarray(taps, dtype=dtype), np.asarray(x, dtype=dtype)
    )
    n = len(x)
    if zi is None:
        return full[:n]
    full[: len(zi)] += zi
    return full[:n], full[n:]


def _check_chunk(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise SignalError(
            f"frontend stages take 1-D sample arrays, got shape "
            f"{samples.shape}"
        )
    return samples


# -- block machinery ----------------------------------------------------------


class BlockStage(FrontendStage):
    """A stage that maps fixed-size blocks independently.

    Blocks are anchored at the start of the stream (sample ``k`` belongs
    to block ``k // block_samples`` no matter how the stream was
    chunked), and the final partial block is processed like any other,
    so the streaming form is bit-identical to batch by construction:
    both call :meth:`_process_block` on exactly the same slices.

    Subclasses provide a ``block_samples`` field and
    :meth:`_process_block`, which also receives the block's sample
    offset in the stream (for error messages).
    """

    def _process_block(self, block: np.ndarray, offset: int) -> np.ndarray:
        raise NotImplementedError

    def process(self, iq: np.ndarray) -> np.ndarray:
        iq = _check_chunk(iq)
        if len(iq) == 0:
            return iq.copy()
        size = self.block_samples
        parts = [
            self._process_block(iq[start: start + size], start)
            for start in range(0, len(iq), size)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def streaming(self) -> "_BlockStreamer":
        return _BlockStreamer(self)


class _BlockStreamer(StreamingStage):
    """Streaming driver for any :class:`BlockStage`: buffer to full
    blocks, emit each through the stage's block function, flush the
    final partial block exactly as batch processes it."""

    def __init__(self, stage: BlockStage) -> None:
        self._stage = stage
        self._buffer: Optional[np.ndarray] = None
        self._offset = 0  # stream offset of the buffer's first sample

    def feed(self, samples: np.ndarray) -> np.ndarray:
        samples = _check_chunk(samples)
        if len(samples) == 0:
            return samples
        prev = self._buffer
        buf = (
            np.concatenate([prev, samples])
            if prev is not None and len(prev)
            else samples
        )
        size = self._stage.block_samples
        n_full = len(buf) // size
        self._buffer = buf[n_full * size:].copy()
        if n_full == 0:
            return buf[:0]
        offset = self._offset
        self._offset += n_full * size
        parts = [
            self._stage._process_block(
                buf[i * size: (i + 1) * size], offset + i * size
            )
            for i in range(n_full)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def flush(self) -> np.ndarray:
        buf = self._buffer
        self._buffer = None
        if buf is None or len(buf) == 0:
            return np.empty(0) if buf is None else buf
        return self._stage._process_block(buf, self._offset)

    def export_state(self) -> tuple:
        meta = {"has_buffer": self._buffer is not None, "offset": self._offset}
        arrays = {}
        if self._buffer is not None:
            arrays["buffer"] = self._buffer.copy()
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict) -> None:
        if bool(meta.get("has_buffer")):
            self._buffer = np.array(arrays["buffer"])
        else:
            self._buffer = None
        self._offset = int(meta.get("offset", 0))

    def resident_bytes(self) -> int:
        return 0 if self._buffer is None else self._buffer.nbytes


# -- registry -----------------------------------------------------------------

_STAGE_TYPES: Dict[str, Type[FrontendStage]] = {}


def register_stage(type_name: str):
    """Class decorator registering a stage under a serialization key."""

    def decorate(cls: Type[FrontendStage]) -> Type[FrontendStage]:
        if not is_dataclass(cls):
            raise ConfigurationError(
                f"stage {cls.__name__} must be a dataclass to register"
            )
        cls.stage_type = type_name
        _STAGE_TYPES[type_name] = cls
        return cls

    return decorate


def stage_to_dict(stage: FrontendStage) -> dict:
    """JSON-able description of one stage: its type key plus fields."""
    if not isinstance(stage, FrontendStage) or not stage.stage_type:
        raise ConfigurationError(
            f"{type(stage).__name__} is not a registered frontend stage"
        )
    desc = {"type": stage.stage_type}
    for f in fields(stage):
        desc[f.name] = getattr(stage, f.name)
    return desc


def stage_from_dict(desc: dict) -> FrontendStage:
    """Reconstruct a stage written by :func:`stage_to_dict`.

    Raises :class:`ConfigurationError` for unknown stage types or
    invalid fields -- a model file naming a stage this build does not
    know must refuse to load rather than silently drop the stage.
    """
    if not isinstance(desc, dict) or "type" not in desc:
        raise ConfigurationError(f"malformed frontend stage entry: {desc!r}")
    cls = _STAGE_TYPES.get(desc["type"])
    if cls is None:
        raise ConfigurationError(
            f"unknown frontend stage type {desc['type']!r} "
            f"(known: {sorted(_STAGE_TYPES)})"
        )
    kwargs = {k: v for k, v in desc.items() if k != "type"}
    known = {f.name for f in fields(cls)}
    unknown = set(kwargs) - known
    if unknown:
        raise ConfigurationError(
            f"frontend stage {desc['type']!r} has no field(s) "
            f"{sorted(unknown)}"
        )
    return cls(**kwargs)


def validate_frontend(stages: Sequence[FrontendStage]) -> None:
    """Validate a frontend chain spec (every entry a registered stage)."""
    for stage in stages:
        if not isinstance(stage, FrontendStage):
            raise ConfigurationError(
                f"frontend entries must be FrontendStage instances, got "
                f"{type(stage).__name__}"
            )
        stage.validate()


def apply_frontend(
    stages: Sequence[FrontendStage], signal: Signal
) -> Signal:
    """Batch-apply a stage chain to a captured signal."""
    if not stages:
        return signal
    samples = signal.samples
    for stage in stages:
        samples = stage.process(samples)
    return Signal(samples, signal.sample_rate, signal.t0)


# -- chain --------------------------------------------------------------------


class FrontendChain(StreamingStage):
    """The streaming composition of a frontend stage tuple.

    Feeding chains each chunk through every stage's stream in order;
    flushing cascades: each stage's tail is fed through the stages after
    it before they flush, so the chain's total output is bit-identical
    to batch-processing the whole stream through
    :func:`apply_frontend`.
    """

    def __init__(self, stages: Sequence[FrontendStage]) -> None:
        validate_frontend(stages)
        if not stages:
            raise ConfigurationError("FrontendChain needs at least one stage")
        self.stages: Tuple[FrontendStage, ...] = tuple(stages)
        self._streams: List[StreamingStage] = [
            stage.streaming() for stage in self.stages
        ]

    def feed(self, samples: np.ndarray) -> np.ndarray:
        out = _check_chunk(samples)
        for stream in self._streams:
            if len(out) == 0:
                break
            out = stream.feed(out)
        return out

    def flush(self) -> np.ndarray:
        pending = np.empty(0)
        for stream in self._streams:
            fed = stream.feed(pending) if len(pending) else pending
            tail = stream.flush()
            if len(fed) and len(tail):
                pending = np.concatenate([fed, tail])
            else:
                pending = tail if len(tail) else fed
        return pending

    def export_state(self) -> tuple:
        meta: dict = {"stages": []}
        arrays: dict = {}
        for i, stream in enumerate(self._streams):
            s_meta, s_arrays = stream.export_state()
            meta["stages"].append(s_meta)
            for name, value in s_arrays.items():
                arrays[f"s{i}.{name}"] = value
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict) -> None:
        stage_metas = meta.get("stages", [])
        if len(stage_metas) != len(self._streams):
            raise ConfigurationError(
                f"frontend snapshot has {len(stage_metas)} stage(s), "
                f"this chain has {len(self._streams)}"
            )
        for i, (stream, s_meta) in enumerate(
            zip(self._streams, stage_metas)
        ):
            prefix = f"s{i}."
            s_arrays = {
                name[len(prefix):]: value
                for name, value in arrays.items()
                if name.startswith(prefix)
            }
            stream.restore_state(s_meta, s_arrays)

    def resident_bytes(self) -> int:
        return sum(stream.resident_bytes() for stream in self._streams)


# -- concrete stages ----------------------------------------------------------


@register_stage("agc")
@dataclass(frozen=True, kw_only=True)
class AgcStage(BlockStage):
    """Block automatic gain control: scale each block's RMS to a target.

    Each ``block_samples``-long block is rescaled so its RMS level hits
    ``target`` -- the ADC sweet spot (half full scale) a cheap SDR's AGC
    chases. With the receiver defaults (``adc_full_scale=4.0``) that
    target is ``2.0``.
    """

    block_samples: int = 4096
    target: float = 2.0

    def validate(self) -> "AgcStage":
        if self.block_samples < 2:
            raise ConfigurationError(
                f"block_samples must be >= 2, got {self.block_samples}"
            )
        if self.target <= 0:
            raise ConfigurationError(
                f"target must be positive, got {self.target}"
            )
        return self

    def _process_block(self, block: np.ndarray, offset: int) -> np.ndarray:
        rms = float(np.sqrt(np.mean(np.abs(block) ** 2)))
        if rms > 0:
            return block * (self.target / rms)
        return block.copy()


@register_stage("fir_gate")
@dataclass(frozen=True, kw_only=True)
class FirGateStage(FrontendStage):
    """Linear-phase FIR low-pass gate, group-delay compensated.

    The stage form of the receiver's decimation FIR gate (same
    :func:`fir_lowpass` design, same delay compensation), usable
    without decimating: it band-limits the stream to the inner
    ``cutoff`` fraction of Nyquist so out-of-band interferers never
    reach the STFT. Length-preserving: batch pads ``(taps-1)/2`` zeros
    through the filter and drops the same number of leading outputs;
    the streaming form carries the filter state across chunks and
    drains the pad at flush, so both emit exactly one output sample per
    input sample.
    """

    cutoff: float
    taps: int = 65
    block_samples: int = 4096

    def validate(self) -> "FirGateStage":
        if not 0 < self.cutoff < 1:
            raise ConfigurationError(
                f"cutoff must be in (0, 1) (fraction of Nyquist), got "
                f"{self.cutoff}"
            )
        if self.taps < 3 or self.taps % 2 == 0:
            raise ConfigurationError(
                f"taps must be an odd integer >= 3, got {self.taps}"
            )
        if self.block_samples < self.taps:
            raise ConfigurationError(
                f"block_samples must be >= taps ({self.taps}), got "
                f"{self.block_samples}"
            )
        return self

    def _taps(self) -> np.ndarray:
        return fir_lowpass(self.taps, self.cutoff)

    def process(self, iq: np.ndarray) -> np.ndarray:
        iq = _check_chunk(iq)
        if len(iq) == 0:
            return iq.copy()
        stream = self.streaming()
        head = stream.feed(iq)
        tail = stream.flush()
        if not len(tail):
            return head
        return np.concatenate([head, tail]) if len(head) else tail

    def streaming(self) -> "_FirGateStreamer":
        return _FirGateStreamer(self)


class _FirGateStreamer(StreamingStage):
    """Streaming FIR on a fixed block grid.

    :func:`fir_filter` with a carried ``zi`` is mathematically an exact
    chunk-wise decomposition of the batch filter, but each call's head
    outputs add the carried state to a fresh convolution, so the
    rounding differs in the last bit depending on where the call
    boundaries fall.
    Pinning the calls to a fixed ``block_samples`` grid anchored at the
    stream start makes the call sequence -- and therefore every output
    bit -- independent of how the caller chunked the stream; the batch
    :meth:`FirGateStage.process` drives this same streamer, so batch and
    streaming are identical by construction. The group-delay pad is
    handled as in the receiver: the first ``(taps-1)/2`` outputs are
    discarded and ``flush`` pushes that many zeros through to release
    the final samples, keeping the stage length-preserving.
    """

    def __init__(self, stage: FirGateStage) -> None:
        self._stage = stage
        self._taps = stage._taps()
        self._delay = (len(self._taps) - 1) // 2
        self._zi: Optional[np.ndarray] = None
        self._to_skip = self._delay
        self._in_dtype: Optional[np.dtype] = None
        self._buffer: Optional[np.ndarray] = None

    def _run(self, samples: np.ndarray) -> np.ndarray:
        """One filter call with carried state plus delay-skip logic."""
        if self._zi is None:
            self._in_dtype = samples.dtype
            zi_dtype = np.result_type(samples.dtype, np.float64)
            self._zi = np.zeros(len(self._taps) - 1, dtype=zi_dtype)
        out, self._zi = fir_filter(self._taps, samples, self._zi)
        if self._to_skip:
            skip = min(self._to_skip, len(out))
            self._to_skip -= skip
            out = out[skip:]
        return out

    def feed(self, samples: np.ndarray) -> np.ndarray:
        samples = _check_chunk(samples)
        if len(samples) == 0:
            return samples
        prev = self._buffer
        buf = (
            np.concatenate([prev, samples])
            if prev is not None and len(prev)
            else samples
        )
        size = self._stage.block_samples
        n_full = len(buf) // size
        self._buffer = buf[n_full * size:].copy()
        if n_full == 0:
            return buf[:0]
        parts = [
            self._run(buf[i * size: (i + 1) * size]) for i in range(n_full)
        ]
        parts = [p for p in parts if len(p)]
        if not parts:
            return buf[:0]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def flush(self) -> np.ndarray:
        buf = self._buffer
        self._buffer = None
        parts = []
        if buf is not None and len(buf):
            parts.append(self._run(buf))
        if self._zi is not None:
            pad = np.zeros(self._delay, dtype=self._in_dtype)
            parts.append(self._run(pad))
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.empty(0)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def export_state(self) -> tuple:
        meta = {
            "to_skip": self._to_skip,
            "has_zi": self._zi is not None,
            "has_buffer": self._buffer is not None,
            "in_dtype": (
                None if self._in_dtype is None else np.dtype(self._in_dtype).str
            ),
        }
        arrays = {}
        if self._zi is not None:
            arrays["zi"] = self._zi.copy()
        if self._buffer is not None:
            arrays["buffer"] = self._buffer.copy()
        return meta, arrays

    def restore_state(self, meta: dict, arrays: dict) -> None:
        self._to_skip = int(meta["to_skip"])
        if bool(meta.get("has_zi")):
            self._zi = np.array(arrays["zi"])
            self._in_dtype = np.dtype(meta["in_dtype"])
        else:
            self._zi = None
            self._in_dtype = None
        self._buffer = (
            np.array(arrays["buffer"]) if bool(meta.get("has_buffer")) else None
        )

    def resident_bytes(self) -> int:
        total = 0 if self._zi is None else self._zi.nbytes
        if self._buffer is not None:
            total += self._buffer.nbytes
        return total
