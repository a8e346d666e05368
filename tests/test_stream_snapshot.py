"""Stream checkpointing (DESIGN.md D19): cadence, compatibility, refusals.

The load-bearing contract -- feed N chunks, snapshot, restore into a
fresh monitor, feed M more, and every result is bit-identical to an
uninterrupted stream -- is checked by the equivalence suite
(``tests/test_equivalence.py``) at a random cut of every case. This
module covers the rest: checkpoint cadence (a snapshot after every
chunk), spills written by older builds, the refusals, and the
self-verifying spill codec the serving layer trusts its checkpoints to.
"""

import dataclasses

import numpy as np
import pytest
from conftest import shared_tiny_detector as detector_for
from conftest import tiny_scale

from repro.errors import ConfigurationError, MonitoringError
from repro.serialize import (
    _SNAPSHOT_VERSION,
    load_snapshot,
    save_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.stream import StreamingMonitor, StreamSnapshot

TINY = tiny_scale()

_SIGNALS = {}


def signal_for(name):
    if name not in _SIGNALS:
        detector = detector_for(name)
        _SIGNALS[name] = detector.source.capture(
            seed=TINY.monitor_seed(0)
        ).iq
    return _SIGNALS[name]


def feed_all(monitor, chunks):
    """Feed chunks, collecting (reports, windows, status) per chunk."""
    seen = []
    for chunk in chunks:
        results = monitor.feed(chunk)
        seen.append((
            [r for res in results for r in res.reports],
            sum(len(res.times) for res in results),
            results[-1].status if results else None,
        ))
    return seen


def snapshot_roundtrip(monitor):
    """Snapshot -> bytes -> snapshot, as the serving spill path does."""
    return snapshot_from_bytes(snapshot_to_bytes(monitor.snapshot()))


class TestBitIdentity:
    """Checkpoint cadence and spills written by older builds."""

    def test_repeated_snapshots_compose(self):
        # Checkpoint cadence must not matter: snapshot/restore after
        # every chunk equals one uninterrupted run.
        model = detector_for("bitcount").model
        signal = signal_for("bitcount")
        chunks = list(signal.iter_chunks(4096))
        straight = StreamingMonitor(model, t0=signal.t0)
        straight_seen = feed_all(straight, chunks)
        monitor = StreamingMonitor(model, t0=signal.t0)
        seen = []
        for chunk in chunks:
            seen.extend(feed_all(monitor, [chunk]))
            monitor = StreamingMonitor.restore(
                model, snapshot_roundtrip(monitor)
            )
        assert seen == straight_seen
        final = monitor.finish()
        reference = straight.finish()
        assert final == dataclasses.replace(
            reference, session_id=final.session_id
        )

    def test_restores_spill_with_legacy_batched_flag(self):
        # Spills written before the scalar monitor path was removed carry
        # a "batched" flag right after "t0". A rolling upgrade must
        # resume them: restore ignores the flag and the stream continues
        # bit-identically.
        model = detector_for("bitcount").model
        signal = signal_for("bitcount")
        chunks = list(signal.iter_chunks(2048))
        cut = len(chunks) // 2
        straight = StreamingMonitor(model, t0=signal.t0)
        straight_seen = feed_all(straight, chunks)
        interrupted = StreamingMonitor(model, t0=signal.t0)
        before = feed_all(interrupted, chunks[:cut])
        snap = interrupted.snapshot()
        assert "batched" not in snap.meta
        legacy_meta = {}
        for key, value in snap.meta.items():
            legacy_meta[key] = value
            if key == "t0":
                legacy_meta["batched"] = True
        blob = snapshot_to_bytes(
            StreamSnapshot(meta=legacy_meta, arrays=snap.arrays)
        )
        resumed = StreamingMonitor.restore(model, snapshot_from_bytes(blob))
        after = feed_all(resumed, chunks[cut:])
        assert before + after == straight_seen
        resumed_summary = resumed.finish()
        assert resumed_summary == dataclasses.replace(
            straight.finish(), session_id=resumed_summary.session_id
        )

    def test_restores_spill_with_legacy_sorted_buffers(self):
        # Spills written while the monitor kept a sorted buffer per
        # tracked dim carry "push_count" and "tracked_dims" in the
        # monitor meta plus mon.dim{d}.values/.ages arrays. The history
        # ring holds the same observations, so a rolling upgrade resumes
        # them: restore ignores the extras and the stream continues
        # bit-identically.
        model = detector_for("bitcount").model
        signal = signal_for("bitcount")
        chunks = list(signal.iter_chunks(2048))
        cut = len(chunks) // 2
        straight = StreamingMonitor(model, t0=signal.t0)
        straight_seen = feed_all(straight, chunks)
        interrupted = StreamingMonitor(model, t0=signal.t0)
        before = feed_all(interrupted, chunks[:cut])
        snap = interrupted.snapshot()
        mon_meta = snap.meta["monitor"]
        assert "push_count" not in mon_meta
        assert not any(key.startswith("mon.dim") for key in snap.arrays)
        history = snap.arrays["mon.history"]
        pushes = int(snap.meta["windows"])
        filled = int(mon_meta["filled"])
        order = (
            int(mon_meta["hist_pos"]) - filled + np.arange(filled)
        ) % len(history)
        tracked = sorted(
            {0}.union(*(p.test_dims for p in model.profiles.values()))
        )
        legacy_meta = {}
        for key, value in mon_meta.items():
            legacy_meta[key] = value
            if key == "filled":
                legacy_meta["push_count"] = pushes
        legacy_meta["tracked_dims"] = tracked
        arrays = dict(snap.arrays)
        for dim in tracked:
            column = history[order, dim]
            live = np.flatnonzero(~np.isnan(column))
            live = live[np.argsort(column[live], kind="stable")]
            arrays[f"mon.dim{dim}.values"] = column[live]
            arrays[f"mon.dim{dim}.ages"] = pushes - filled + live
        blob = snapshot_to_bytes(StreamSnapshot(
            meta=dict(snap.meta, monitor=legacy_meta), arrays=arrays,
        ))
        resumed = StreamingMonitor.restore(model, snapshot_from_bytes(blob))
        after = feed_all(resumed, chunks[cut:])
        assert before + after == straight_seen
        resumed_summary = resumed.finish()
        assert resumed_summary == dataclasses.replace(
            straight.finish(), session_id=resumed_summary.session_id
        )


class TestRefusals:
    def test_finished_stream_refuses_snapshot(self):
        model = detector_for("bitcount").model
        monitor = StreamingMonitor(model)
        monitor.finish()
        with pytest.raises(MonitoringError, match="finished"):
            monitor.snapshot()

    def test_keep_history_refuses_snapshot(self):
        model = detector_for("bitcount").model
        monitor = StreamingMonitor(model, keep_history=True)
        with pytest.raises(MonitoringError, match="keep_history"):
            monitor.snapshot()

    def test_restore_refuses_wrong_model(self):
        signal = signal_for("bitcount")
        monitor = StreamingMonitor(detector_for("bitcount").model)
        feed_all(monitor, list(signal.iter_chunks(4096))[:2])
        snap = monitor.snapshot()
        with pytest.raises(MonitoringError):
            StreamingMonitor.restore(detector_for("sha").model, snap)

    def test_restore_refuses_gating_mismatch(self):
        # Same program, different pipeline config: the fingerprint check
        # refuses rather than scoring against the wrong thresholds.
        model = detector_for("bitcount").model
        monitor = StreamingMonitor(model)
        feed_all(monitor, list(signal_for("bitcount").iter_chunks(4096))[:2])
        snap = monitor.snapshot()
        with pytest.raises(MonitoringError, match="config fingerprint"):
            StreamingMonitor.restore(model.with_quality_gating(True), snap)

    @pytest.mark.parametrize("edit, match", [
        ({"hist_pos": 10**6}, "hist_pos"),
        ({"hist_pos": -1}, "hist_pos"),
        ({"filled": 10**6}, "filled"),
        ({"filled": -1}, "filled"),
        ({"anomaly_count": -1}, "negative counter"),
        ({"streak": -2}, "negative counter"),
        ({"change_counts": {"<initial>": -1}}, "negative counter"),
        ({"resync_remaining": -3}, "resync_remaining"),
        ({"resync_remaining": 0}, "resync_remaining"),
        ({"resync_remaining": 10**6}, "resync_remaining"),
        ({"current_region": "loop:nowhere"}, "not in the model"),
        ({"change_counts": {"loop:nowhere": 1}}, "not in the model"),
    ])
    def test_restore_refuses_impossible_monitor_state(self, edit, match):
        # A spill whose monitor state no run can reach -- a cursor or
        # fill outside the history ring, a negative counter, a resync
        # budget outside [1, resync_timeout], a region the model lacks --
        # is refused with a typed error instead of resuming from it.
        model = detector_for("bitcount").model
        monitor = StreamingMonitor(model)
        feed_all(monitor, list(signal_for("bitcount").iter_chunks(4096))[:2])
        snap = monitor.snapshot()
        assert snapshot_roundtrip(monitor).meta == snap.meta
        if "change_counts" in edit:
            edit = {"change_counts": {
                model.initial_regions[0] if name == "<initial>" else name: v
                for name, v in edit["change_counts"].items()
            }}
        blob = snapshot_to_bytes(StreamSnapshot(
            meta=dict(snap.meta, monitor=dict(snap.meta["monitor"], **edit)),
            arrays=snap.arrays,
        ))
        with pytest.raises(MonitoringError, match=match):
            StreamingMonitor.restore(model, snapshot_from_bytes(blob))

    def test_restore_refuses_non_snapshot_meta(self):
        model = detector_for("bitcount").model
        with pytest.raises(MonitoringError, match="not a stream snapshot"):
            StreamingMonitor.restore(
                model, StreamSnapshot(meta={"kind": "nope"}, arrays={})
            )


class TestSpillCodec:
    """The self-verifying blob the serving layer spills to disk."""

    def _snapshot(self):
        monitor = StreamingMonitor(detector_for("bitcount").model)
        feed_all(monitor, list(signal_for("bitcount").iter_chunks(4096))[:3])
        return monitor.snapshot()

    def test_file_roundtrip(self, tmp_path):
        snap = self._snapshot()
        path = tmp_path / "session.npz"
        save_snapshot(snap, path)
        loaded = load_snapshot(path)
        assert loaded.meta == snap.meta
        assert set(loaded.arrays) == set(snap.arrays)
        for name, arr in snap.arrays.items():
            assert np.array_equal(loaded.arrays[name], arr, equal_nan=True)

    def test_truncated_blob_is_refused(self):
        blob = snapshot_to_bytes(self._snapshot())
        for cut in (1, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ConfigurationError):
                snapshot_from_bytes(blob[:cut])

    def test_flipped_bit_is_refused(self):
        snap = self._snapshot()
        blob = bytearray(snapshot_to_bytes(snap))
        # Flip a byte provably inside an array member's payload (locate
        # its raw bytes in the uncompressed zip) -- a flip in zip/npy
        # header padding would not corrupt content, and without the
        # digest a payload flip would load "fine".
        needle = snap.arrays["mon.history"].tobytes()
        pos = bytes(blob).find(needle)
        assert pos > 0
        blob[pos + len(needle) // 2] ^= 0x40
        with pytest.raises(ConfigurationError):
            snapshot_from_bytes(bytes(blob))

    def test_garbage_is_refused(self):
        with pytest.raises(ConfigurationError):
            snapshot_from_bytes(b"not a zip file at all")

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_snapshot(tmp_path / "absent.npz")

    def test_earlier_format_version_is_refused(self):
        """A version-1 spill carries the quality gate's energy ring; it
        is refused, not restored without it."""
        import io
        import json

        blob = snapshot_to_bytes(self._snapshot())
        with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        wrapper = json.loads(str(arrays.pop("meta")))
        wrapper["format_version"] = 1
        buffer = io.BytesIO()
        np.savez(buffer, meta=json.dumps(wrapper), **arrays)
        with pytest.raises(ConfigurationError, match="format version 1"):
            snapshot_from_bytes(buffer.getvalue())

    def test_digest_mismatch_is_refused(self):
        # A structurally valid npz whose recorded digest does not match
        # its content: exactly what a torn spill rewrite would produce.
        import io
        import json

        snap = self._snapshot()
        wrapper = {
            "format_version": _SNAPSHOT_VERSION,
            "kind": "stream-snapshot",
            "digest": "0" * 64,
            "state": snap.meta,
        }
        buffer = io.BytesIO()
        np.savez(buffer, meta=json.dumps(wrapper), **snap.arrays)
        with pytest.raises(ConfigurationError, match="integrity"):
            snapshot_from_bytes(buffer.getvalue())
