"""Fleet batch kernel: lifecycle inside a live group, the pooled planner,
and the vectorized kernels.

DESIGN.md D20's load-bearing claim -- routing a fleet round through
:class:`FleetKernel` changes *nothing* about any session's results -- is
checked by the equivalence suite (``tests/test_equivalence.py``), with
mixed models, chunkings and captures in one fleet. This module adds a
sweep of kernel fleets of mixed seeds and chunk sizes against isolated
streams across every MiBench program, and pins the mechanisms under it:

- snapshot/restore and idle eviction in the middle of a live group,
- the pooled chunk planner with steady, history-filling, and
  quality-flagged sessions in one call, walked and stepped against the
  scalar oracle,
- hypothesis fuzz of the vectorized exact-integer K-S row kernel and
  the vectorized peak extractor against their scalar counterparts
  (tie-heavy integer grids, since K-S run-end handling is where
  vectorization could plausibly diverge).
"""

import numpy as np
import pytest
from conftest import shared_tiny_detector as detector_for
from conftest import stream_in_chunks, tiny_scale
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import ScalarMonitor, assert_results_equal
from repro.core.monitor import (
    Monitor,
    MonitorResult,
    plan_chunks_pooled,
    score_ks_jobs,
)
from repro.core.peaks import extract_peaks, peak_matrix, peak_rows
from repro.core.stats.ks import _ks_d_int, ks_d_int_rows
from repro.core.stft import QF_CLIPPED, QF_GAPPED, stft
from repro.programs.mibench import BENCHMARKS
from repro.stream import FleetScheduler, StreamingMonitor

TINY = tiny_scale()

# Mixed per-session chunkings: primes straddling the hop, a power of
# two, and an odd giant -- sessions of one fleet need not agree.
_CHUNKINGS = (997, 2048, 4099)


def drive_fleet(fleet, signals, chunkings):
    """Feed each signal through its fleet session in kernel rounds.

    Sessions stay open afterwards (unlike source-driven
    :meth:`step_round`, which closes exhausted streams), so their
    monitors can be finished and compared in place.
    """
    steps = [
        list(sig.iter_chunks(chunk))
        for sig, chunk in zip(signals, chunkings)
    ]
    for r in range(max(len(s) for s in steps)):
        fleet.feed_many([
            (f"dev-{s}", steps[s][r])
            for s in range(len(steps))
            if r < len(steps[s])
        ])
    for s in range(len(steps)):
        fleet.session(f"dev-{s}").monitor.finish()


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_every_program_mixed_chunkings(self, name):
        """A kernel fleet of mixed seeds and chunk sizes == isolation."""
        detector = detector_for(name)
        model = detector.model
        signals = [
            detector.source.capture(seed=TINY.monitor_seed(50 + s)).iq
            for s in range(len(_CHUNKINGS))
        ]
        fleet = FleetScheduler(max_sessions=8, keep_history=True)
        for s in range(len(_CHUNKINGS)):
            fleet.add_session(f"dev-{s}", model)
        drive_fleet(fleet, signals, _CHUNKINGS)
        for s, (signal, chunk) in enumerate(zip(signals, _CHUNKINGS)):
            assert_results_equal(
                fleet.session(f"dev-{s}").monitor.result(),
                stream_in_chunks(model, signal.samples, chunk).result(),
            )


class TestKernelMidGroupChanges:
    def test_snapshot_restore_mid_group(self):
        """A session checkpointed out of one kernel group and restored
        into another (already-running) fleet loses nothing: the kernel
        keeps no per-session state to pack or unpack."""
        detector = detector_for("bitcount")
        model = detector.model
        signals = [
            detector.source.capture(seed=TINY.monitor_seed(70 + s)).iq
            for s in range(3)
        ]
        chunk = 4096
        steps = [
            list(sig.iter_chunks(chunk)) for sig in signals
        ]
        rounds = max(len(s) for s in steps)
        half = rounds // 2
        # keep_history=False: snapshot() refuses history-keeping streams,
        # so per-round results are collected from the feed_many slots.
        fleet_a = FleetScheduler(max_sessions=4)
        for s in range(3):
            fleet_a.add_session(f"dev-{s}", model)
        results = {s: [] for s in range(3)}
        for r in range(half):
            batch = [
                (f"dev-{s}", steps[s][r])
                for s in range(3)
                if r < len(steps[s])
            ]
            for (sid, _), slot in zip(batch, fleet_a.feed_many(batch)):
                results[int(sid[-1])].extend(slot)
        # Suspend dev-1 over a snapshot; the other two keep their
        # monitors (detached so fleet_b can adopt them unchanged).
        snap = fleet_a.session("dev-1").monitor.snapshot()
        restored = StreamingMonitor.restore(model, snap)
        fleet_b = FleetScheduler(max_sessions=4)
        fleet_b.attach_session("dev-0", fleet_a.detach_session("dev-0").monitor)
        fleet_b.attach_session("dev-1", restored)
        fleet_b.attach_session("dev-2", fleet_a.detach_session("dev-2").monitor)
        for r in range(half, rounds):
            batch = [
                (f"dev-{s}", steps[s][r])
                for s in range(3)
                if r < len(steps[s])
            ]
            for (sid, _), slot in zip(batch, fleet_b.feed_many(batch)):
                results[int(sid[-1])].extend(slot)
        for s in range(3):
            fleet_b.session(f"dev-{s}").monitor.finish()
            streamed = MonitorResult.concat(
                results[s],
                max_unscorable_fraction=model.config.max_unscorable_fraction,
            )
            isolated = stream_in_chunks(model, signals[s].samples, chunk).result()
            assert_results_equal(streamed, isolated)

    def test_idle_eviction_mid_group(self):
        """Evicting the stalest session from a live group neither
        corrupts the evicted summary nor perturbs the survivors."""
        detector = detector_for("bitcount")
        model = detector.model
        signals = [
            detector.source.capture(seed=TINY.monitor_seed(80 + s)).iq
            for s in range(3)
        ]
        chunk = 4096
        evicted = {}
        fleet = FleetScheduler(
            max_sessions=2,
            evict_idle=True,
            keep_history=True,
            on_evict=lambda sid, summary: evicted.setdefault(sid, summary),
        )
        fleet.add_session("dev-0", model)
        fleet.add_session("dev-1", model)
        prefix = list(signals[0].iter_chunks(chunk))[:3]
        for r in range(3):
            fleet.feed_many([
                ("dev-0", prefix[r]),
                ("dev-1", list(signals[1].iter_chunks(chunk))[r]),
            ])
        # dev-0 goes idle; feeding only dev-1 makes dev-0 the stalest,
        # so admitting dev-2 evicts it mid-group.
        fleet.feed_many([("dev-1", list(signals[1].iter_chunks(chunk))[3])])
        fleet.add_session("dev-2", model)
        assert list(evicted) == ["dev-0"]
        # The evicted summary equals a scalar run over the same prefix.
        scalar = StreamingMonitor(model)
        for part in prefix:
            scalar.feed(part)
        summary = scalar.finish()
        assert evicted["dev-0"].windows == summary.windows
        assert evicted["dev-0"].reports == summary.reports
        # Survivors and the newcomer continue unperturbed, pooled into
        # the same kernel groups.
        rest1 = list(signals[1].iter_chunks(chunk))[4:]
        rest2 = list(signals[2].iter_chunks(chunk))
        for r in range(max(len(rest1), len(rest2))):
            batch = []
            if r < len(rest1):
                batch.append(("dev-1", rest1[r]))
            if r < len(rest2):
                batch.append(("dev-2", rest2[r]))
            fleet.feed_many(batch)
        for sid in ("dev-1", "dev-2"):
            fleet.session(sid).monitor.finish()
        for sid, signal in (("dev-1", signals[1]), ("dev-2", signals[2])):
            assert_results_equal(
                fleet.session(sid).monitor.result(),
                stream_in_chunks(model, signal.samples, chunk).result(),
            )


def sts_rows(model, signal):
    """A signal's full STS peak matrix and window times."""
    cfg = model.config
    spectra = stft(signal, cfg.window_samples, cfg.overlap)
    peaks = peak_matrix(
        spectra, cfg.energy_fraction, cfg.max_peaks, cfg.peak_prominence,
        cfg.diffuse_features,
    )
    return peaks, spectra.times


class TestPooledPlanner:
    def test_pooled_plans_match_scalar_plans(self):
        """Steady, history-filling, and quality-flagged sessions share
        one pooled planning call; each session's walk plus steps equals
        the scalar oracle stepping the same windows.

        sha stays in its first region (group size 16) for the first ~120
        windows of these captures, so every session below plans against
        the same region profile with the same window count: one bucket.
        The gated model is a ``with_quality_gating`` copy, which shares
        the profile objects.
        """
        model = detector_for("sha").model
        gated = model.with_quality_gating(True)
        source = detector_for("sha").source
        k, prefix = 30, 40
        sessions = []  # (label, monitor, peaks, times, quality)
        for s, (label, mdl) in enumerate((
            ("steady", model),
            ("filling", model),
            ("clipped", gated),
            ("gapped", gated),
        )):
            signal = source.capture(seed=TINY.monitor_seed(90 + s)).iq
            peaks, times = sts_rows(mdl, signal)
            mon = Monitor(mdl)
            start = 0
            if label != "filling":
                mon.run_peaks(peaks[:prefix], times[:prefix])
                start = prefix
            quality = None
            if label == "clipped":
                quality = np.zeros(k, dtype=np.uint8)
                quality[[12, 13, 20]] = QF_CLIPPED
            elif label == "gapped":
                quality = np.zeros(k, dtype=np.uint8)
                quality[9] = QF_GAPPED
            sessions.append((
                label, mon, peaks[start:start + k], times[start:start + k],
                quality,
            ))
        regions = {mon.current_region for _, mon, _, _, _ in sessions}
        assert len(regions) == 1

        # Oracles take each session's state before anything is committed.
        oracles = []
        for _, mon, _, _, _ in sessions:
            oracle = ScalarMonitor(mon.model)
            oracle.restore_state(*mon.export_state())
            oracles.append(oracle)

        plans = plan_chunks_pooled(
            [(mon, peaks, quality) for _, mon, peaks, _, quality in sessions]
        )
        score_ks_jobs([job for plan in plans for job in plan.jobs])
        by_label = {label: plan for (label, *_), plan in zip(sessions, plans)}
        n = model.profile(regions.pop()).group_size
        # The filling session's first n-1 windows are never K-S tested.
        assert min(
            int(job.windows[0]) for job in by_label["filling"].jobs
        ) == n - 1
        assert by_label["steady"].static_stop == k
        assert by_label["clipped"].static_stop <= 12
        assert by_label["gapped"].static_stop <= 9

        for (label, mon, peaks, times, quality), plan, oracle in zip(
            sessions, plans, oracles
        ):
            fast = mon.score_chunk(peaks, times, quality, plan)
            expected = oracle.run_peaks(peaks, times, quality)
            assert_results_equal(fast, expected)
            fast_meta, _ = mon.export_state()
            oracle_meta, _ = oracle.export_state()
            assert fast_meta == oracle_meta, label


class TestVectorizedKernels:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ks_rows_fuzz_matches_scalar(self, data):
        """ks_d_int_rows == _ks_d_int on tie-heavy integer grids.

        Small integer grids maximize equal-value runs within and across
        the reference and monitored sides -- exactly where the row
        kernel's run-end shortcut could diverge from the scalar scan.
        """
        m = data.draw(st.integers(1, 32), label="m")
        c = data.draw(st.integers(1, 10), label="c")
        b = data.draw(st.integers(1, 6), label="rows")
        grid = data.draw(st.integers(2, 9), label="grid")
        vals = st.integers(-grid, grid)
        ref = np.sort(np.asarray(
            data.draw(st.lists(vals, min_size=m, max_size=m)), dtype=float
        ))
        rows = np.sort(np.asarray(
            data.draw(st.lists(
                st.lists(vals, min_size=c, max_size=c),
                min_size=b, max_size=b,
            )), dtype=float
        ), axis=1)
        expected = np.asarray(
            [_ks_d_int(ref, row, m, c) for row in rows], dtype=np.int64
        )
        np.testing.assert_array_equal(ks_d_int_rows(ref, rows), expected)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_peak_rows_fuzz_matches_scalar(self, data):
        """peak_rows == extract_peaks per window, NaN padding included."""
        n_windows = data.draw(st.integers(1, 5), label="windows")
        n_bins = data.draw(st.integers(4, 24), label="bins")
        max_peaks = data.draw(st.integers(1, 5), label="max_peaks")
        power = np.asarray(data.draw(st.lists(
            st.lists(
                st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
                min_size=n_bins, max_size=n_bins,
            ),
            min_size=n_windows, max_size=n_windows,
        )), dtype=float)
        freqs = np.arange(n_bins, dtype=float) * 13.5
        rows = peak_rows(power, freqs, 0.01, max_peaks, 2.0)
        for i in range(n_windows):
            freqs_i, _ = extract_peaks(power[i], freqs, 0.01, max_peaks, 2.0)
            expected = np.full(max_peaks, np.nan)
            expected[: len(freqs_i)] = freqs_i
            np.testing.assert_array_equal(rows[i], expected)
