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
- rounds in waves (DESIGN.md D33): many sessions rejecting, probing and
  changing region in one wave, with an early-exit session and sessions
  that raise mid-wave, against isolated streams and the oracle, the
  scorer calls per round against the sessions' own plan requests, and
  one session's planner and probe-builder calls alike on the batch,
  stream and fleet paths (DESIGN.md D38),
- complex64 and complex128 sessions of one model in one round, which
  pool in separate groups,
- hypothesis fuzz of the vectorized exact-integer K-S kernels (rank
  keys of unsorted, NaN-padded windows, and sorted rows) and the
  vectorized peak extractor against their scalar counterparts
  (tie-heavy integer grids, since K-S run-end handling is where
  vectorization could plausibly diverge; for peaks also all-zero rows
  and non-finite entries), and of the peak extractor's row median
  against ``np.median``.
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
    _checked_windows,
    walk_chunks,
)
from repro.core.peaks import (
    _row_median,
    extract_peaks,
    peak_matrix,
    peak_rows,
)
from repro.core.stats.ks import (
    _ks_d_int,
    ks_d_int_keys,
    ks_d_int_rows,
    rank_keys,
)
from repro.core.stft import QF_CLIPPED, QF_GAPPED, stft
from repro.programs.mibench import BENCHMARKS
from repro.stream import FleetScheduler, StreamingMonitor
from repro.stream.batchkernel import FleetKernel

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

    def test_narrow_dtype_sessions_pool_apart(self, monkeypatch):
        """complex64 and complex128 sessions of one model, chunked on and
        off the hop, in one round: the groups split by dtype, and each
        session equals its isolated stream and the batch monitor on the
        same samples."""
        import repro.stream.batchkernel as batchkernel

        detector = detector_for("bitcount")
        model = detector.model
        iq = detector.source.capture(seed=TINY.monitor_seed(60)).iq
        cases = [
            (np.complex64, 2048), (np.complex64, 997),
            (np.complex128, 2048), (np.complex128, 997),
        ]
        signals = [iq.astype(dtype) for dtype, _ in cases]
        chunkings = [chunk for _, chunk in cases]
        group_dtypes = []
        real_transform = batchkernel._transform_frames

        def recording(frames, *args):
            group_dtypes.append(frames.dtype)
            return real_transform(frames, *args)

        monkeypatch.setattr(batchkernel, "_transform_frames", recording)
        fleet = FleetScheduler(max_sessions=8, keep_history=True)
        for s in range(len(cases)):
            fleet.add_session(f"dev-{s}", model)
        drive_fleet(fleet, signals, chunkings)
        assert set(group_dtypes) == {
            np.dtype(np.complex64), np.dtype(np.complex128)
        }
        for s, (signal, chunk) in enumerate(zip(signals, chunkings)):
            result = fleet.session(f"dev-{s}").monitor.result()
            assert_results_equal(
                result,
                stream_in_chunks(model, signal.samples, chunk).result(),
            )
            assert_results_equal(result, Monitor(model).run_signal(signal))


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
    def test_pooled_plans_match_scalar_plans(self, monkeypatch):
        """Steady, history-filling, and quality-flagged sessions, walked
        together, share one pooled planning call; each session's walk
        plus steps equals the scalar oracle stepping the same windows.

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

        import repro.core.monitor as core_monitor

        waves = []
        _recording(monkeypatch, core_monitor, "plan_chunks_pooled", waves)
        results = walk_chunks([
            mon._walk(peaks, times, quality)
            for _, mon, peaks, times, quality in sessions
        ])
        plans = waves[0]  # the entry wave: every session, in order
        by_label = {label: plan for (label, *_), plan in zip(sessions, plans)}
        n = model.profile(regions.pop()).group_size
        # The filling session's first n-1 windows are never K-S tested:
        # their cells hold no count, D or verdict, and window n-1 is.
        filling = by_label["filling"]
        tested = slice(0, len(filling.cols))
        scored = filling.count[tested] >= model.config.min_mon_values
        assert not scored[:, : n - 1].any()
        assert not filling.count[tested, : n - 1].any()
        assert not filling.d[tested, : n - 1].any()
        assert not filling.rejected[tested, : n - 1].any()
        assert scored[:, n - 1].any()
        assert by_label["steady"].static_stop == k
        assert by_label["clipped"].static_stop <= 12
        assert by_label["gapped"].static_stop <= 9

        for (label, mon, peaks, times, quality), fast, oracle in zip(
            sessions, results, oracles
        ):
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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rank_key_numerators_match_scalar(self, data):
        """ks_d_int_keys on each window's sorted rank keys == _ks_d_int on
        its real values, and ks_d_int_rows with ragged counts agrees.

        Windows arrive unsorted with their NaN padding anywhere in them,
        as the monitored streams hold it, and with 1..n real values;
        their values reach past the reference's range on both sides, and
        small integer grids give runs of equal values and of distinct
        values that share a rank key.
        """
        m = data.draw(st.integers(1, 60), label="m")
        n = data.draw(st.integers(1, 12), label="n")
        b = data.draw(st.integers(1, 6), label="windows")
        grid = data.draw(st.integers(1, 9), label="grid")
        ref = np.sort(np.asarray(data.draw(st.lists(
            st.integers(-grid, grid), min_size=m, max_size=m,
        )), dtype=float))
        windows = np.asarray(data.draw(st.lists(
            st.lists(st.integers(-grid - 3, grid + 3), min_size=n,
                     max_size=n),
            min_size=b, max_size=b,
        )), dtype=float)
        counts = np.empty(b, dtype=np.int64)
        for w in range(b):
            counts[w] = data.draw(st.integers(1, n), label="count")
            order = data.draw(st.permutations(range(n)), label="padding")
            windows[w, list(order[counts[w]:])] = np.nan
        expected = np.asarray([
            _ks_d_int(ref, np.sort(row[~np.isnan(row)]), m, c)
            for row, c in zip(windows, counts)
        ], dtype=np.int64)
        keys = np.sort(rank_keys(ref, windows), axis=1)
        np.testing.assert_array_equal(ks_d_int_keys(keys, counts, m),
                                      expected)
        np.testing.assert_array_equal(
            ks_d_int_rows(ref, np.sort(windows, axis=1), counts=counts),
            expected,
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_peak_rows_fuzz_matches_scalar(self, data):
        """peak_rows == extract_peaks per window, NaN padding included.

        Small integer grids give ties and plateaus, at the edge bins too;
        all-zero rows have no energy; NaN and +/-inf entries are what a
        non-finite sample makes of a spectrum when quality gating is off.
        Bin counts are odd and even, since the row median's middle differs.
        """
        n_windows = data.draw(st.integers(1, 5), label="windows")
        n_bins = data.draw(st.integers(1, 24), label="bins")
        max_peaks = data.draw(st.integers(1, 5), label="max_peaks")
        prominence = data.draw(st.sampled_from([0.0, 2.0]), label="prom")
        power = np.asarray(data.draw(st.lists(
            _spectrum_rows(n_bins), min_size=n_windows, max_size=n_windows,
        )), dtype=float)
        freqs = np.arange(n_bins, dtype=float) * 13.5
        with np.errstate(invalid="ignore", over="ignore"):
            rows = peak_rows(power, freqs, 0.01, max_peaks, prominence)
            for i in range(n_windows):
                freqs_i, _ = extract_peaks(
                    power[i], freqs, 0.01, max_peaks, prominence
                )
                expected = np.full(max_peaks, np.nan)
                expected[: len(freqs_i)] = freqs_i
                np.testing.assert_array_equal(rows[i], expected)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_row_median_matches_np_median(self, data):
        """The partition row median equals ``np.median(axis=1)`` bit for
        bit, NaN rows included, for odd and even bin counts."""
        n_bins = data.draw(st.integers(1, 40), label="bins")
        power = np.asarray(data.draw(st.lists(
            _spectrum_rows(n_bins), min_size=1, max_size=6,
        )), dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.median(power, axis=1)
            got = _row_median(power)
        assert np.array_equal(got, expected, equal_nan=True)
        finite = ~np.isnan(expected)
        assert got[finite].tobytes() == expected[finite].tobytes()


def _spectrum_rows(n_bins):
    """Power rows for the peak fuzzers: small integer grids (ties and
    plateaus), spread-out floats, all-zero rows, and rows with NaN and
    +/-inf entries."""
    grid = st.integers(0, 3).map(float)
    spread = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    special = st.sampled_from([np.nan, np.inf, -np.inf])

    def row(values):
        return st.lists(values, min_size=n_bins, max_size=n_bins)

    return st.one_of(
        row(grid),
        row(spread),
        st.just([0.0] * n_bins),
        row(st.one_of(grid, grid, grid, special)),
        row(st.one_of(spread, spread, spread, special)),
    )


class _RaisingMonitor(Monitor):
    """Raises at its first region transition: mid-wave, while the fleet
    kernel resumes a wave's walks."""

    def _transition_to(self, region):
        raise RuntimeError("transition refused")


class _ProbeRaisingMonitor(Monitor):
    """Raises whenever it builds candidate-probe jobs; listed first in a
    round, it builds the wave's pooled first probe batch."""

    def _probe_jobs(self, bucket, slots, windows):
        raise RuntimeError("probe jobs refused")


def _recording(monkeypatch, owner, name, log):
    """Wrap ``owner.name`` so each call appends its result to ``log``."""
    real = getattr(owner, name)

    def wrapper(*args):
        out = real(*args)
        log.append(out)
        return out

    monkeypatch.setattr(owner, name, wrapper)


class TestWaves:
    """Fleet rounds in waves (DESIGN.md D33): a round in which many
    sessions on one model reject, probe and change region in the same
    wave.

    bitcount's TINY captures, fed in 16384-sample chunks (about 64
    windows), change region once or twice in most chunks, and several
    report on the way, so every round needs more than one wave.
    """

    CHUNK = 16384

    def _captures(self, count):
        detector = detector_for("bitcount")
        return detector.model, [
            detector.source.capture(seed=TINY.monitor_seed(200 + s)).iq
            for s in range(count)
        ]

    def _chunks(self, signal):
        samples = signal.samples
        return [
            samples[start:start + self.CHUNK]
            for start in range(0, len(samples), self.CHUNK)
        ]

    def test_round_matches_isolated_streams_and_oracle(self, monkeypatch):
        import repro.core.monitor as core_monitor

        model, signals = self._captures(8)
        plans, probing_per_wave = [], []
        _recording(monkeypatch, core_monitor, "plan_chunks_pooled", plans)
        real_first_probe_jobs = core_monitor.first_probe_jobs

        def first_probe_jobs(entries):
            probing_per_wave.append(sum(
                len(_checked_windows(plan)[0]) > 0 for _, plan in entries
            ))
            return real_first_probe_jobs(entries)

        monkeypatch.setattr(
            core_monitor, "first_probe_jobs", first_probe_jobs
        )
        flags = [False] * 8
        flags[2] = True  # session 2 stops at its first report
        sessions = [
            StreamingMonitor(
                model, early_exit=early, keep_history=True, t0=signal.t0
            )
            for early, signal in zip(flags, signals)
        ]
        raising = 5
        sessions[raising]._monitor = _RaisingMonitor(model)
        chunks = [self._chunks(signal) for signal in signals]
        kernel = FleetKernel()
        raised_in = None
        for r in range(max(len(c) for c in chunks)):
            live = [
                s for s in range(8)
                if r < len(chunks[s]) and not (s == raising and raised_in)
            ]
            plans.clear()
            slots = kernel.dispatch(
                [(sessions[s], chunks[s][r]) for s in live]
            )
            for s, slot in zip(live, slots):
                if s == raising and isinstance(slot, Exception):
                    assert isinstance(slot, RuntimeError)
                    assert len(plans) > 1  # other walks went on after it
                    raised_in = r
                else:
                    assert not isinstance(slot, Exception), slot
        assert raised_in is not None
        assert max(probing_per_wave) >= 4
        assert sessions[2].stopped

        for s, signal in enumerate(signals):
            if s == raising:
                continue
            sessions[s].finish()
            alone = StreamingMonitor(
                model, early_exit=flags[s], keep_history=True, t0=signal.t0
            )
            for chunk in chunks[s]:
                alone.feed(chunk)
            alone.finish()
            assert_results_equal(sessions[s].result(), alone.result())
            peaks, times = sts_rows(model, signal)
            expected = ScalarMonitor(model).run_peaks(peaks, times)
            if flags[s]:
                first = next(
                    i for i, report in zip(
                        expected.report_indices, expected.reports
                    )
                    if report.kind == "anomaly"
                )
                expected = ScalarMonitor(model).run_peaks(
                    peaks[:first + 1], times[:first + 1]
                )
            assert_results_equal(sessions[s].result(), expected)

    def test_scorer_calls_do_not_grow_with_probing_sessions(
        self, monkeypatch
    ):
        """Per dispatch, the kernel makes at most two scorer calls per
        wave, and a wave count no session alone would not need: eight
        probing sessions cost the scorer calls of the busiest one. Only
        the waves' scorer calls count, not the later probe batches a
        walk scores itself."""
        import repro.core.monitor as core_monitor

        model, signals = self._captures(8)
        chunks = [self._chunks(signal) for signal in signals]
        plans, scores, in_wave = [], [], []
        _recording(monkeypatch, core_monitor, "plan_chunks_pooled", plans)
        real_wave = core_monitor.plan_wave
        real_score = core_monitor.score_ks_jobs

        def plan_wave(entries):
            in_wave.append(True)
            try:
                return real_wave(entries)
            finally:
                in_wave.pop()

        def score_ks_jobs(jobs):
            if in_wave:
                scores.append(len(jobs))
            return real_score(jobs)

        monkeypatch.setattr(core_monitor, "plan_wave", plan_wave)
        monkeypatch.setattr(core_monitor, "score_ks_jobs", score_ks_jobs)

        def round_calls(items):
            plans.clear()
            scores.clear()
            FleetKernel().dispatch(items)
            return len(plans), len(scores)

        fleet = [StreamingMonitor(model) for _ in signals]
        solo = [StreamingMonitor(model) for _ in signals]
        copies = [StreamingMonitor(model) for _ in signals]
        for r in range(min(len(c) for c in chunks)):
            waves, scored = round_calls(
                [(fleet[s], chunks[s][r]) for s in range(8)]
            )
            alone = [round_calls([(solo[s], chunks[s][r])]) for s in range(8)]
            assert waves == max(w for w, _ in alone)
            assert scored <= 2 * waves
            # Eight sessions walking the same capture reject, probe and
            # change region together: exactly one session's calls.
            assert round_calls(
                [(copy, chunks[0][r]) for copy in copies]
            ) == alone[0]

    def test_one_session_plans_alike_on_every_path(self, monkeypatch):
        """One session's chunk makes the same planner and first-probe
        builder calls whether it is run by the batch monitor, fed to a
        stream or dispatched by the fleet kernel: every path drives its
        walk through the one walk driver, and every plan's first probe
        batch is built by its wave."""
        import repro.core.monitor as core_monitor

        model, (signal,) = self._captures(1)
        plans, probes = [], []
        _recording(monkeypatch, core_monitor, "plan_chunks_pooled", plans)
        _recording(monkeypatch, core_monitor, "first_probe_jobs", probes)
        probed = False

        def calls(run):
            nonlocal probed
            plans.clear()
            probes.clear()
            out = run()
            probed = probed or any(probes)
            return (len(plans), len(probes)), out

        peaks, times = sts_rows(model, signal)
        batch = Monitor(model)
        stream = StreamingMonitor(model, t0=signal.t0)
        fleet = StreamingMonitor(model, t0=signal.t0)
        kernel = FleetKernel()
        done = 0
        for chunk in self._chunks(signal):
            fed_calls, fed = calls(lambda: stream.feed(chunk))
            dispatch_calls, _ = calls(
                lambda: kernel.dispatch([(fleet, chunk)])
            )
            k = sum(len(result.tracked) for result in fed)
            rows = slice(done, done + k)
            batch_calls, _ = calls(
                lambda: batch.run_peaks(peaks[rows], times[rows])
            )
            done += k
            assert fed_calls[0] > 0
            assert fed_calls == dispatch_calls == batch_calls
        assert probed

    def test_probe_builder_failure_stays_in_its_slot(self):
        """A session whose probe jobs raise fails the wave's pooled
        first-probe call; rebuilt one session at a time, the exception
        lands in its slot and the others walk on unchanged."""
        model, signals = self._captures(4)
        sessions = [
            StreamingMonitor(model, keep_history=True, t0=signal.t0)
            for signal in signals
        ]
        sessions[0]._monitor = _ProbeRaisingMonitor(model)
        chunks = [self._chunks(signal) for signal in signals]
        kernel = FleetKernel()
        failed = False
        for r in range(max(len(c) for c in chunks)):
            live = [
                s for s in range(4)
                if r < len(chunks[s]) and not (s == 0 and failed)
            ]
            slots = kernel.dispatch(
                [(sessions[s], chunks[s][r]) for s in live]
            )
            for s, slot in zip(live, slots):
                if s == 0 and isinstance(slot, Exception):
                    assert str(slot) == "probe jobs refused"
                    failed = True
                else:
                    assert not isinstance(slot, Exception), slot
        assert failed
        for s in range(1, 4):
            sessions[s].finish()
            alone = StreamingMonitor(model, keep_history=True, t0=signals[s].t0)
            for chunk in chunks[s]:
                alone.feed(chunk)
            alone.finish()
            assert_results_equal(sessions[s].result(), alone.result())
