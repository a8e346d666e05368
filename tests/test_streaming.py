"""Streaming engine: stream state, fleet multiplexing, causal quality flags.

The load-bearing guarantee (DESIGN.md D17) -- for *any* chunking of the
same signal, the streaming monitor's reassembled result equals the batch
monitor's exactly -- is checked on every execution path by the
equivalence suite (``tests/test_equivalence.py``). The sweeps here add
more chunkings (997, 4096 and 4099 on every program, sub-window to
whole-signal sizes on a second bitcount capture) and a 32-session fleet,
all against the scalar oracle. The rest of the module covers what
surrounds it: early exit, idempotent finish, O(1) resident state,
summary counts, report-index re-basing, fleet admission and push mode,
the streaming STFT, and the causal quality flags.
"""

import functools

import numpy as np
import pytest
from conftest import shared_tiny_detector as detector_for
from conftest import stream_in_chunks, tiny_scale

from oracle import ScalarMonitor, assert_results_equal, stft_power
from repro.core.monitor import Monitor, MonitorResult
from repro.core.stft import (
    QF_CLIPPED,
    QF_DEAD,
    QF_ENERGY_OUTLIER,
    QF_GAPPED,
    QF_NONFINITE,
    StreamingQuality,
    StreamingStft,
    energy_reference,
    require_finite,
    stft,
)
from repro.em.faults import (
    FaultInjector,
    NonFiniteFault,
    SampleDropFault,
    SaturationFault,
)
from repro.em.scenario import EmScenario
from repro.errors import ConfigurationError, MonitoringError, SignalError
from repro.programs.mibench import BENCHMARKS, INJECTION_LOOPS
from repro.programs.workloads import injection_mix
from repro.stream import FleetScheduler, StreamingMonitor
from repro.types import Signal

TINY = tiny_scale()


@functools.lru_cache(maxsize=None)
def capture(name, k):
    """The ``k``-th monitoring capture of one program's detector."""
    return detector_for(name).source.capture(seed=TINY.monitor_seed(k))


@functools.lru_cache(maxsize=None)
def oracle_result(name, k):
    """The scalar oracle's result on :func:`capture` ``(name, k)``."""
    model = detector_for(name).model
    return ScalarMonitor(model).run_signal(capture(name, k).iq)


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("chunk_samples", [997, 4096, 4099])
    def test_every_program_every_chunking(self, name, chunk_samples):
        monitor = stream_in_chunks(
            detector_for(name).model, capture(name, 0).iq.samples,
            chunk_samples,
        )
        assert_results_equal(monitor.result(), oracle_result(name, 0))

    @pytest.mark.parametrize(
        "chunk_samples",
        # Sub-window primes, the hop, window +/- 1, and the whole signal.
        [97, 256, 509, 511, 513, 1021, 2048, 10**9],
    )
    def test_chunk_size_sweep_stresses_overlap_buffer(self, chunk_samples):
        monitor = stream_in_chunks(
            detector_for("bitcount").model, capture("bitcount", 1).iq.samples,
            chunk_samples,
        )
        assert_results_equal(monitor.result(), oracle_result("bitcount", 1))


class TestStreamingState:
    def test_result_requires_keep_history(self):
        detector = detector_for("bitcount")
        monitor = StreamingMonitor(detector.model)
        with pytest.raises(MonitoringError):
            monitor.result()

    def test_chunk_sample_rate_is_checked(self):
        detector = detector_for("dijkstra")
        monitor = StreamingMonitor(detector.model)
        monitor.feed(Signal(np.zeros(8), detector.model.sample_rate))
        with pytest.raises(SignalError):
            monitor.feed(Signal(np.zeros(8), detector.model.sample_rate * 2))

    def test_early_exit_stops_at_first_anomaly(self):
        detector = detector_for("bitcount")
        detector.source.simulator.set_loop_injection(
            INJECTION_LOOPS["bitcount"], injection_mix(4, 4), 1.0
        )
        try:
            signal = detector.source.capture(seed=TINY.injected_seed(1)).iq
        finally:
            detector.source.simulator.clear_injections()
        monitor = StreamingMonitor(detector.model, early_exit=True)
        fed_after_stop = 0
        for chunk in signal.iter_chunks(4096):
            out = monitor.feed(chunk)
            if monitor.stopped:
                fed_after_stop += 1
                assert out == [] or out[-1].reports
        assert monitor.stopped
        assert fed_after_stop > 0
        summary = monitor.finish()
        assert summary.stopped_early
        assert summary.detected
        # The stream truncates right after the reporting window.
        assert summary.reports[-1].kind == "anomaly"

    def test_finish_is_idempotent(self):
        detector = detector_for("bitcount")
        monitor = StreamingMonitor(detector.model, session_id="dev-1")
        monitor.feed(np.zeros(2048, dtype=complex))
        first = monitor.finish()
        assert monitor.finish() is first
        assert first.session_id == "dev-1"
        assert monitor.feed(np.zeros(2048, dtype=complex)) == []

    def test_resident_state_is_flat(self):
        """Eight captures tiled into one long stream: no per-chunk growth."""
        detector = detector_for("bitcount")
        samples = np.concatenate([
            detector.source.capture(seed=TINY.monitor_seed(4 + k)).iq.samples
            for k in range(8)
        ])
        monitor = StreamingMonitor(detector.model)
        sizes = []
        for start in range(0, len(samples), 4096):
            monitor.feed(samples[start : start + 4096])
            sizes.append(monitor.resident_bytes())
        monitor.finish()
        warm = sizes[len(sizes) // 2 :]
        assert max(warm) <= 2 * min(warm)
        assert max(sizes) <= 2 * np.median(sizes)

    def test_summary_counts(self):
        detector = detector_for("gsm")
        signal = detector.source.capture(seed=TINY.monitor_seed(5)).iq
        monitor = StreamingMonitor(detector.model)
        n_chunks = 0
        for chunk in signal.iter_chunks(3001):
            monitor.feed(chunk)
            n_chunks += 1
        summary = monitor.finish()
        assert summary.chunks == n_chunks
        assert summary.samples == len(signal.samples)
        batch = Monitor(detector.model).run_signal(signal)
        assert summary.windows == len(batch.times)


class TestMonitorResultConcat:
    def test_empty(self):
        merged = MonitorResult.concat([])
        assert len(merged.times) == 0
        assert merged.reports == []
        assert merged.status == "ok"

    def test_report_indices_rebased(self):
        detector = detector_for("bitcount")
        detector.source.simulator.set_loop_injection(
            INJECTION_LOOPS["bitcount"], injection_mix(4, 4), 1.0
        )
        try:
            signal = detector.source.capture(seed=TINY.injected_seed(2)).iq
        finally:
            detector.source.simulator.clear_injections()
        batch = Monitor(detector.model).run_signal(signal)
        assert batch.report_indices
        monitor = StreamingMonitor(detector.model, keep_history=True)
        chunk_results = []
        for chunk in signal.iter_chunks(997):
            chunk_results.extend(monitor.feed(chunk))
        # Per-chunk indices are chunk-local ...
        assert all(
            i < len(r.times) for r in chunk_results for i in r.report_indices
        )
        # ... and concat re-bases them to the global window axis.
        assert monitor.result().report_indices == batch.report_indices


class TestFleet:
    def test_32_sessions_identical_to_isolated(self):
        detector = detector_for("bitcount")
        captures = [capture("bitcount", 100 + s) for s in range(8)]
        isolated = [
            oracle_result("bitcount", 100 + s).reports for s in range(8)
        ]
        fleet = FleetScheduler(max_sessions=32)
        # 32 concurrent sessions over 8 distinct captures: session s
        # replays capture s % 8, so correctness shows as groups of equal
        # outcomes that match the oracle's runs.
        for s in range(32):
            fleet.add_session(
                f"dev-{s:03d}", detector.model,
                source=captures[s % 8].iter_chunks(2048 + 64 * s),
            )
        assert len(fleet) == 32
        summaries = fleet.run()
        assert len(summaries) == 32
        assert len(fleet) == 0
        for s in range(32):
            assert summaries[f"dev-{s:03d}"].reports == isolated[s % 8]

    def test_capacity_and_duplicate_rejected(self):
        detector = detector_for("bitcount")
        fleet = FleetScheduler(max_sessions=1)
        fleet.add_session("a", detector.model)
        with pytest.raises(ConfigurationError):
            fleet.add_session("a", detector.model)
        with pytest.raises(ConfigurationError):
            fleet.add_session("b", detector.model)
        fleet.close_session("a")
        fleet.add_session("b", detector.model)

    def test_push_mode_feed_and_callback(self):
        detector = detector_for("dijkstra")
        signal = detector.source.capture(seed=TINY.monitor_seed(6)).iq
        seen = []
        fleet = FleetScheduler(
            on_result=lambda sid, result: seen.append((sid, len(result.times)))
        )
        fleet.add_session("push-1", detector.model)
        for chunk in signal.iter_chunks(4096):
            fleet.feed("push-1", chunk)
        summary = fleet.close_session("push-1")
        assert summary.windows == sum(n for _, n in seen)
        assert {sid for sid, _ in seen} == {"push-1"}
        with pytest.raises(MonitoringError):
            fleet.feed("push-1", signal.samples[:100])

    def test_push_mode_sessions_leave_nothing_behind(self):
        # A long-lived push-mode fleet (a server's) opens, closes and
        # evicts sessions without end: no summary and no metric named
        # after a session may outlive it.
        from repro import obs

        detector = detector_for("bitcount")
        fleet = FleetScheduler(max_sessions=8, evict_idle=True)
        obs.enable()
        obs.reset()
        try:
            for s in range(300):
                fleet.add_session(f"push-{s:03d}", detector.model)
                if s % 2:
                    fleet.close_session(f"push-{s:03d}")
            for session_id in fleet.session_ids:
                fleet.close_session(session_id)
            names = [
                name for kind in obs.snapshot().values() for name in kind
            ]
        finally:
            obs.disable()
            obs.reset()
        assert fleet.summaries == {}
        assert "stream.fleet/sessions_closed" in names
        assert not [name for name in names if "push-" in name]

    def test_early_exit_frees_slots_during_round_robin(self):
        detector = detector_for("bitcount")
        detector.source.simulator.set_loop_injection(
            INJECTION_LOOPS["bitcount"], injection_mix(4, 4), 1.0
        )
        try:
            bad = detector.source.capture(seed=TINY.injected_seed(3))
        finally:
            detector.source.simulator.clear_injections()
        n_chunks = len(list(bad.iter_chunks(4096)))
        fleet = FleetScheduler(max_sessions=4, early_exit=True)
        fleet.add_session("bad", detector.model,
                          source=bad.iter_chunks(4096))
        summaries = fleet.run()
        assert len(fleet) == 0  # the slot was freed at the early exit
        assert summaries["bad"].stopped_early
        assert summaries["bad"].detected
        # Early exit abandoned the rest of the source.
        assert summaries["bad"].chunks < n_chunks


class TestStreamingStft:
    def test_matches_batch_stft(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
        signal = Signal(samples, 1e6)
        batch = stft(signal, window_samples=512, overlap=0.5)
        streaming = StreamingStft(1e6, window_samples=512, overlap=0.5)
        chunks = []
        for start in range(0, len(samples), 613):
            chunks.append(streaming.feed(samples[start : start + 613]))
        power = np.concatenate([c.power for c in chunks if len(c)])
        times = np.concatenate([c.times for c in chunks if len(c)])
        np.testing.assert_array_equal(power, batch.power)
        np.testing.assert_array_equal(times, batch.times)
        assert streaming.samples_seen == len(samples)
        assert streaming.pending_samples < 512

    @pytest.mark.parametrize("chunk", [1024, 613])
    @pytest.mark.parametrize("dtype", [np.complex64, np.float32])
    def test_narrow_dtypes_match_batch(self, dtype, chunk):
        """Narrow captures detrend in their own dtype and are promoted
        once, at the taper: batch and streaming spectra equal the
        one-temporary-per-step reference bit for bit, whether the chunks
        align with the hop (1024) or carry a tail (613)."""
        rng = np.random.default_rng(2)
        samples = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
        if dtype is np.float32:
            samples = samples.real
        samples = samples.astype(dtype)
        batch = stft(Signal(samples, 1e6), window_samples=512)
        streaming = StreamingStft(1e6, window_samples=512)
        power = np.concatenate([
            streaming.feed(samples[start : start + chunk]).power
            for start in range(0, len(samples), chunk)
        ])
        expected = stft_power(samples, 512)
        assert batch.power.dtype == expected.dtype == np.float64
        np.testing.assert_array_equal(batch.power, expected)
        np.testing.assert_array_equal(power, expected)

    def test_real_stream_rejects_complex_chunk(self):
        streaming = StreamingStft(1e6, window_samples=64)
        streaming.feed(np.zeros(32))
        with pytest.raises(SignalError):
            streaming.feed(np.zeros(32, dtype=complex))

    def test_t0_offsets_times(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=4096)
        base = StreamingStft(1e6, window_samples=256).feed(samples)
        offset = StreamingStft(1e6, window_samples=256, t0=1.5).feed(samples)
        np.testing.assert_allclose(offset.times - base.times, 1.5)


class TestCallerArraysUnchanged:
    """The spectral transform overwrites its frames (DESIGN.md D34); the
    frames are gathered copies, so no path writes into the caller's
    chunks or a signal's samples, including hop-aligned chunks, which
    the stream stages without a copy."""

    @pytest.mark.parametrize("chunk_samples", [2048, 997])
    def test_feed_feed_many_and_stft(self, chunk_samples):
        model = detector_for("bitcount").model
        signal = capture("bitcount", 0).iq
        kept = signal.samples.copy()
        stft(signal, model.config.window_samples)
        chunks = [
            signal.samples[start : start + chunk_samples].copy()
            for start in range(0, len(signal), chunk_samples)
        ]
        originals = [c.copy() for c in chunks]

        spectra = StreamingStft(
            signal.sample_rate, model.config.window_samples
        )
        monitor = StreamingMonitor(model)
        fleet = FleetScheduler(max_sessions=2)
        fleet.add_session("a", model)
        fleet.add_session("b", model)
        for c in chunks:
            spectra.feed(c)
            monitor.feed(c)
            fleet.feed_many([("a", c), ("b", c)])

        np.testing.assert_array_equal(signal.samples, kept)
        for c, original in zip(chunks, originals):
            np.testing.assert_array_equal(c, original)


def fitted_reference(signal, window):
    """The energy reference a gate fits on ``signal``'s unflagged windows."""
    flags, log_energy = StreamingQuality(window, 0.5).measure(signal.samples)
    return energy_reference(log_energy[flags == 0])


def gate_flags(signal, window, reference, chunk_samples=None):
    """The gate's flags over ``signal``: fed whole, as batch runs feed it,
    or in ``chunk_samples``-sample chunks."""
    gate = StreamingQuality(window, 0.5, energy_reference=reference)
    if chunk_samples is None:
        return gate.feed(signal.samples)
    return np.concatenate([
        gate.feed(chunk.samples) for chunk in signal.iter_chunks(chunk_samples)
    ])


class TestStreamingQuality:
    def _faulted_signal(self):
        detector = detector_for("bitcount")
        scenario = EmScenario.build(
            BENCHMARKS["bitcount"](),
            core=detector.source.simulator.core,
            faults=FaultInjector(
                faults=(
                    SampleDropFault(rate_per_s=400.0),
                    SaturationFault(rate_per_s=400.0),
                )
            ),
        )
        return scenario.capture(seed=7).iq

    def test_gap_and_dead_flags_are_exact(self):
        """Every flag but the causal rail matches the gate fed whole."""
        signal = self._faulted_signal()
        reference = detector_for("bitcount").model.energy_reference
        batch = gate_flags(signal, 512, reference)
        streamed = gate_flags(signal, 512, reference, 733)
        assert len(streamed) == len(batch)
        assert np.any(batch & (QF_GAPPED | QF_DEAD))
        mask = 0xFF & ~QF_CLIPPED
        np.testing.assert_array_equal(streamed & mask, batch & mask)

    def test_causal_flags_agree_on_clean_windows(self):
        """The running rail converges to the capture's."""
        signal = self._faulted_signal()
        reference = detector_for("bitcount").model.energy_reference
        batch = gate_flags(signal, 512, reference)
        streamed = gate_flags(signal, 512, reference, 4096)
        agreement = np.mean((streamed != 0) == (batch != 0))
        assert agreement > 0.95


class TestNonFiniteQuality:
    """NaN samples are flagged, and do not blind the other flags."""

    WINDOW, HOP, N_WINDOWS = 512, 256, 1400
    BURSTS = (300, 700, 1200)
    NAN_WINDOW = 50

    def _captures(self, bad=np.nan):
        """A clean impulse-burst capture and a copy with a ``bad`` run."""
        rng = np.random.default_rng(0)
        n = (self.N_WINDOWS - 1) * self.HOP + self.WINDOW
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        for window in self.BURSTS:
            start = window * self.HOP + 100
            x[start : start + 200] += 30 * (
                rng.standard_normal(200) + 1j * rng.standard_normal(200)
            )
        y = x.copy()
        nan_start = self.NAN_WINDOW * self.HOP + 10
        y[nan_start : nan_start + 100] = bad
        nan_windows = [
            i for i in range(self.N_WINDOWS)
            if i * self.HOP < nan_start + 100
            and nan_start < i * self.HOP + self.WINDOW
        ]
        return Signal(x, 1e6), Signal(y, 1e6), nan_windows

    def _flags(self, signal, chunk_samples):
        clean, _, _ = self._captures()
        reference = fitted_reference(clean, self.WINDOW)
        return gate_flags(signal, self.WINDOW, reference, chunk_samples)

    @pytest.mark.parametrize("chunk_samples", [None, 97, 733, 4096])
    def test_nan_windows_flagged_and_outliers_kept(self, chunk_samples):
        clean, dirty, nan_windows = self._captures()
        flags = self._flags(dirty, chunk_samples)
        reference = self._flags(clean, chunk_samples)
        assert len(flags) == self.N_WINDOWS
        np.testing.assert_array_equal(
            np.flatnonzero(flags & QF_NONFINITE), nan_windows
        )
        outliers = np.flatnonzero(reference & QF_ENERGY_OUTLIER)
        assert len(outliers) == 3 * len(self.BURSTS)
        rest = np.setdiff1d(np.arange(self.N_WINDOWS), nan_windows)
        np.testing.assert_array_equal(flags[rest], reference[rest])

    def test_inf_samples_flagged_like_nan(self):
        _, nan_dirty, _ = self._captures()
        _, inf_dirty, _ = self._captures(bad=np.inf)
        for chunk_samples in (None, 733):
            np.testing.assert_array_equal(
                self._flags(inf_dirty, chunk_samples),
                self._flags(nan_dirty, chunk_samples),
            )

    def test_gated_run_reports_nothing_inside_the_nan_span(self):
        detector = detector_for("bitcount")
        model = detector.model.with_quality_gating(True)
        signal = detector.source.capture(seed=TINY.monitor_seed(0)).iq
        d = signal.duration
        fault = NonFiniteFault(schedule=((0.3 * d, 0.45 * d),))
        dirty, (span,) = FaultInjector(faults=(fault,)).inject(signal)
        batch = Monitor(model).run_signal(dirty)
        assert batch.unscorable_fraction > 0
        half = model.config.window_samples / model.sample_rate / 2
        inside = [
            r.time for r in batch.reports
            if span.t_start - half < r.time < span.t_end + half
        ]
        assert inside == []


def nan_span_capture():
    """Bitcount's first monitoring capture with a NaN span over 0.30-0.45
    of its duration."""
    signal = capture("bitcount", 0).iq
    d = signal.duration
    fault = NonFiniteFault(schedule=((0.3 * d, 0.45 * d),))
    return FaultInjector(faults=(fault,)).inject(signal)[0]


class TestNonFiniteRefusal:
    """Without gating nothing flags a non-finite window, so every path
    refuses the samples where they enter, before any state changes."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128,
                                       np.complex64])
    def test_require_finite_refuses_exactly_the_non_finite(self, dtype):
        # require_finite tests the chunk's sum first: every non-finite
        # sample must still be refused -- in either part of a complex
        # sample, and when an inf and a -inf cancel to NaN -- and finite
        # samples whose sum overflows must still pass.
        rng = np.random.default_rng(4)
        clean = rng.normal(size=64).astype(dtype)
        if np.iscomplexobj(clean):
            clean = clean + 1j * rng.normal(size=64).astype(dtype)
        require_finite(clean)
        require_finite(clean[:0])
        parts = ("real", "imag") if np.iscomplexobj(clean) else ("real",)
        bad_values = ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf])
        for part in parts:
            for values in bad_values:
                samples = clean.copy()
                getattr(samples, part)[[5, 40][: len(values)]] = values
                with pytest.raises(SignalError, match="NaN or inf"):
                    with np.errstate(invalid="ignore"):
                        require_finite(samples)
        big = np.full(8, np.finfo(dtype).max, dtype=dtype)
        with np.errstate(over="ignore"):
            assert not np.isfinite(big.sum())
            require_finite(big)

    def test_batch_run_is_refused(self):
        with pytest.raises(SignalError, match="NaN or inf"):
            Monitor(detector_for("bitcount").model).run_signal(
                nan_span_capture()
            )

    def test_refused_chunk_leaves_the_snapshot_unchanged(self):
        model = detector_for("bitcount").model
        chunks = list(nan_span_capture().iter_chunks(4096))
        bad = next(
            i for i, c in enumerate(chunks)
            if not np.isfinite(c.samples).all()
        )
        monitor = StreamingMonitor(model)
        for chunk in chunks[:bad]:
            monitor.feed(chunk)
        before = monitor.snapshot()
        with pytest.raises(SignalError, match="NaN or inf"):
            monitor.feed(chunks[bad])
        after = monitor.snapshot()
        assert after.meta == before.meta
        assert after.arrays.keys() == before.arrays.keys()
        for name, value in before.arrays.items():
            np.testing.assert_array_equal(after.arrays[name], value)

    def test_fleet_neighbours_are_unharmed(self):
        """In the round that refuses the bad session's chunk, the other
        sessions' results equal those of a round without it."""
        good = {
            "a": (detector_for("bitcount").model, capture("bitcount", 1).iq),
            "b": (detector_for("sha").model, capture("sha", 0).iq),
        }
        bad_chunks = list(nan_span_capture().iter_chunks(4096))
        rounds = max(len(bad_chunks), *(
            -(-len(signal.samples) // 4096) for _, signal in good.values()
        ))

        def run(with_bad):
            fleet = FleetScheduler(max_sessions=3)
            streams = {}
            for sid, (model, signal) in good.items():
                fleet.add_session(sid, model, t0=signal.t0)
                streams[sid] = list(signal.iter_chunks(4096))
            if with_bad:
                fleet.add_session("bad", detector_for("bitcount").model)
                streams["bad"] = bad_chunks
            errors, results = 0, {sid: [] for sid in good}
            for r in range(rounds):
                items = [
                    (sid, chunks[r]) for sid, chunks in streams.items()
                    if r < len(chunks)
                ]
                slots = fleet.feed_many(items, return_errors=True)
                for (sid, _), slot in zip(items, slots):
                    if sid == "bad":
                        if isinstance(slot, SignalError):
                            errors += 1
                        continue
                    results[sid].extend(slot)
            return results, errors

        alone, _ = run(False)
        together, errors = run(True)
        assert errors > 0
        for sid in good:
            assert len(together[sid]) == len(alone[sid])
            for a, b in zip(together[sid], alone[sid]):
                assert_results_equal(a, b)


class TestGateOnEveryPath:
    def test_clean_gsm_streams_without_energy_outliers(self):
        """The trained reference spans every region, so a clean capture
        streamed in 4096-sample chunks flags no energy outlier."""
        model = detector_for("gsm").model
        for k in range(4):
            gate = StreamingQuality.from_config(
                model.config, model.energy_reference
            )
            flags = np.concatenate([
                gate.feed(chunk.samples)
                for chunk in capture("gsm", k).iq.iter_chunks(4096)
            ])
            assert len(flags) > 100
            assert not np.any(flags & QF_ENERGY_OUTLIER)

    def test_flag_counters_equal_batch_and_stream(self):
        from repro import obs

        model = detector_for("bitcount").model.with_quality_gating(True)
        signal = capture("bitcount", 0).iq
        d = signal.duration
        faulty, _ = FaultInjector(faults=(
            SampleDropFault(rate_per_s=400.0),
            SaturationFault(rate_per_s=400.0),
            NonFiniteFault(schedule=((0.3 * d, 0.45 * d),)),
        ), seed=7).inject(signal)

        def flag_counters(run):
            obs.reset()
            obs.enable()
            try:
                run()
                counters = obs.snapshot()["counters"]
            finally:
                obs.disable()
                obs.reset()
            return {
                name: value for name, value in counters.items()
                if name.startswith("core.stft/flagged_")
            }

        batch = flag_counters(lambda: Monitor(model).run_signal(faulty))
        streamed = flag_counters(
            lambda: stream_in_chunks(model, faulty.samples, 4096)
        )
        assert set(batch) >= {
            "core.stft/flagged_gapped", "core.stft/flagged_nonfinite",
        }
        assert streamed == batch
