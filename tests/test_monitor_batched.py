"""Monitor chunk-path mechanisms, checked against the scalar oracle.

``Monitor.run_signal`` plans the whole signal as one chunk and walks the
plan's verdict table through accepts, rejections, votes and reports --
the same loop streams and fleet sessions run. That every observable
equals the oracle's (:class:`oracle.ScalarMonitor`) on whole captures is
the equivalence suite's job (``tests/test_equivalence.py``). This module
adds the same check on a multi-peak loop's simulated power trace (clean,
injected, and at forced group sizes) and a hypothesis sweep of the walk
over tiny random models (K-S and U-test, quality-flagged windows), and
pins the mechanisms: that clean peak-less regions (gsm, susan) get
counting-only plans instead of steps, that a candidate probe ends a
counting prefix, that the history ring tracks every history write, that
K-S and U-test jobs never share a scorer call, and that ``step`` decides
rows of any width as the oracle does.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import shared_tiny_detector, tiny_scale
from oracle import ScalarMonitor, assert_results_equal
from repro.core.model import EddieConfig, EddieModel, RegionProfile
from repro.core.monitor import (
    Monitor,
    MonitorResult,
    _ChunkPlan,
    _KsJob,
    plan_chunks_pooled,
    score_ks_jobs,
)
from repro.core.stats import two_sample_reject
from repro.core.stft import (
    QF_CLIPPED,
    QF_DEAD,
    QF_ENERGY_OUTLIER,
    QF_GAPPED,
    QF_NONFINITE,
)
from repro.experiments.runner import Scale, build_detector
from repro.programs.workloads import injection_mix, multi_peak_loop_program

TINY = Scale(train_runs=3, clean_runs=1, injected_runs=1, group_sizes=(8, 16))


def _both_paths(model, signal):
    return (
        Monitor(model).run_signal(signal),
        ScalarMonitor(model).run_signal(signal),
    )


class TestEquivalence:
    @pytest.fixture(scope="class")
    def detector(self):
        return build_detector(
            multi_peak_loop_program(trips=9000), TINY, source="power"
        )

    def test_clean_trace(self, detector):
        trace = detector.source.run(seed=TINY.monitor_seed(0))
        assert_results_equal(*_both_paths(detector.model, trace.power))

    def test_injected_trace(self, detector):
        simulator = detector.source
        simulator.set_loop_injection("L", injection_mix(4, 4), 1.0)
        trace = simulator.run(seed=TINY.injected_seed(0))
        simulator.clear_injections()
        fast, oracle = _both_paths(detector.model, trace.power)
        assert_results_equal(fast, oracle)
        assert fast.reports  # the injection is actually detected

    def test_forced_group_sizes(self, detector):
        trace = detector.source.run(seed=TINY.monitor_seed(1))
        for n in (16, 48):
            model = detector.with_group_size(n).model
            assert_results_equal(*_both_paths(model, trace.power))


def _run_in_chunks(model, peaks, times, rng):
    """``Monitor.run_peaks`` over random chunk boundaries, the way the
    streaming engine drives one session: plan, score, walk/step."""
    monitor = Monitor(model)
    results = []
    start = 0
    while start < len(times):
        stop = min(len(times), start + int(rng.integers(1, 40)))
        chunk = peaks[start:stop]
        plan = plan_chunks_pooled([(monitor, chunk, None)])[0]
        if plan is not None and plan.jobs:
            score_ks_jobs(plan.jobs)
        results.append(
            monitor.score_chunk(chunk, times[start:stop], None, plan)
        )
        start = stop
    return MonitorResult.concat(results)


class _StepCounter(Monitor):
    """Counts :meth:`step` calls by the region the step starts in."""

    def __init__(self, model):
        super().__init__(model)
        self.steps = {}

    def step(self, *args, **kwargs):
        region = self.current_region
        self.steps[region] = self.steps.get(region, 0) + 1
        return super().step(*args, **kwargs)


class TestPeaklessEquivalence:
    """gsm's ``loop:lpc`` and susan's ``loop:edges`` have no spectral
    peaks: sessions there run counting-only plans (no K-S jobs) whose
    accept-only prefix ends where a dim-0 or candidate-probe count could
    make the scalar step switch regions or count an anomaly."""

    def test_clean_peakless_loop_is_committed_not_stepped(self):
        detector = shared_tiny_detector("gsm")
        signal = detector.source.capture(
            seed=tiny_scale().monitor_seed(0)
        ).iq
        monitor = _StepCounter(detector.model)
        result = monitor.run_signal(signal)
        lpc_windows = result.tracked.count("loop:lpc")
        assert lpc_windows >= 20
        assert monitor.steps.get("loop:lpc", 0) < lpc_windows // 4

    def test_candidate_probe_ends_the_counting_prefix(self):
        # Raising corners' group size above edges' means the candidate's
        # test-dim set can hold min_mon_values real values while edges'
        # own dim-0 set (over its smaller group) never does: only the
        # candidate-probe count stops the counting plan, and the scalar
        # step then switches to corners.
        base = shared_tiny_detector("susan").model
        profiles = dict(base.profiles)
        corners = profiles["loop:corners"]
        profiles["loop:corners"] = RegionProfile(
            corners.name, corners.reference, corners.num_peaks, 16,
            corners.descriptor_dims,
        )
        model = EddieModel(
            base.program_name, base.config, profiles, base.successors,
            ["loop:edges"], base.sample_rate,
        )
        rng = np.random.default_rng(3)
        width = corners.reference.shape[1]
        peaks = np.full((240, width), np.nan)
        picks = rng.integers(0, corners.n_reference, size=len(peaks[::3]))
        peaks[::3] = corners.reference[picks]
        times = np.arange(len(peaks)) * model.hop_duration
        oracle = ScalarMonitor(model).run_peaks(peaks, times)
        assert "loop:corners" in oracle.tracked
        assert_results_equal(Monitor(model).run_peaks(peaks, times), oracle)
        for seed in range(3):
            assert_results_equal(
                _run_in_chunks(
                    model, peaks, times, np.random.default_rng(seed)
                ),
                oracle,
            )


def _tiny_model():
    """Two 4-wide regions with group sizes 6 and 10, dims 0-1 tested."""
    rng = np.random.default_rng(0)
    cfg = EddieConfig(
        window_samples=64, max_peaks=4, group_sizes=(6,), min_mon_values=3,
    )

    def profile(name, centre, group):
        ref = np.full((80, 4), np.nan)
        ref[:, :2] = centre + rng.normal(size=(80, 2))
        return RegionProfile(name, ref, 2, group)

    return EddieModel(
        "p", cfg,
        {"loop:A": profile("loop:A", 10.0, 6),
         "loop:B": profile("loop:B", 20.0, 10)},
        {"loop:A": ["loop:B"], "loop:B": []}, ["loop:A"], 64e3,
    )


class TestHistoryRing:
    def test_history_tail_tracks_every_write(self):
        # The history ring is the monitor's only window state. Interleave
        # every history write -- steps (one-window walks), bulk commits,
        # walks of a scored plan from a random window, snapshot restores
        # -- with reads at every n: _history_tail(n) must equal the last
        # n rows pushed (tracked here, independently of the ring), and
        # _recent(n, dim) their real values of dim in order, so a walk
        # that pushes a row too many or too few, or a write that lands in
        # the wrong slot, fails here.
        model = _tiny_model()
        monitor = Monitor(model)
        donor = Monitor(model)
        pushed, donor_pushed = [], []
        rng = np.random.default_rng(11)
        walked_rejections = 0

        def random_rows(k, centre=10.0):
            rows = centre + rng.normal(size=(k, 4))
            rows[rng.random(size=rows.shape) < 0.3] = np.nan
            return rows

        def check():
            for n in (2, 3, 6, 10):
                if monitor._filled >= n:
                    np.testing.assert_array_equal(
                        monitor._history_tail(n), np.array(pushed[-n:])
                    )
                for dim in range(4):
                    got = monitor._recent(n, dim)
                    if monitor._filled < n:
                        assert got is None
                        continue
                    column = np.array(pushed[-n:])[:, dim]
                    expected = column[~np.isnan(column)]
                    if len(expected) < model.config.min_mon_values:
                        assert got is None
                    else:
                        np.testing.assert_array_equal(got, expected)

        for round_ in range(40):
            action = round_ % 4
            if action == 0:
                for row in random_rows(int(rng.integers(1, 4))):
                    monitor.step(row, 0.0)
                    pushed.append(row)
                    check()
            elif action == 1:
                rows = random_rows(int(rng.integers(1, 13)))
                committed = monitor.commit_chunk(
                    _ChunkPlan(len(rows), len(rows), rows, monitor._filled),
                    np.zeros(len(rows)),
                )
                assert committed == (len(rows), [], [])
                pushed.extend(rows)
                check()
            elif action == 2:
                # A scored plan over rows that drift from loop:A's
                # centre towards loop:B's, walked from a random window:
                # rejections are walked through, and exactly the rows up
                # to the walk's stop -- the plan's end, or the window of
                # a region transition -- are pushed.
                k = int(rng.integers(2, 25))
                rows = np.concatenate([
                    random_rows(k // 2),
                    random_rows(k - k // 2, float(rng.choice([10.0, 20.0]))),
                ])
                plan = plan_chunks_pooled([(monitor, rows, None)])[0]
                score_ks_jobs(plan.jobs)
                region = monitor.current_region
                start = int(rng.integers(0, k))
                stop, rejected, _ = monitor.commit_chunk(
                    plan, np.zeros(k), start
                )
                assert start < stop <= k
                assert stop == k or monitor.current_region != region
                assert all(start <= w < stop for w in rejected)
                walked_rejections += len(rejected)
                pushed.extend(rows[start:stop])
                check()
            else:
                for row in random_rows(int(rng.integers(1, 12))):
                    donor.step(row, 0.0)
                    donor_pushed.append(row)
                monitor.restore_state(*donor.export_state())
                pushed = list(donor_pushed)
                check()
        assert walked_rejections


class TestScoreKsJobs:
    def test_tests_never_share_a_scorer_call(self, monkeypatch):
        # A K-S job and a U-test job on the same reference object, with
        # the same count and alpha, pool by test as well: the K-S rows go
        # through the integer kernel alone, the U-test rows through
        # two_sample_reject alone, and each verdict is its own test's.
        import repro.core.monitor as core_monitor

        rng = np.random.default_rng(5)
        ref = np.sort(rng.normal(size=60))
        rows = np.sort(rng.normal(0.8, 1.0, size=(6, 8)), axis=1)
        alpha = 0.05
        tables = {name: (np.zeros(6), np.zeros(6, dtype=bool))
                  for name in ("ks", "utest")}
        jobs = [
            _KsJob(ref, 8, rows, np.arange(6), *tables[name], (alpha, name))
            for name in ("ks", "utest")
        ]
        kernel_rows, reject_methods = [], []
        real_kernel = core_monitor.ks_d_int_rows
        real_reject = core_monitor.two_sample_reject

        def kernel(reference, sets):
            kernel_rows.append(len(sets))
            return real_kernel(reference, sets)

        def reject(reference, sets, a, method, *args):
            reject_methods.append(method)
            return real_reject(reference, sets, a, method, *args)

        monkeypatch.setattr(core_monitor, "ks_d_int_rows", kernel)
        monkeypatch.setattr(core_monitor, "two_sample_reject", reject)
        score_ks_jobs(jobs)
        assert kernel_rows == [6]
        assert reject_methods == ["utest"] * 6
        for name, (d, rejected) in tables.items():
            expected = [real_reject(ref, row, alpha, name) for row in rows]
            assert rejected.tolist() == expected
            assert np.isnan(d).all() == (name == "utest")
        assert tables["ks"][1].tolist() != tables["utest"][1].tolist()


class TestStepRowWidths:
    def test_odd_row_widths_match_the_oracle(self):
        # Monitor.step pads or cuts each row to the history width before
        # its one-window plan. Rows narrower and wider than the width,
        # drifting from loop:A towards loop:B, go through the public
        # step of both monitors: every return, the tracked region and
        # the final state agree, and the walk really rejects, reports or
        # moves on the way.
        model = _tiny_model()
        width = Monitor(model)._width
        rng = np.random.default_rng(9)
        monitor, oracle = Monitor(model), ScalarMonitor(model)
        outcomes = []
        for k in range(120):
            centre = 10.0 if k < 40 else (50.0 if k < 70 else 20.0)
            row = centre + rng.normal(
                size=int(rng.choice([0, 1, width - 1, width, width + 3]))
            )
            row[rng.random(size=len(row)) < 0.2] = np.nan
            got = monitor.step(row, k * 1e-3)
            assert got == oracle.step(row, k * 1e-3)
            assert monitor.current_region == oracle.current_region
            outcomes.append(got)
        _assert_states_equal(monitor.export_state(), oracle.export_state())
        assert any(rejected for _, rejected in outcomes)
        assert any(report is not None for report, _ in outcomes)
        assert monitor.current_region == "loop:B"


# -- the walk against the oracle, over tiny random models -------------------

#: Peak columns of the sweep's models (also the history width).
_SWEEP_WIDTH = 3


#: Per-window acquisition-quality flags the sweep draws from.
_SWEEP_FLAGS = np.array(
    [QF_CLIPPED, QF_GAPPED, QF_DEAD, QF_ENERGY_OUTLIER, QF_NONFINITE],
    dtype=np.uint8,
)


@st.composite
def sweep_cases(draw):
    """A tiny random model, a NaN-heavy peak stream through it, and the
    stream's per-window quality flags.

    Two to four regions, each with 0 (peak-less) to 3 peak dims, its own
    group size and a reference drawn around one of three centres per
    dim, so candidates can explain some rejecting dims and not others;
    a region may copy an earlier one's reference, so two candidates can
    explain the same dims and tie on votes. Successor lists are random
    subsets of all regions, self-edges included. The stream visits
    regions in random order, with foreign rows that no region explains
    and up to 60% of values missing. The model tests with K-S or the
    U-test, with or without quality gating (and a short resync budget,
    so desync reports happen); up to 30% of windows carry a clipped,
    gapped, dead, energy-outlier or non-finite flag.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = EddieConfig(
        window_samples=64,
        max_peaks=_SWEEP_WIDTH,
        group_sizes=(4,),
        min_mon_values=draw(st.integers(2, 4)),
        change_steps=draw(st.integers(1, 4)),
        change_fraction=draw(st.floats(0.3, 1.0)),
        report_threshold=draw(st.integers(0, 5)),
        statistic=draw(st.sampled_from(["ks", "utest"])),
        quality_gating=draw(st.booleans()),
        resync_timeout=draw(st.integers(1, 12)),
    )
    names = [f"loop:{c}" for c in "ABCD"[: draw(st.integers(2, 4))]]
    profiles = {}
    for i, name in enumerate(names):
        if i and draw(st.booleans()):
            twin = profiles[names[draw(st.integers(0, i - 1))]]
            profiles[name] = RegionProfile(
                name, twin.reference, twin.num_peaks, twin.group_size
            )
            continue
        num_peaks = draw(st.integers(0, _SWEEP_WIDTH))
        reference = np.full((40, _SWEEP_WIDTH), np.nan)
        centres = [
            draw(st.sampled_from([10.0, 14.0, 30.0]))
            for _ in range(num_peaks)
        ]
        reference[:, :num_peaks] = centres + rng.normal(size=(40, num_peaks))
        profiles[name] = RegionProfile(
            name, reference, num_peaks, draw(st.integers(2, 8))
        )
    successors = {
        name: [other for other in names if draw(st.booleans())]
        for name in names
    }
    model = EddieModel("sweep", cfg, profiles, successors, [names[0]], 64e3)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.integers(1, 30))
        if draw(st.integers(0, 4)) == 0:
            segment = 50.0 + rng.normal(size=(length, _SWEEP_WIDTH))
        else:
            reference = profiles[draw(st.sampled_from(names))].reference
            segment = reference[rng.integers(0, len(reference), length)]
        rows.append(segment.copy())
    peaks = np.concatenate(rows)
    peaks[rng.random(size=peaks.shape) < draw(st.floats(0.0, 0.6))] = np.nan
    flagged = rng.random(size=len(peaks)) < draw(st.floats(0.0, 0.3))
    quality = np.where(
        flagged, rng.choice(_SWEEP_FLAGS, size=len(peaks)), 0
    ).astype(np.uint8)
    early_exit = draw(st.booleans())
    return (
        model, peaks, early_exit, draw(st.integers(0, 2**32 - 1)), quality
    )


def _oracle_run(model, peaks, times, early_exit, quality):
    """The oracle's result and final state, cut after the first anomaly
    report when ``early_exit`` is set."""
    result = ScalarMonitor(model).run_peaks(peaks, times, quality)
    anomalies = [
        i for i, report in zip(result.report_indices, result.reports)
        if report.kind == "anomaly"
    ]
    if early_exit and anomalies:
        cut = anomalies[0] + 1
        peaks, times = peaks[:cut], times[:cut]
        quality = quality[:cut] if quality is not None else None
    oracle = ScalarMonitor(model)
    return oracle.run_peaks(peaks, times, quality), oracle.export_state()


def _assert_states_equal(a, b):
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1]["history"], b[1]["history"])


def _assert_walk_matches_oracle(model, peaks, early_exit, seed, quality=None):
    """Batch and random-chunk walks of ``peaks`` equal the oracle's steps:
    every observable of the results, and the final exported state. The
    batch run lets :meth:`Monitor.score_chunk` plan for itself; the
    chunked run hands it each chunk's scored entry plan, as the
    streaming engine does."""
    times = np.arange(len(peaks)) * model.hop_duration
    expected, state = _oracle_run(model, peaks, times, early_exit, quality)

    batch = Monitor(model)
    assert_results_equal(
        batch.score_chunk(
            peaks, times, quality, None, early_exit=early_exit
        ),
        expected,
    )
    _assert_states_equal(batch.export_state(), state)

    stream = Monitor(model)
    rng = np.random.default_rng(seed)
    results, start = [], 0
    while start < len(times):
        stop = min(len(times), start + int(rng.integers(1, 12)))
        chunk = peaks[start:stop]
        flags = quality[start:stop] if quality is not None else None
        plan = plan_chunks_pooled([(stream, chunk, flags)])[0]
        if plan is not None and plan.jobs:
            score_ks_jobs(plan.jobs)
        result = stream.score_chunk(
            chunk, times[start:stop], flags, plan, early_exit=early_exit
        )
        results.append(result)
        start = stop
        if early_exit and any(r.kind == "anomaly" for r in result.reports):
            break
    merged = MonitorResult.concat(
        results, max_unscorable_fraction=model.config.max_unscorable_fraction
    )
    assert_results_equal(merged, expected)
    _assert_states_equal(stream.export_state(), state)
    return expected


@pytest.mark.equivalence
class TestWalkAgainstOracle:
    """The verdict-table walk decides every window as the scalar
    oracle's steps do: tracked regions, rejection flags, reports and
    their indices, and the final exported state."""

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=sweep_cases())
    def test_batch_and_random_chunks(self, case):
        _assert_walk_matches_oracle(*case)

    def test_candidates_tied_across_dims(self):
        # loop:A rejects both dims of a stream centred on (14, 30).
        # loop:X explains only dim 0 and loop:Y only dim 1, so each earns
        # a vote in the same step and they tie; the change counts' dict
        # order -- set by the order of the rejecting dims -- picks X.
        rng = np.random.default_rng(4)
        cfg = EddieConfig(
            window_samples=64, max_peaks=2, group_sizes=(6,),
            min_mon_values=3, change_steps=1, change_fraction=0.5,
        )

        def profile(name, centres):
            return RegionProfile(
                name, np.array(centres) + rng.normal(size=(80, 2)), 2, 6
            )

        model = EddieModel(
            "tie", cfg,
            {"loop:A": profile("loop:A", (10.0, 10.0)),
             "loop:Y": profile("loop:Y", (50.0, 30.0)),
             "loop:X": profile("loop:X", (14.0, 50.0))},
            {"loop:A": ["loop:Y", "loop:X"]}, ["loop:A"], 64e3,
        )
        peaks = np.concatenate([
            model.profile("loop:A").reference[:20],
            np.array((14.0, 30.0)) + rng.normal(size=(20, 2)),
        ])
        for seed in range(3):
            result = _assert_walk_matches_oracle(model, peaks, False, seed)
            assert result.tracked[-1] == "loop:X"
