"""Monitor fast-path mechanisms, checked against the scalar oracle.

``Monitor.run_signal`` plans the whole signal as one chunk, commits the
accept-only prefixes in bulk, and replays divergences through ``step``
reading the plan's verdict table -- the same loop streams and fleet
sessions run. That
every observable equals the oracle's (:class:`oracle.ScalarMonitor`) on
whole captures is the equivalence suite's job
(``tests/test_equivalence.py``). This module adds the same check on a
multi-peak loop's simulated power trace (clean, injected, and at forced
group sizes), and pins the mechanisms: that
clean peak-less regions (gsm, susan) get counting-only plans instead of
steps, that a candidate probe ends a counting prefix, that a verdict
table row is trusted only at the live monitored count, and that the
memoized sorted history tails track every history write.
"""

import numpy as np
import pytest

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
    streaming engine drives one session: plan, score, commit/replay."""
    monitor = Monitor(model)
    results = []
    start = 0
    while start < len(times):
        stop = min(len(times), start + int(rng.integers(1, 40)))
        chunk = peaks[start:stop]
        plan = plan_chunks_pooled([(monitor, chunk, None)])[0]
        if plan is not None and plan.jobs:
            score_ks_jobs(plan.jobs, model.config.alpha)
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


class TestVerdictTable:
    def test_count_mismatch_is_rescored_live(self):
        # Three monitors in one state step the same window: one scores
        # live, one gets a table row whose verdicts were all flipped to
        # "rejected", one gets the same flipped row with a wrong count.
        # The first hint is trusted (the decision changes), the second
        # fails the count check and decides exactly as the live step.
        model = _tiny_model()
        reference = model.profile("loop:A").reference
        rows = reference[np.random.default_rng(5).integers(0, 80, 16)]
        live, trusting, guarded = (Monitor(model) for _ in range(3))
        for monitor in (live, trusting, guarded):
            for row in rows[:10]:
                monitor.step(row, 0.0)
        chunk = rows[10:]
        plans = []
        for _ in range(2):
            plan = plan_chunks_pooled([(live, chunk, None)])[0]
            score_ks_jobs(plan.jobs, model.config.alpha)
            plans.append(plan)
        for plan in plans:
            plan.verdicts()[3][0] = True
        cols, count, _, _ = plans[1].verdicts()
        count[0, cols[0][0]] += 1

        expected = live.step(chunk[0], 0.0)
        assert expected == (None, False)
        assert trusting.step(
            chunk[0], 0.0, score_hint=(plans[0], 0)
        ) == (None, True)
        assert guarded.step(
            chunk[0], 0.0, score_hint=(plans[1], 0)
        ) == expected
        meta, arrays = guarded.export_state()
        assert meta == live.export_state()[0]
        np.testing.assert_array_equal(
            arrays["history"], live.export_state()[1]["history"]
        )


class TestSortedTailMemo:
    def test_recent_tracks_history_across_writes(self):
        # _recent() serves sorted copies of the history tail memoized
        # per group size. Interleave every history write -- step pushes,
        # bulk commits, commits from inside a scored plan, snapshot
        # restores -- with queries at every n and dim: each answer must
        # equal sorting the last n rows pushed (tracked here,
        # independently of the ring), so a memo that outlives a write,
        # or a commit that pushes a row too many or too few, fails here.
        model = _tiny_model()
        monitor = Monitor(model)
        donor = Monitor(model)
        pushed, donor_pushed = [], []
        rng = np.random.default_rng(11)

        def random_rows(k):
            rows = 10.0 + rng.normal(size=(k, 4))
            rows[rng.random(size=rows.shape) < 0.3] = np.nan
            return rows

        def check():
            for n in (2, 3, 6, 10):
                for dim in range(4):
                    got = monitor._recent(n, dim)
                    if monitor._filled < n:
                        assert got is None
                        continue
                    column = np.array(pushed[-n:])[:, dim]
                    expected = np.sort(column[~np.isnan(column)])
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
                committed = monitor.commit_chunk(_ChunkPlan(
                    k=len(rows), static_stop=len(rows), jobs=[], peaks=rows,
                ))
                assert committed == len(rows)
                pushed.extend(rows)
                check()
            elif action == 2:
                # A scored plan with random verdicts on a random subset
                # of windows, committed from a random window: exactly
                # the rows up to the first rejection at or after it, or
                # up to static_stop, are pushed.
                k = int(rng.integers(1, 13))
                rows = random_rows(k)
                job = _KsJob(
                    dim=int(rng.integers(0, 2)),
                    ref=model.profile("loop:A").reference_dim(0),
                    count=3, rows=np.zeros((k, 3)),
                    windows=np.flatnonzero(rng.random(k) < 0.7),
                )
                job.d = rng.random(len(job.windows))
                job.rejected = rng.random(len(job.windows)) < 0.3
                static_stop = int(rng.integers(1, k + 1))
                start = int(rng.integers(0, static_stop))
                hits = job.windows[job.rejected & (job.windows >= start)]
                expected = min([static_stop, *hits.tolist()])
                committed = monitor.commit_chunk(
                    _ChunkPlan(k, static_stop, [job], rows), start
                )
                assert committed == expected
                pushed.extend(rows[start:expected])
                check()
            else:
                for row in random_rows(int(rng.integers(1, 12))):
                    donor.step(row, 0.0)
                    donor_pushed.append(row)
                monitor.restore_state(*donor.export_state())
                pushed = list(donor_pushed)
                check()
