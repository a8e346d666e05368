"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import TwoBitPredictor
from repro.arch.branch import two_bit_mispredict_rate
from repro.arch.config import CoreConfig
from repro.arch.engine import TraceBuilder, _sticky_stream
from repro.arch.pipeline import schedule_path
from repro.core.peaks import extract_peaks
from repro.core.stats.empirical import ecdf
from repro.core.stats.ks import kolmogorov_sf, ks_2samp, ks_critical_value, ks_statistic
from repro.core.stats.utest import mann_whitney_u
from repro.core.stft import stft
from repro.programs.ir import Instr, OpClass
from repro.types import RegionInterval, RegionTimeline, Signal

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestKsProperties:
    @given(
        x=st.lists(finite_floats, min_size=2, max_size=60),
        y=st.lists(finite_floats, min_size=2, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_statistic_bounds_and_symmetry(self, x, y):
        a, b = np.array(x), np.array(y)
        result = ks_2samp(a, b)
        assert 0.0 <= result.statistic <= 1.0
        assert 0.0 <= result.pvalue <= 1.0
        flipped = ks_2samp(b, a)
        assert result.statistic == pytest.approx(flipped.statistic, abs=1e-12)

    @given(x=st.lists(finite_floats, min_size=2, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_identical_samples_never_reject(self, x):
        a = np.array(x)
        result = ks_2samp(a, a)
        assert result.statistic == 0.0
        assert not result.reject(0.01)

    @given(
        x=st.lists(finite_floats, min_size=2, max_size=40),
        shift=st.floats(min_value=1e10, max_value=1e12),
    )
    @settings(max_examples=50, deadline=None)
    def test_disjoint_shift_maximizes_statistic(self, x, shift):
        a = np.array(x)
        result = ks_2samp(a, a + shift)
        assert result.statistic == pytest.approx(1.0)

    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_kolmogorov_sf_monotone_and_bounded(self, x):
        value = kolmogorov_sf(x)
        assert 0.0 <= value <= 1.0
        assert kolmogorov_sf(x + 0.1) <= value + 1e-12

    @given(
        m=st.integers(min_value=2, max_value=2000),
        n=st.integers(min_value=2, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_critical_value_shrinks_with_samples(self, m, n):
        crit = ks_critical_value(m, n, 0.01)
        assert crit > 0
        assert ks_critical_value(m * 2, n * 2, 0.01) < crit
        # Stricter significance => larger critical value.
        assert ks_critical_value(m, n, 0.001) > ks_critical_value(m, n, 0.05)


class TestUTestProperties:
    @given(
        x=st.lists(finite_floats, min_size=3, max_size=40),
        y=st.lists(finite_floats, min_size=3, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_pvalue_bounds_and_u_range(self, x, y):
        result = mann_whitney_u(np.array(x), np.array(y))
        assert 0.0 <= result.pvalue <= 1.0
        assert 0.0 <= result.statistic <= len(x) * len(y)


class TestEcdfProperties:
    @given(x=st.lists(finite_floats, min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_ecdf_is_a_cdf(self, x):
        data = np.array(x)
        F = ecdf(data)
        grid = np.linspace(data.min() - 1, data.max() + 1, 30)
        values = F(grid)
        assert np.all(np.diff(values) >= -1e-12)  # monotone
        assert values[0] == 0.0 or data.min() >= grid[0]
        assert F(np.array([data.max()]))[0] == pytest.approx(1.0)


class TestPredictorProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_two_bit_state_always_valid(self, outcomes):
        pred = TwoBitPredictor()
        for taken in outcomes:
            pred.update(taken)
            assert 0 <= pred.state <= 3

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_mispredict_rate_bounded(self, p):
        rate = two_bit_mispredict_rate(p)
        assert 0.0 <= rate <= 0.5 + 1e-9


class TestTraceBuilderProperties:
    @given(
        chunks=st.lists(
            st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                     min_size=0, max_size=50),
            min_size=1, max_size=10,
        ),
        cps=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunking_invariant(self, chunks, cps):
        """Samples must not depend on how cycles were chunked, down to the
        last bit: a bin closed across two chunks sums like any other."""
        whole = np.concatenate([np.array(c) for c in chunks]) if chunks else np.empty(0)
        tb_chunks = TraceBuilder(cps)
        for chunk in chunks:
            tb_chunks.add_cycles(np.array(chunk))
        tb_whole = TraceBuilder(cps)
        tb_whole.add_cycles(whole)
        np.testing.assert_array_equal(tb_chunks.samples(), tb_whole.samples())
        assert tb_chunks.total_cycles == len(whole)

    @given(
        values=st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                        min_size=4, max_size=200),
        cps=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_conservation(self, values, cps):
        """Mean of samples equals mean of the cycles they cover."""
        tb = TraceBuilder(cps)
        tb.add_cycles(np.array(values))
        samples = tb.samples()
        covered = len(samples) * cps
        if covered:
            assert samples.mean() * covered == pytest.approx(
                np.sum(values[:covered]), rel=1e-9
            )


class TestStickyStreamProperties:
    @given(
        n=st.integers(min_value=1, max_value=500),
        n_states=st.integers(min_value=2, max_value=6),
        initial=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_stream_states_valid(self, n, n_states, initial, seed):
        assume(initial < n_states)
        rng = np.random.default_rng(seed)
        stream, final = _sticky_stream(n, n_states, initial, 0.1, rng)
        assert len(stream) == n
        assert np.all((stream >= 0) & (stream < n_states))
        assert final == stream[-1]

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_zero_switch_prob_keeps_state(self, seed):
        rng = np.random.default_rng(seed)
        stream, _ = _sticky_stream(50, 4, 2, 0.0, rng)
        assert np.all(stream == 2)


class TestScheduleProperties:
    @given(
        n=st.integers(min_value=1, max_value=60),
        width=st.sampled_from([1, 2, 4]),
        kind=st.sampled_from(["inorder", "ooo"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_schedule_sanity(self, n, width, kind):
        core = CoreConfig(kind=kind, issue_width=width, rob_size=64)
        instrs = [Instr(OpClass.IADD, dst=f"r{i % 4}") for i in range(n)]
        sched = schedule_path(instrs, core)
        # Completion after issue, cycles cover all completions, width bound.
        assert np.all(sched.complete > sched.issue - 1)
        assert sched.cycles == sched.complete.max()
        _, counts = np.unique(sched.issue, return_counts=True)
        assert counts.max() <= width


class TestPeakProperties:
    @given(
        powers=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                        min_size=8, max_size=120),
        fraction=st.floats(min_value=0.001, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_peaks_respect_threshold_and_order(self, powers, fraction):
        power = np.array(powers)
        freqs = np.arange(len(power), dtype=float)
        peak_freqs, peak_powers = extract_peaks(power, freqs, fraction,
                                                min_prominence=0.0)
        total = power.sum()
        assert np.all(peak_powers >= fraction * total - 1e-9)
        assert np.all(np.diff(peak_powers) <= 1e-12)  # descending
        # All reported frequencies exist in the grid.
        assert set(peak_freqs) <= set(freqs)


class TestTimelineProperties:
    @given(
        durations=st.lists(st.floats(min_value=0.01, max_value=5.0,
                                     allow_nan=False), min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_region_at_matches_intervals(self, durations, seed):
        rng = np.random.default_rng(seed)
        timeline = RegionTimeline()
        t = 0.0
        for i, d in enumerate(durations):
            timeline.append(RegionInterval(f"r{i % 3}", t, t + d))
            t += d
        for interval in timeline:
            mid = (interval.t_start + interval.t_end) / 2
            assert timeline.region_at(mid) == interval.region
        assert timeline.region_at(t + 1.0) is None
        assert timeline.region_at(-1.0) is None


class TestStftProperties:
    @given(
        freq_bin=st.integers(min_value=3, max_value=60),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=30, deadline=None)
    def test_tone_lands_in_its_bin(self, freq_bin, seed):
        fs, n_window = 1e5, 128
        f0 = freq_bin * fs / n_window
        assume(f0 < fs / 2 - fs / n_window)
        t = np.arange(1024) / fs
        rng = np.random.default_rng(seed)
        sig = Signal(np.sin(2 * np.pi * f0 * t) + 0.01 * rng.normal(size=1024), fs)
        seq = stft(sig, window_samples=n_window)
        for row in seq.power:
            assert abs(seq.freqs[np.argmax(row)] - f0) <= fs / n_window
