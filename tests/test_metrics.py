"""Direct unit tests for repro.core.metrics (Section 5.2 definitions)."""

import numpy as np
import pytest

from repro.core.metrics import (
    RunMetrics,
    aggregate_metrics,
    evaluate_run,
    fault_group_mask,
    injected_group_mask,
    rejection_false_negative_rate,
)
from repro.core.monitor import AnomalyReport, MonitorResult
from repro.types import FaultSpan, RegionInterval, RegionTimeline

HOP = 0.001
WINDOW = 0.002


def make_result(n, report_at=(), reject_at=(), tracked=None, group=8):
    times = np.arange(n) * HOP
    reports = [AnomalyReport(time=times[i], region="loop:A", streak=4)
               for i in report_at]
    flags = np.zeros(n, dtype=bool)
    flags[list(reject_at)] = True
    return MonitorResult(
        times=times,
        tracked=tracked or ["loop:A"] * n,
        reports=reports,
        rejection_flags=flags,
        group_sizes=np.full(n, group),
        report_indices=list(report_at),
    )


def timeline(n, region="loop:A"):
    return RegionTimeline([RegionInterval(region, -1.0, n * HOP + 1.0)])


class TestEvaluateRun:
    def test_clean_run(self):
        result = make_result(100)
        metrics = evaluate_run(result, timeline(100), [], WINDOW, HOP)
        assert metrics.false_positive_rate == 0.0
        assert metrics.accuracy == 100.0
        assert metrics.coverage == 100.0
        assert not metrics.detected
        assert metrics.n_groups == 100

    def test_false_positive_counting(self):
        result = make_result(100, report_at=(10, 50))
        metrics = evaluate_run(result, timeline(100), [], WINDOW, HOP)
        assert metrics.false_positive_rate == pytest.approx(2.0)
        assert metrics.accuracy < 100.0

    def test_detection_latency(self):
        # Injection spans [0.05, 0.09); report fires at t=0.07.
        result = make_result(100, report_at=(70,))
        metrics = evaluate_run(
            result, timeline(100), [(0.05, 0.09)], WINDOW, HOP
        )
        assert metrics.detected
        assert metrics.detection_latency == pytest.approx(0.02)
        # The report sits inside the injected stretch: no false positive.
        assert metrics.false_positive_rate == 0.0

    def test_missed_injection(self):
        result = make_result(100)
        metrics = evaluate_run(
            result, timeline(100), [(0.05, 0.09)], WINDOW, HOP
        )
        assert not metrics.detected
        assert metrics.false_negative_rate == 100.0
        assert metrics.true_positive_rate == 0.0

    def test_report_covers_whole_injected_stretch(self):
        """One report inside a contiguous injected stretch credits it all."""
        result = make_result(100, report_at=(60,))
        metrics = evaluate_run(
            result, timeline(100), [(0.05, 0.09)], WINDOW, HOP
        )
        assert metrics.true_positive_rate == 100.0

    def test_report_linger_credits_after_span(self):
        # Injection ends at 0.05; report at 0.06 with linger 0.02 counts.
        result = make_result(100, report_at=(60,))
        with_linger = evaluate_run(
            result, timeline(100), [(0.03, 0.05)], WINDOW, HOP,
            report_linger=0.02,
        )
        assert with_linger.detected

    def test_coverage_counts_mistracking(self):
        tracked = ["loop:A"] * 50 + ["loop:B"] * 50
        result = make_result(100, tracked=tracked)
        metrics = evaluate_run(result, timeline(100), [], WINDOW, HOP)
        assert metrics.coverage == pytest.approx(50.0)

    def test_per_region_accuracy_mean(self):
        tl = RegionTimeline(
            [
                RegionInterval("loop:A", -1.0, 0.0495),
                RegionInterval("loop:B", 0.0495, 10.0),
            ]
        )
        # One false report in region B only.
        result = make_result(100, report_at=(75,))
        metrics = evaluate_run(result, tl, [], WINDOW, HOP)
        assert metrics.per_region_accuracy["loop:A"] == 100.0
        assert metrics.per_region_accuracy["loop:B"] < 100.0
        expected = np.mean(list(metrics.per_region_accuracy.values()))
        assert metrics.accuracy == pytest.approx(expected)

    def test_empty_result(self):
        result = make_result(0)
        metrics = evaluate_run(result, timeline(1), [], WINDOW, HOP)
        assert metrics.n_groups == 0
        assert metrics.detection_latency is None


class TestGroupMask:
    def test_group_span_includes_history(self):
        # Group at index i covers [t_i - n*hop - w/2, t_i + w/2): an
        # injection long past still inside the group's history counts.
        result = make_result(100, group=20)
        mask = injected_group_mask(result, [(0.010, 0.011)], WINDOW, HOP)
        assert mask[11]          # right after the span
        assert mask[25]          # span still inside the 20-hop history
        assert not mask[45]      # history has slid past

    def test_no_spans(self):
        result = make_result(10)
        assert not injected_group_mask(result, [], WINDOW, HOP).any()


class TestRejectionFalseNegative:
    def test_graded_fn(self):
        # Injection covers groups ~50..70; half of them rejected.
        rejected = range(50, 60)
        result = make_result(100, reject_at=rejected, group=2)
        fn = rejection_false_negative_rate(
            result, [(0.049, 0.0691)], WINDOW, HOP
        )
        assert fn is not None
        assert 0.0 < fn < 100.0

    def test_none_without_injection(self):
        result = make_result(10)
        assert rejection_false_negative_rate(result, [], WINDOW, HOP) is None

    def test_all_rejected_is_zero_fn(self):
        result = make_result(100, reject_at=range(100))
        fn = rejection_false_negative_rate(result, [(0.0, 1.0)], WINDOW, HOP)
        assert fn == 0.0


class TestAggregate:
    def test_mean_and_counts(self):
        m1 = RunMetrics(
            detection_latency=0.01, false_positive_rate=1.0,
            false_negative_rate=20.0, true_positive_rate=80.0,
            accuracy=90.0, coverage=80.0, per_region_accuracy={"a": 90.0},
            n_groups=10, n_injected_groups=5, n_reports=2, detected=True,
        )
        m2 = RunMetrics(
            detection_latency=None, false_positive_rate=3.0,
            false_negative_rate=None, true_positive_rate=None,
            accuracy=100.0, coverage=90.0, per_region_accuracy={"a": 100.0},
            n_groups=20, n_injected_groups=0, n_reports=0, detected=False,
        )
        agg = aggregate_metrics([m1, m2])
        assert agg.detection_latency == pytest.approx(0.01)  # None skipped
        assert agg.false_positive_rate == pytest.approx(2.0)
        assert agg.accuracy == pytest.approx(95.0)
        assert agg.per_region_accuracy["a"] == pytest.approx(95.0)
        assert agg.n_groups == 30
        assert agg.detected  # any


class TestReportedMask:
    def test_mask_from_report_indices(self):
        result = make_result(10, report_at=(2, 7))
        mask = result.reported_mask
        assert mask.sum() == 2
        assert mask[2] and mask[7]

    def test_no_reports_empty_mask(self):
        result = make_result(5)
        assert not result.reported_mask.any()


class TestFaultAwareScoring:
    def test_fp_split_between_faulted_and_unfaulted(self):
        # Reports at 10 (clean stretch) and 50 (inside a fault span).
        result = make_result(100, report_at=(10, 50))
        fault = FaultSpan(kind="drop", t_start=0.049, t_end=0.052)
        metrics = evaluate_run(
            result, timeline(100), [], WINDOW, HOP, fault_spans=[fault]
        )
        # The all-groups rate keeps its original definition.
        assert metrics.false_positive_rate == pytest.approx(2.0)
        assert metrics.n_faulted_groups > 0
        assert metrics.false_positive_rate_faulted > 0.0
        # The clean-stretch report is the only unfaulted false positive.
        n_unfaulted = 100 - metrics.n_faulted_groups
        assert metrics.false_positive_rate_unfaulted == pytest.approx(
            100.0 / n_unfaulted
        )

    def test_tuple_spans_accepted(self):
        result = make_result(100, report_at=(50,))
        metrics = evaluate_run(
            result, timeline(100), [], WINDOW, HOP,
            fault_spans=[(0.049, 0.052)],
        )
        assert metrics.false_positive_rate_faulted > 0.0

    def test_no_fault_spans_leaves_split_unset(self):
        result = make_result(100, report_at=(50,))
        metrics = evaluate_run(result, timeline(100), [], WINDOW, HOP)
        assert metrics.false_positive_rate_unfaulted is None
        assert metrics.false_positive_rate_faulted is None
        assert metrics.n_faulted_groups == 0

    def test_fault_group_mask_covers_group_history(self):
        result = make_result(100, group=20)
        mask = fault_group_mask(
            result, [FaultSpan(kind="drop", t_start=0.010, t_end=0.011)],
            WINDOW, HOP,
        )
        assert mask[11]
        assert mask[25]      # span still inside the 20-hop group history
        assert not mask[45]

    def test_desync_and_unscorable_counting(self):
        n = 20
        result = make_result(n)
        result.reports = [
            AnomalyReport(time=result.times[5], region="loop:A", streak=4),
            AnomalyReport(time=result.times[9], region="loop:A", streak=8,
                          kind="desync"),
        ]
        result.report_indices = [5, 9]
        result.unscorable_flags = np.zeros(n, dtype=bool)
        result.unscorable_flags[2:6] = True
        metrics = evaluate_run(result, timeline(n), [], WINDOW, HOP)
        assert metrics.n_desyncs == 1
        assert metrics.n_unscorable == 4

    def test_degraded_status_propagates(self):
        result = make_result(10)
        result.status = "degraded"
        metrics = evaluate_run(result, timeline(10), [], WINDOW, HOP)
        assert metrics.status == "degraded"
        clean = evaluate_run(make_result(10), timeline(10), [], WINDOW, HOP)
        agg = aggregate_metrics([metrics, clean])
        assert agg.status == "degraded"
