"""Unit and integration tests for the observability layer (repro.obs).

Covers the three sub-layers -- tracing spans, typed metrics, run
manifests -- plus the contracts the rest of the PR relies on: disabled
paths are no-ops, worker exports merge deterministically, and a parallel
experiment's manifest diffs clean against the serial one on everything
except timings/environment.
"""

import json
import threading

import numpy as np
import pytest

from repro import cache as cache_mod
from repro import obs
from repro.experiments.runner import Scale, parallel_map
from repro.experiments.tables_common import run_table

TINY = Scale(train_runs=2, clean_runs=1, injected_runs=1, group_sizes=(8, 16))


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts disabled with empty state and leaves it that way."""
    obs.disable()
    obs.reset()
    cache_mod.configure(None)
    yield
    obs.disable()
    obs.reset()
    cache_mod.configure(None)


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        a = obs.span("x")
        b = obs.span("y")
        assert a is b  # one shared no-op object, nothing recorded
        with a:
            pass
        assert obs.get_collector().spans == []

    def test_nesting_and_parent_indices(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        spans = obs.get_collector().spans
        names = [(s.name, s.parent) for s in spans]
        outer = next(i for i, s in enumerate(spans) if s.name == "outer")
        assert ("outer", -1) in names
        assert all(s.parent == outer for s in spans if s.name == "inner")
        assert all(s.wall_s >= 0 and s.cpu_s >= 0 for s in spans)

    def test_export_merge_rebases_parents(self):
        obs.enable()
        with obs.span("worker-root"):
            with obs.span("worker-child"):
                pass
        exported = obs.export_spans(reset=True)
        assert obs.get_collector().spans == []
        with obs.span("parent"):
            obs.merge_spans(exported)
        spans = obs.get_collector().spans
        by_name = {s.name: s for s in spans}
        parent_idx = spans.index(by_name["parent"])
        root_idx = spans.index(by_name["worker-root"])
        assert by_name["worker-root"].parent == parent_idx
        assert by_name["worker-child"].parent == root_idx

    def test_aggregate_and_tree(self):
        obs.enable()
        for _ in range(3):
            with obs.span("stage"):
                pass
        agg = obs.aggregate_spans()
        assert agg["stage"]["count"] == 3
        assert "stage x3" in obs.format_span_tree()

    def test_exception_still_closes_span(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("boom")
        spans = obs.get_collector().spans
        assert len(spans) == 1 and spans[0].t_start > 0


class TestMetrics:
    def test_disabled_mutations_are_noops(self):
        obs.counter("m", "c").inc(5)
        obs.gauge("m", "g").set(3.0)
        obs.histogram("m", "h", (0, 1, 2)).record(0.5)
        snap = obs.snapshot()
        assert snap["counters"]["m/c"] == 0
        assert snap["gauges"]["m/g"]["set"] is False
        assert snap["histograms"]["m/h"]["count"] == 0

    def test_counter_rejects_negative(self):
        obs.enable()
        with pytest.raises(ValueError):
            obs.counter("m", "c").inc(-1)

    def test_kind_mismatch(self):
        obs.counter("m", "x")
        with pytest.raises(TypeError):
            obs.gauge("m", "x")

    def test_histogram_binning_and_stats(self):
        obs.enable()
        h = obs.histogram("m", "h", (0.0, 1.0, 2.0))
        h.record_many([-0.5, 0.5, 1.5, 5.0, float("nan")])
        d = h.to_dict()
        assert d["bins"] == [1, 1, 1, 1]  # below, [0,1), [1,2), above
        assert d["count"] == 4
        assert d["min"] == -0.5 and d["max"] == 5.0

    def test_snapshot_merge_adds(self):
        obs.enable()
        obs.counter("m", "c").inc(2)
        obs.histogram("m", "h", (0.0, 1.0)).record(0.5)
        snap = obs.snapshot()
        obs.merge_snapshot(snap)
        merged = obs.snapshot()
        assert merged["counters"]["m/c"] == 4
        assert merged["histograms"]["m/h"]["count"] == 2

    def test_merge_creates_missing_instruments(self):
        obs.enable()
        obs.counter("m", "c").inc(1)
        snap = obs.snapshot()
        obs.reset()
        obs.merge_snapshot(snap)
        assert obs.snapshot()["counters"]["m/c"] == 1

    def test_histogram_merge_requires_same_edges(self):
        obs.enable()
        h = obs.histogram("m", "h", (0.0, 1.0))
        with pytest.raises(ValueError):
            h.merge({"edges": [0.0, 2.0], "bins": [0, 0, 0], "count": 0,
                     "sum": 0.0, "min": None, "max": None})


def metric_snap(chunks, depth, edges, bins, lo, hi):
    return {
        "counters": {"m/chunks": chunks},
        "gauges": {"m/depth": {"value": depth or 0.0,
                               "set": depth is not None}},
        "histograms": {"m/lat": {
            "edges": edges, "bins": bins, "count": sum(bins),
            "sum": float(sum(bins)) / 2, "min": lo, "max": hi,
        }},
    }


class TestSnapshotMerges:
    """``merge_snapshots`` (pure) and ``merge_snapshot`` (into the live
    registry) share one set of rules; they differ only on histograms
    whose edges do not match."""

    def test_pure_merge_equals_live_merge(self):
        snaps = [
            metric_snap(3, 2.0, [0.0, 1.0], [1, 2, 0], 0.5, 0.9),
            metric_snap(4, None, [0.0, 1.0], [0, 0, 0], None, None),
            metric_snap(5, 7.0, [0.0, 1.0], [2, 0, 1], -1.0, 3.0),
        ]
        merged = obs.merge_snapshots(snaps)
        assert obs.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}
        obs.enable()
        for snap in snaps:
            obs.merge_snapshot(snap)
        assert obs.snapshot() == merged
        assert merged["counters"]["m/chunks"] == 12
        assert merged["gauges"]["m/depth"] == {"value": 7.0, "set": True}
        lat = merged["histograms"]["m/lat"]
        assert (lat["bins"], lat["count"]) == ([3, 2, 1], 6)
        assert (lat["min"], lat["max"]) == (-1.0, 3.0)

    def test_mismatched_edges_first_wins_in_pure_merge_and_raise_live(self):
        first = metric_snap(1, 1.0, [0.0, 1.0], [1, 1, 0], 0.2, 0.7)
        other = metric_snap(2, 2.0, [0.0, 2.0], [0, 1, 1], 1.5, 2.5)
        merged = obs.merge_snapshots([first, other])
        assert merged["histograms"]["m/lat"] == first["histograms"]["m/lat"]
        assert merged["counters"]["m/chunks"] == 3
        assert first["histograms"]["m/lat"]["bins"] == [1, 1, 0]
        obs.enable()
        obs.merge_snapshot(first)
        with pytest.raises(ValueError, match="different bin edges"):
            obs.merge_snapshot(other)


class TestManifest:
    def test_write_load_roundtrip(self, tmp_path):
        obs.enable()
        with obs.span("stage"):
            obs.counter("m", "c").inc(3)
        manifest = obs.build_manifest("exp", scale=TINY, result={"x": 1.5})
        path = obs.write_manifest(manifest, tmp_path / "m.json")
        loaded = obs.load_manifest(path)
        assert obs.diff_manifests(manifest, loaded, ignore=()) == []

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": {"kind": "other"}}))
        with pytest.raises(ValueError):
            obs.load_manifest(path)

    def test_identity_records_config_and_seeds(self):
        manifest = obs.build_manifest("exp", scale=TINY, jobs=1)
        identity = manifest["identity"]
        assert identity["experiment"] == "exp"
        assert identity["seeds"]["train_seed"] == TINY.train_seed(0)
        assert identity["seeds"]["monitor_seed"] == TINY.monitor_seed(0)
        assert len(identity["config_fingerprint"]) == 64
        # Same config -> same fingerprint; different scale -> different.
        again = obs.build_manifest("exp", scale=TINY, jobs=4)
        assert (
            again["identity"]["config_fingerprint"]
            == identity["config_fingerprint"]
        )
        other = obs.build_manifest(
            "exp", scale=Scale(train_runs=3, clean_runs=1, injected_runs=1)
        )
        assert (
            other["identity"]["config_fingerprint"]
            != identity["config_fingerprint"]
        )

    def test_diff_flags_value_and_structure_changes(self):
        a = obs.build_manifest("exp", scale=TINY, result={"v": 1.0})
        b = json.loads(json.dumps(a))
        b["results"]["result"]["v"] = 2.0
        diffs = obs.diff_manifests(a, b)
        assert len(diffs) == 1 and diffs[0].path == "results.result.v"
        del b["results"]["result"]
        diffs = obs.diff_manifests(a, b)
        assert any("results.result" in d.path for d in diffs)

    def test_diff_tolerates_float_jitter_and_nan(self):
        a = obs.build_manifest("exp", result={"v": 1.0, "n": float("nan")})
        b = json.loads(json.dumps(a))
        b["results"]["result"]["v"] = 1.0 + 1e-12
        assert obs.diff_manifests(a, b) == []

    def test_diff_ignores_timings_and_environment_by_default(self):
        a = obs.build_manifest("exp")
        b = json.loads(json.dumps(a))
        b["environment"]["git_sha"] = "somewhere-else"
        b["timings"]["total_wall_s"] = 123.0
        assert obs.diff_manifests(a, b) == []
        assert obs.diff_manifests(a, b, ignore=()) != []

    def test_jsonify_numpy_and_dataclass(self):
        out = obs.jsonify(
            {"a": np.float64(1.5), "b": np.arange(3), 2: "int-key"}
        )
        assert out == {"2": "int-key", "a": 1.5, "b": [0, 1, 2]}


class TestOverhead:
    def test_span_overhead_estimate_positive_and_isolated(self):
        obs.enable()
        before = len(obs.get_collector().spans)
        per_span = obs.trace.estimate_span_overhead_s(samples=64)
        assert per_span > 0
        assert len(obs.get_collector().spans) == before  # no pollution


def _noop_task(x):  # top-level so the pool can pickle it
    return x


class TestParallelObservability:
    def test_parallel_map_merges_worker_state(self, tmp_path):
        obs.enable()
        cache_mod.configure(tmp_path)
        run_table(TINY, "power", benchmarks=["bitcount"], jobs=2)
        snap = obs.snapshot()
        # Work happened only in workers, yet the parent sees it all.
        assert snap["counters"]["arch.simulator/runs"] > 0
        assert snap["counters"]["repro.cache/puts"] > 0
        assert any(
            s.name == "benchmark.bitcount" for s in obs.get_collector().spans
        )
        cache_mod.disable()

    def test_serial_and_parallel_manifests_diff_clean(self, tmp_path):
        """The tentpole contract: --jobs 2 and serial runs produce
        manifests that differ in nothing but timings/environment."""
        manifests = []
        for jobs, subdir in ((1, "a"), (2, "b")):
            obs.enable()
            obs.reset()
            cache_mod.configure(tmp_path / subdir)
            result = run_table(
                TINY, "power", benchmarks=["bitcount", "basicmath"], jobs=jobs
            )
            cache_mod.disable()
            manifests.append(
                obs.build_manifest(
                    "table2", scale=TINY, result=result, jobs=jobs
                )
            )
        serial, parallel = manifests
        diffs = obs.diff_manifests(serial, parallel)
        assert diffs == [], obs.format_diff(diffs)
        # jobs is recorded -- in the (ignored) environment section.
        assert serial["environment"]["jobs"] == 1
        assert parallel["environment"]["jobs"] == 2

    def test_disabled_parallel_map_ships_plain_results(self):
        assert parallel_map(_noop_task, [1, 2, 3], jobs=2) == [1, 2, 3]
        assert obs.get_collector().spans == []
