"""End-to-end pipeline benchmark: parallel harness + artifact cache.

Times the Table-2 protocol (the repo's dominant workload: train, capture
clean/injected/burst runs, monitor) through four configurations --

- serial, no cache          (the pre-optimization baseline)
- parallel, cold cache      (first run on a fresh machine)
- parallel, warm cache      (the steady state of iterating on experiments)
- serial, warm cache        (isolates cache wins; in-process hit stats)

-- and writes ``BENCH_pipeline.json`` at the repo root. Gates: all four
configurations must produce identical rows (``identical_results``), since
a speedup that changes the science is a bug, not a win; and the warm
serial pass must hit the cache (hit rate > 90%). With ``--jobs``
resolving to one worker the "parallel" speedups are recorded as
``not_measurable``. The batched monitor's own throughput is measured
host-normalized by ``perfbench`` (``table2-batch``).

Run as pytest (``REPRO_SCALE=quick`` by default) or directly::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --scale default --jobs auto
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro import cache as cache_mod
from repro.experiments.runner import Scale, resolve_jobs
from repro.experiments.tables_common import run_table
from repro.programs.mibench import BENCHMARKS

from hostinfo import NOT_MEASURABLE, format_speedup, host_record

_REPO_ROOT = Path(__file__).resolve().parents[1]
_OUTPUT = _REPO_ROOT / "BENCH_pipeline.json"


def _rows_key(result):
    return [
        (r.name, r.latency_ms, r.false_positives, r.accuracy, r.coverage,
         r.detected_loop, r.detected_burst)
        for r in result.rows
    ]


def _timed_table(scale, benchmarks, jobs):
    start = time.perf_counter()
    result = run_table(scale, "power", benchmarks=benchmarks, jobs=jobs)
    return time.perf_counter() - start, result


def run_benchmark(scale_name="quick", jobs="auto", benchmarks=None):
    scale = {"quick": Scale.quick, "default": Scale.default,
             "paper": Scale.paper}[scale_name]()
    benchmarks = benchmarks or list(BENCHMARKS)
    n_workers = resolve_jobs(jobs)

    cache_mod.disable()
    t_serial, baseline = _timed_table(scale, benchmarks, jobs=1)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cache_mod.configure(cache_dir)
        t_cold, cold = _timed_table(scale, benchmarks, jobs=jobs)
        t_warm, warm = _timed_table(scale, benchmarks, jobs=jobs)
        # Serial warm pass: every artifact loads in-process, so this
        # cache instance's stats show the real hit rate.
        cache_mod.configure(cache_dir)
        t_serial_warm, serial_warm = _timed_table(scale, benchmarks, jobs=1)
        stats = cache_mod.get_cache().stats
        cache_stats = {
            "hits": stats.hits,
            "misses": stats.misses,
            "puts": stats.puts,
            "hit_rate": stats.hit_rate,
        }
    cache_mod.disable()

    identical = (
        _rows_key(cold) == _rows_key(baseline)
        and _rows_key(warm) == _rows_key(baseline)
        and _rows_key(serial_warm) == _rows_key(baseline)
    )
    # One worker runs the "parallel" passes serially: the ratio would
    # measure pool overhead, not parallelism.
    parallel = n_workers > 1
    report = {
        "benchmark": "table2-pipeline",
        "scale": scale_name,
        "host": host_record(),
        "jobs": n_workers,
        "benchmarks": benchmarks,
        "timings_s": {
            "serial_uncached": t_serial,
            "parallel_cold": t_cold,
            "parallel_warm": t_warm,
            "serial_warm": t_serial_warm,
        },
        "speedups": {
            "parallel_cold": t_serial / t_cold if parallel else NOT_MEASURABLE,
            "parallel_warm": t_serial / t_warm if parallel else NOT_MEASURABLE,
            "serial_warm": t_serial / t_serial_warm,
        },
        "cache": cache_stats,
        "identical_results": identical,
    }
    _OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _gate_failures(report):
    """Every gate of this benchmark that the report fails."""
    checks = [
        (report["identical_results"],
         "parallel/cached runs diverged from the serial uncached baseline"),
        (report["cache"]["hit_rate"] > 0.9,
         f"warm serial cache hit rate {report['cache']['hit_rate']:.0%} "
         f"<= 90%"),
    ]
    return [message for ok, message in checks if not ok]


def _format(report):
    timings = report["timings_s"]
    speedups = report["speedups"]
    lines = [
        f"pipeline benchmark (scale={report['scale']}, "
        f"jobs={report['jobs']}, {len(report['benchmarks'])} benchmarks, "
        f"{report['host']['cores']} cores)",
        f"  serial, no cache   : {timings['serial_uncached']:8.2f} s   1.00x",
        f"  parallel, cold     : {timings['parallel_cold']:8.2f} s   "
        f"{format_speedup(speedups['parallel_cold'])}",
        f"  parallel, warm     : {timings['parallel_warm']:8.2f} s   "
        f"{format_speedup(speedups['parallel_warm'])}",
        f"  serial, warm       : {timings['serial_warm']:8.2f} s   "
        f"{format_speedup(speedups['serial_warm'])}",
        f"  cache hit rate     : {report['cache']['hit_rate']:.0%} "
        f"({report['cache']['hits']} hits / {report['cache']['misses']} misses)",
        f"  identical results  : {report['identical_results']}",
        f"  -> {_OUTPUT}",
    ]
    return "\n".join(lines)


def test_pipeline_benchmark(scale, show):
    import os

    scale_name = os.environ.get("REPRO_SCALE", "quick")
    report = run_benchmark(scale_name=scale_name, jobs="auto")
    show(_format(report))
    failures = _gate_failures(report)
    assert not failures, failures


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="quick",
                        choices=("quick", "default", "paper"))
    parser.add_argument("--jobs", default="auto")
    parser.add_argument("--benchmarks", nargs="*", default=None)
    args = parser.parse_args()
    result = run_benchmark(
        scale_name=args.scale, jobs=args.jobs, benchmarks=args.benchmarks
    )
    print(_format(result))
    failures = _gate_failures(result)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    sys.exit(1 if failures else 0)
