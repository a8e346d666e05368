"""EDDIE end-to-end benchmark, host-normalized, with an outside-in trace.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-mixed-128 --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

- ``fleet-mixed-128``: local ``FleetScheduler.feed_many`` rounds over 128
  live sessions on four models, with session churn;
- ``serve-2conn``: a ``repro.cli serve`` process driven by one client
  thread over two lockstep connections;
- ``table2-batch``: the paper's Table 2 protocol, one program per unit;
- ``denoise-stream``: two streaming sessions through the FIR + SVD front
  end on harsh captures.

Every timed unit is paired with a reference slice (``host.py``) and
reported at nominal host speed; raw values are printed beside the
normalized ones. ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` runs the same work untraced and then traced, and prints the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin what the program and the libraries read from the environment at
# import, before numpy or repro is imported: an inherited REPRO_OBS=1
# would measure the instrumented program, REPRO_CACHE_DIR would make
# training a cache lookup, and BLAS worker threads would run during
# reference slices.
PINNED_ENV = {
    "REPRO_OBS": "0",
    "REPRO_CACHE_DIR": "",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import host  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

#: Fresh-process set-ups per untraced run besides the run's own; the
#: reported ``setup_s`` is the median of all of them.
SETUP_PROBES = 2

#: Seconds one set-up probe may take before it is killed.
PROBE_DEADLINE_S = 45

#: Reference slices taken on each side of a set-up; their mean pairs
#: with it.
SETUP_SLICES = 20

END_TO_END = {
    "setup_s": "s",
    "windows_per_s": "windows/s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "rss_peak_mb": "MB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "core.training.train_s": "s",
    "serve.server.ready_s": "s",
    "stream.fleet.self_us_per_window": "us",
    "stream.fleet.churn_ms_per_session": "ms",
    "stream.batchkernel.self_us_per_window": "us",
    "stream.batchkernel.groups_per_dispatch": "count",
    "core.stft.us_per_window": "us",
    "core.peaks.us_per_window": "us",
    "core.monitor.plan_us_per_window": "us",
    "core.monitor.ks_us_per_window": "us",
    "core.stats.ks.rows_per_call": "count",
    "core.monitor.steps_per_window": "count",
    "stream.engine.self_us_per_window": "us",
    "serve.client.encode_us_per_chunk": "us",
    "serve.client.session_open_ms": "ms",
    "serve.server.chunk_ms_mean": "ms",
    "serve.transport_ms_p50": "ms",
    "serve.server.checkpoints_per_chunk": "count",
    "serve.server.bytes_in_per_window": "B",
    "arch.simulate_s": "s",
    "arch.cycles_per_s": "1/s",
    "core.training.build_s": "s",
    "core.monitor.run_signal_s": "s",
    "experiments.self_s": "s",
    "dsp.fir_us_per_window": "us",
    "dsp.svd_us_per_window": "us",
    "host.ref_ms": "ms",
    "obs.tracing_overhead": "1",
    "unattributed_share": "1",
}


def _workloads():
    from wl_denoise import DenoiseStream
    from wl_fleet import FleetMixed
    from wl_serve import ServeTwoConn
    from wl_table2 import Table2Batch

    return {w.name: w for w in (FleetMixed, ServeTwoConn, Table2Batch,
                                DenoiseStream)}


def measure_setup(workload, clock):
    """Import, train and (for serving) start the server, timed from the
    first ``repro`` import; scaled by reference slices on both sides."""
    before = [clock.slice() for _ in range(SETUP_SLICES)]
    t0 = time.perf_counter()
    workload.import_program()
    t1 = time.perf_counter()
    workload.train()
    t2 = time.perf_counter()
    workload.start()
    t3 = time.perf_counter()
    after = [clock.slice() for _ in range(SETUP_SLICES)]
    scale = host.REF_NOMINAL_S / float(np.mean(before + after))
    return {
        "raw_s": t3 - t0,
        "norm_s": (t3 - t0) * scale,
        "import_s": (t1 - t0) * scale,
        "train_s": (t2 - t1) * scale,
        "ready_s": (t3 - t2) * scale,
        "quiet": clock.quiet(),
    }


def _setup_probe(name: str) -> int:
    workload = _workloads()[name]()
    clock = host.RefClock()
    try:
        result = measure_setup(workload, clock)
    finally:
        workload.stop()
    print(json.dumps(result))
    return 0


def _run_probes(name: str):
    samples = []
    for _ in range(SETUP_PROBES):
        # A session of its own, so a probe that hangs is killed together
        # with any server it started.
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=PROBE_DEADLINE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError("set-up probe timed out") from None
        if proc.returncode != 0:
            sys.stderr.write(err)
            raise RuntimeError(f"set-up probe failed ({proc.returncode})")
        samples.append(json.loads(out.strip().splitlines()[-1]))
    return samples


def _end_to_end(phase):
    wall_raw, wall_norm = phase["wall"]
    lat_raw, lat_norm = (np.asarray(a) for a in phase["latency"])

    def ms(values, q):
        return host.quantile(values, q) * 1e3

    e2e = {
        "windows_per_s": (phase["windows"] / wall_norm,
                          phase["windows"] / wall_raw),
        "wall_s": (wall_norm, wall_raw),
        "latency_p50_ms": (ms(lat_norm, 0.5), ms(lat_raw, 0.5)),
    }
    # Tail percentiles are printed for readers but are not end-to-end
    # metrics: on this kind of host they move too much from run to run
    # to hold a regression bound (see README.md).
    info = {"latency_samples": int(len(lat_norm))}
    for q in (0.9, 0.99):
        if round(len(lat_norm) * (1.0 - q), 6) >= 10:
            info[f"latency_p{round(q * 100)}_ms"] = {
                "norm": ms(lat_norm, q), "raw": ms(lat_raw, q)}
    return e2e, info


def _write_spans(name: str, seed: int, tracer: Tracer) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "unit"],
        "spans": tracer.spans,
        "calls": dict(tracer.calls),
        "amounts": dict(tracer.amounts),
    }))
    return str(path.relative_to(ROOT))


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = _workloads()[name]()
    clock = host.RefClock()
    report = {"workload": name, "trace": int(trace)}
    failures = []
    try:
        probes = [] if trace else _run_probes(name)
        own = measure_setup(workload, clock)
        if not all(s["quiet"] for s in probes + [own]):
            failures.append("program was busy during a set-up reference slice")
        workload.prepare(seed)
        if trace:
            metrics, attempted, failed = _traced(
                workload, clock, seconds, own, report, failures, seed)
        else:
            metrics, attempted, failed = _untraced(
                workload, clock, seconds, probes + [own], report, failures)
        if not clock.quiet():
            failures.append(
                f"program was busy during reference slices "
                f"(own violations {clock.self_violations}, "
                f"server busy {clock.server_busy()})"
            )
    finally:
        workload.stop()
    report["host"] = host.host_record(seed, clock)
    report["failures"] = failures
    failed += len(failures)
    print(json.dumps(report, default=float))
    units = PER_LAYER if trace else END_TO_END
    raw = report.get("raw", {})
    for key in units:
        extra = f"   (raw {raw[key]:.6g})" if key in raw else ""
        print(f"{key:42s} {metrics[key]:14.6g} {units[key]}{extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }))
    return 0


def _untraced(workload, clock, seconds, setups, report, failures):
    """The timed phase with nothing installed; end-to-end metrics."""
    phase = workload.phase(seconds, clock, None)
    failures += workload.check(phase)
    e2e, info = _end_to_end(phase)
    setup_norm = [s["norm_s"] for s in setups]
    e2e["setup_s"] = (float(np.median(setup_norm)),
                      float(np.median([s["raw_s"] for s in setups])))
    rss = workload.rss_mb()
    e2e["rss_peak_mb"] = (rss, rss)
    report["raw"] = {k: e2e[k][1] for k in END_TO_END}
    report["setup_samples_s"] = setup_norm
    report.update(info)
    report["detail"] = phase.get("detail", {})
    metrics = {k: e2e[k][0] for k in END_TO_END}
    return metrics, phase["attempted"], phase["failed"]


def _traced(workload, clock, seconds, own, report, failures, seed):
    """Untraced then traced halves of the same work; per-layer metrics."""
    half = seconds / 2.0
    plain = workload.phase(half, clock, None)
    failures += workload.check(plain)
    workload.restart(obs=True)
    tracer = Tracer()
    from repro import obs

    obs.reset()
    obs.enable()
    try:
        traced = workload.phase(half, clock, tracer)
    finally:
        obs.disable()
        tracer.restore()
    failures += workload.check(traced)
    acct = tracer.accounting(traced["timer"].scales())
    failures += acct["problems"]
    layers = workload.layer_metrics(traced, acct, obs.snapshot())
    failures += layers.pop("_failures", [])
    metrics = {k: 0.0 for k in PER_LAYER}
    metrics.update({
        "setup.import_s": own["import_s"],
        "core.training.train_s": own["train_s"],
        "serve.server.ready_s": own["ready_s"],
        "host.ref_ms": clock.median_ms(),
        "obs.tracing_overhead": (
            (traced["wall"][1] - plain["wall"][1]) / plain["wall"][1]
        ),
        "unattributed_share": acct["unattributed_share"],
    })
    unknown = set(layers) - set(metrics)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics {sorted(unknown)}")
    metrics.update(layers)
    if plain["windows"] != traced["windows"]:
        failures.append(
            f"traced run scored {traced['windows']} windows, untraced "
            f"{plain['windows']}"
        )
    report["spans_file"] = _write_spans(report["workload"], seed, tracer)
    report["untraced_wall_s"] = {"raw": plain["wall"][0],
                                 "norm": plain["wall"][1]}
    report["traced_wall_s"] = {"raw": traced["wall"][0],
                               "norm": traced["wall"][1]}
    report["layers"] = acct["layers"]
    return (metrics, plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in _workloads():
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(_workloads())}")
    if args.setup_probe:
        return _setup_probe(args.workload)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
