"""Command-line interface: ``eddie <subcommand>``.

Subcommands:

- ``train``      train a detector on a built-in benchmark, save the model
- ``monitor``    run clean/injected monitoring runs against a saved model
- ``stream``     feed captures chunk-by-chunk through the streaming fleet
- ``calibrate``  adapt a trained model to a target device variant from a
  short unlabeled capture, without retraining
- ``publish``    publish a trained model into a serving registry
- ``serve``      serve EM monitoring over TCP from a registry
- ``client``     stream captures to a running ``eddie serve``
- ``experiment`` regenerate one of the paper's tables/figures
- ``obs``        work with run manifests (``obs diff A B``)
- ``list``       list benchmarks and experiments

Examples::

    eddie train bitcount -o bitcount.npz --runs 8
    eddie train sha -o sha_denoised.npz --denoise
    eddie monitor bitcount bitcount.npz --inject-loop --seed 7
    eddie stream bitcount bitcount.npz --sessions 8 --chunk-samples 4096
    eddie calibrate sha.npz --capture target_cap.npz -o sha_target.npz
    eddie publish bitcount.npz --registry runs/registry
    eddie calibrate sha@latest --capture cap.npz --registry runs/registry
    eddie serve --registry runs/registry --port 7453
    eddie client bitcount@latest --port 7453 --benchmark bitcount
    eddie experiment table1 --scale quick
    eddie experiment table2 --trace --manifest-dir runs/
    eddie obs diff runs/table2_quick.json other/table2_quick.json
    eddie list
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from repro.arch.config import CoreConfig
from repro.core.detector import Eddie, TrainedDetector
from repro.core.model import EddieConfig
from repro.em.scenario import EmScenario
from repro.errors import ConfigurationError, ReproError
from repro.experiments.runner import Scale
from repro.programs.mibench import BENCHMARKS, INJECTION_LOOPS
from repro.programs.workloads import injection_mix
from repro.serialize import load_model, save_model

__all__ = ["main"]

_EXPERIMENTS: Dict[str, str] = {
    "fig1": "repro.experiments.fig1_spectrum",
    "fig2": "repro.experiments.fig2_distribution",
    "fig3": "repro.experiments.fig3_buffer_size",
    "table1": "repro.experiments.table1_iot",
    "table2": "repro.experiments.table2_sim",
    "fig4": "repro.experiments.fig4_inorder_ooo",
    "anova": "repro.experiments.anova_architecture",
    "fig5": "repro.experiments.fig5_contamination",
    "fig6": "repro.experiments.fig6_injection_size",
    "fig7": "repro.experiments.fig7_contamination_latency",
    "fig8": "repro.experiments.fig8_burst_size",
    "fig9": "repro.experiments.fig9_confidence",
    "fig10": "repro.experiments.fig10_instruction_type",
}

_SCALES: Dict[str, Callable[[], Scale]] = {
    "quick": Scale.quick,
    "default": Scale.default,
    "paper": Scale.paper,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eddie",
        description="EDDIE (ISCA 2017) reproduction: EM-based detection of "
                    "deviations in program execution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a detector on a benchmark")
    train.add_argument("benchmark", choices=sorted(BENCHMARKS))
    train.add_argument("-o", "--output", required=True, help="model file (.npz)")
    train.add_argument("--runs", type=int, default=8)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--source", choices=("em", "power"), default="em")
    train.add_argument("--denoise", action="store_true",
                       help="attach the noisy-environment front end "
                            "(FIR band gate + SVD subspace denoiser, the "
                            "bench_denoise 'denoised' tier)")
    train.add_argument("--frontend", default=None, metavar="JSON",
                       help="preprocessing chain as a JSON stage list, "
                            "e.g. '[{\"type\": \"fir_gate\", "
                            "\"cutoff\": 0.5}]' "
                            "(types: agc, fir_gate, svd_denoiser)")
    train.add_argument("--clock", type=float, default=1e8,
                       help="core clock in Hz (scaled-down default)")

    monitor = sub.add_parser("monitor", help="monitor runs against a model")
    monitor.add_argument("benchmark", choices=sorted(BENCHMARKS))
    monitor.add_argument("model", help="model file from `eddie train`")
    monitor.add_argument("--runs", type=int, default=3)
    monitor.add_argument("--seed", type=int, default=1000)
    monitor.add_argument("--source", choices=("em", "power"), default="em")
    monitor.add_argument("--clock", type=float, default=1e8)
    monitor.add_argument("--inject-loop", action="store_true",
                         help="inject 4 int + 4 mem instructions into the "
                              "benchmark's hot loop")
    monitor.add_argument("--contamination", type=float, default=1.0)
    _add_fault_args(monitor)
    monitor.add_argument("--quality-gating", action="store_true",
                         help="skip acquisition-corrupted windows as "
                              "unscorable and resynchronize after gaps "
                              "instead of reporting them as anomalies")

    experiment = sub.add_parser(
        "experiment", help="regenerate a table/figure of the paper"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    experiment.add_argument("--jobs", default="1", metavar="N|auto",
                            help="fan independent runs over N worker "
                                 "processes ('auto' = one per CPU); results "
                                 "are identical to --jobs 1")
    experiment.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="content-addressed artifact cache for "
                                 "trained models and simulated traces "
                                 "(default: $REPRO_CACHE_DIR if set)")
    experiment.add_argument("--cache-max-bytes", type=int, default=None,
                            help="evict least-recently-used cache entries "
                                 "beyond this size")
    experiment.add_argument("--no-cache", action="store_true",
                            help="disable the artifact cache even if "
                                 "$REPRO_CACHE_DIR is set")
    experiment.add_argument("--trace", action="store_true",
                            help="enable observability and print the span "
                                 "tree and metric summary after the run")
    experiment.add_argument("--manifest-dir", default=None, metavar="DIR",
                            help="enable observability and write a JSON run "
                                 "manifest (config fingerprint, seeds, git "
                                 "SHA, timings, metrics) into DIR")

    obs_cmd = sub.add_parser(
        "obs", help="work with observability artifacts (run manifests)"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_diff = obs_sub.add_parser(
        "diff", help="structurally diff two run manifests"
    )
    obs_diff.add_argument("manifest_a", help="first manifest JSON file")
    obs_diff.add_argument("manifest_b", help="second manifest JSON file")
    obs_diff.add_argument("--all", action="store_true",
                          help="also compare the timings and environment "
                               "sections (ignored by default: they "
                               "legitimately differ between reruns)")
    obs_diff.add_argument("--rtol", type=float, default=1e-9,
                          help="relative tolerance for numeric comparisons "
                               "(absorbs float summation-order jitter "
                               "between serial and parallel runs)")
    obs_stats = obs_sub.add_parser(
        "stats",
        help="print a serving STATS snapshot (fleet-wide when pointed "
             "at a shard router)",
    )
    obs_stats.add_argument("--host", default="127.0.0.1")
    obs_stats.add_argument("--port", type=int, default=7453)
    obs_stats.add_argument("--json", action="store_true",
                           help="dump the raw merged payload instead of "
                                "the summary lines")

    capture = sub.add_parser(
        "capture", help="capture EM traces of a benchmark to .npz files"
    )
    capture.add_argument("benchmark", choices=sorted(BENCHMARKS))
    capture.add_argument("-o", "--output-prefix", required=True,
                         help="trace files are written as <prefix><seed>.npz")
    capture.add_argument("--runs", type=int, default=1)
    capture.add_argument("--seed", type=int, default=0)
    capture.add_argument("--clock", type=float, default=1e8)
    capture.add_argument("--inject-loop", action="store_true")
    capture.add_argument("--contamination", type=float, default=1.0)
    _add_fault_args(capture)

    monitor_trace = sub.add_parser(
        "monitor-trace", help="monitor previously captured trace files"
    )
    monitor_trace.add_argument("model", help="model file from `eddie train`")
    monitor_trace.add_argument("traces", nargs="+", help="trace .npz files")
    monitor_trace.add_argument("--quality-gating", action="store_true",
                               help="skip acquisition-corrupted windows as "
                                    "unscorable (see `eddie monitor`)")

    stream = sub.add_parser(
        "stream",
        help="monitor captures chunk-by-chunk through the streaming engine",
    )
    stream.add_argument("benchmark", choices=sorted(BENCHMARKS))
    stream.add_argument("model", help="model file from `eddie train`")
    stream.add_argument("--sessions", type=int, default=4,
                        help="concurrent fleet sessions (one capture each)")
    stream.add_argument("--chunk-samples", type=int, default=4096,
                        help="samples per chunk fed to each session")
    stream.add_argument("--runs", type=int, default=1,
                        help="captures per session, fed back to back")
    stream.add_argument("--seed", type=int, default=1000)
    stream.add_argument("--clock", type=float, default=1e8)
    stream.add_argument("--inject-loop", action="store_true",
                        help="inject into the hot loop (see `eddie monitor`)")
    stream.add_argument("--contamination", type=float, default=1.0)
    stream.add_argument("--early-exit", action="store_true",
                        help="stop each session at its first anomaly")
    stream.add_argument("--quality-gating", action="store_true",
                        help="causal acquisition-quality gating per window")

    calibrate = sub.add_parser(
        "calibrate",
        help="adapt a trained model to a target device from a short "
             "unlabeled capture (train once, deploy many)",
    )
    calibrate.add_argument("model",
                           help="model .npz file, or a registry spec when "
                                "--registry is given")
    calibrate.add_argument("--capture", required=True, metavar="TRACE",
                           help="short unlabeled capture of the target "
                                "device (`eddie capture` .npz)")
    calibrate.add_argument("-o", "--output", default=None, metavar="FILE",
                           help="write the derived model to FILE")
    calibrate.add_argument("--registry", default=None, metavar="DIR",
                           help="resolve MODEL from this registry and "
                                "publish the derived model back as "
                                "name@N+cal:FP")
    calibrate.add_argument("--variant", default="",
                           help="free-form target-device description, "
                                "recorded in the calibration provenance")

    publish = sub.add_parser(
        "publish", help="publish a trained model into a serving registry"
    )
    publish.add_argument("model", help="model file from `eddie train`")
    publish.add_argument("--registry", required=True, metavar="DIR",
                         help="registry directory (created if missing)")
    publish.add_argument("--name", default=None,
                         help="model name (default: the trained program)")
    publish.add_argument("--version", type=int, default=None,
                         help="explicit version (default: latest + 1)")

    serve = sub.add_parser(
        "serve", help="serve EM monitoring over TCP from a model registry"
    )
    serve.add_argument("--registry", required=True, metavar="DIR",
                       help="registry directory from `eddie publish`")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7453)
    serve.add_argument("--max-sessions", type=int, default=64,
                       help="fleet capacity; OPENs beyond it are shed "
                            "with a typed at_capacity error")
    serve.add_argument("--evict-idle", action="store_true",
                       help="admit over-capacity sessions by evicting the "
                            "least-recently-fed one instead of shedding "
                            "the newcomer")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="per-session bound on decoded-but-unscored "
                            "chunks (ingestion backpressure)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes behind a shard router; 1 "
                            "runs a single in-process server, N>1 "
                            "places sessions by consistent hash and "
                            "scales the DSP across cores")
    serve.add_argument("--threads", type=int, default=4,
                       help="DSP thread-pool size per worker")
    serve.add_argument("--checkpoint-interval", type=int, default=16,
                       metavar="CHUNKS",
                       help="checkpoint each session to disk every N "
                            "chunks so dropped clients can RESUME "
                            "(0 disables checkpointing)")
    serve.add_argument("--spill-dir", default=None, metavar="DIR",
                       help="where session checkpoints are spilled "
                            "(default: <registry>/.sessions); point "
                            "successive servers at the same registry and "
                            "spill dir to survive restarts")

    client = sub.add_parser(
        "client", help="stream captures to a running `eddie serve`"
    )
    client.add_argument("model_spec",
                        help="registry spec: name, name@N, name@latest, "
                             "or fp:HEXPREFIX")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7453)
    client.add_argument("--trace", action="append", default=[],
                        metavar="FILE",
                        help="captured trace .npz to replay (repeatable); "
                             "mutually exclusive with --benchmark")
    client.add_argument("--benchmark", choices=sorted(BENCHMARKS),
                        default=None,
                        help="synthesize captures to stream instead of "
                             "replaying trace files")
    client.add_argument("--runs", type=int, default=1,
                        help="captures to synthesize with --benchmark")
    client.add_argument("--seed", type=int, default=1000)
    client.add_argument("--clock", type=float, default=1e8)
    client.add_argument("--inject-loop", action="store_true",
                        help="inject into the hot loop (see `eddie monitor`)")
    client.add_argument("--contamination", type=float, default=1.0)
    client.add_argument("--chunk-samples", type=int, default=4096)
    client.add_argument("--window", type=int, default=8,
                        help="chunks kept in flight before blocking on "
                             "REPORTs")
    client.add_argument("--connect-timeout", type=float, default=10.0,
                        metavar="SECONDS",
                        help="deadline for dialing (and redialing) the "
                             "server")
    client.add_argument("--io-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="deadline for each blocking send/recv once "
                             "connected")
    client.add_argument("--no-reconnect", action="store_true",
                        help="fail on a dropped connection instead of "
                             "resuming the session from the server's "
                             "last checkpoint")
    client.add_argument("--stats", action="store_true",
                        help="print the server's STATS snapshot afterwards")

    inspect = sub.add_parser(
        "inspect", help="show a benchmark's region-level state machine"
    )
    inspect.add_argument("benchmark", choices=sorted(BENCHMARKS))

    sub.add_parser("list", help="list benchmarks and experiments")
    return parser


_FAULT_KINDS = ("none", "drops", "clipping", "mixed", "full")


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", choices=_FAULT_KINDS, default="none",
                        help="inject acquisition faults into the capture: "
                             "sample-drop gaps, saturation bursts, both, or "
                             "the full mix (plus gain steps, impulses, and "
                             "dead stretches)")
    parser.add_argument("--fault-rate", type=float, default=200.0,
                        help="mean fault events per second of capture")


def _make_fault_injector(kind: str, rate: float):
    """Build the FaultInjector behind --faults/--fault-rate (None for none)."""
    if kind == "none":
        return None
    from repro.em.faults import (
        DeadChannelFault,
        FaultInjector,
        GainStepFault,
        ImpulseNoiseFault,
        SampleDropFault,
        SaturationFault,
    )

    if rate <= 0:
        raise ConfigurationError(f"--fault-rate must be positive, got {rate}")
    faults = []
    if kind in ("drops", "mixed", "full"):
        faults.append(SampleDropFault(rate_per_s=rate))
    if kind in ("clipping", "mixed", "full"):
        faults.append(SaturationFault(rate_per_s=rate))
    if kind == "full":
        faults.extend([
            GainStepFault(rate_per_s=rate / 4),
            ImpulseNoiseFault(rate_per_s=rate),
            DeadChannelFault(rate_per_s=rate / 10),
        ])
    return FaultInjector(faults=tuple(faults))


def _make_source(benchmark: str, source: str, clock: float, faults=None):
    program = BENCHMARKS[benchmark]()
    if source == "em":
        return EmScenario.build(
            program, core=CoreConfig.iot_inorder(clock), faults=faults
        )
    from repro.arch.simulator import Simulator

    return Simulator(program, CoreConfig.sim_ooo(clock))


def _parse_frontend(args: argparse.Namespace):
    """The preprocessing chain requested by ``--denoise``/``--frontend``."""
    if args.denoise and args.frontend:
        raise ConfigurationError(
            "--denoise and --frontend are mutually exclusive; put the "
            "full chain in --frontend instead"
        )
    if args.denoise:
        from repro.dsp import FirGateStage, SvdDenoiser

        return (
            FirGateStage(cutoff=0.5),
            SvdDenoiser(block_samples=2048, hankel_window=64, rank=8),
        )
    if args.frontend:
        import json

        from repro.dsp import stage_from_dict

        try:
            entries = json.loads(args.frontend)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"--frontend is not valid JSON: {error}"
            ) from None
        if not isinstance(entries, list):
            raise ConfigurationError(
                "--frontend must be a JSON list of stage objects"
            )
        return tuple(stage_from_dict(entry) for entry in entries)
    return ()


def _cmd_train(args: argparse.Namespace) -> int:
    program = BENCHMARKS[args.benchmark]()
    core = (
        CoreConfig.iot_inorder(args.clock)
        if args.source == "em"
        else CoreConfig.sim_ooo(args.clock)
    )
    frontend = _parse_frontend(args)
    config = EddieConfig(frontend=frontend) if frontend else None
    detector = Eddie(config).train(
        program, core=core, runs=args.runs, seed=args.seed, source=args.source
    )
    save_model(detector.model, args.output)
    print(f"trained {args.benchmark} on {args.runs} runs -> {args.output}")
    if frontend:
        chain = " -> ".join(stage.stage_type for stage in frontend)
        print(f"  frontend: {chain}")
    for name, profile in detector.model.profiles.items():
        print(
            f"  {name:32s} refs={profile.n_reference:5d} "
            f"peaks={profile.num_peaks:2d} n={profile.group_size}"
        )
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    if model.program_name != args.benchmark:
        print(
            f"warning: model was trained on {model.program_name!r}, "
            f"monitoring {args.benchmark!r}",
            file=sys.stderr,
        )
    faults = _make_fault_injector(args.faults, args.fault_rate)
    if faults is not None and args.source != "em":
        raise ConfigurationError(
            "--faults models the EM acquisition chain; use --source em"
        )
    if args.quality_gating:
        model = model.with_quality_gating(True)
    source = _make_source(args.benchmark, args.source, args.clock, faults)
    detector = TrainedDetector(model, source=source)
    simulator = source.simulator if isinstance(source, EmScenario) else source
    if args.inject_loop:
        simulator.set_loop_injection(
            INJECTION_LOOPS[args.benchmark], injection_mix(4, 4),
            args.contamination,
        )
    for k in range(args.runs):
        report = detector.monitor(seed=args.seed + k)
        metrics = report.metrics
        latency = (
            f"{metrics.detection_latency * 1e3:.2f} ms"
            if metrics.detection_latency is not None
            else "-"
        )
        line = (
            f"run {k}: reports={len(report.result.reports)} "
            f"detected={metrics.detected} latency={latency} "
            f"FP={metrics.false_positive_rate:.2f}% "
            f"coverage={metrics.coverage:.1f}%"
        )
        if faults is not None or args.quality_gating:
            fp_unfaulted = metrics.false_positive_rate_unfaulted
            line += (
                f" faulted-groups={metrics.n_faulted_groups}"
                f" unscorable={metrics.n_unscorable}"
                f" desyncs={metrics.n_desyncs}"
                f" status={metrics.status}"
            )
            if fp_unfaulted is not None:
                line += f" FP(unfaulted)={fp_unfaulted:.2f}%"
        print(line)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    from repro import cache as artifact_cache
    from repro import obs
    from repro.experiments.runner import resolve_jobs

    if args.no_cache:
        if args.cache_dir is not None:
            raise ConfigurationError("--no-cache conflicts with --cache-dir")
        artifact_cache.disable()
    elif args.cache_dir is not None:
        artifact_cache.configure(args.cache_dir, max_bytes=args.cache_max_bytes)

    observe = args.trace or args.manifest_dir is not None
    if observe:
        obs.enable()
        obs.reset()

    jobs = args.jobs if args.jobs == "auto" else resolve_jobs(args.jobs)
    module = importlib.import_module(_EXPERIMENTS[args.name])
    scale = _SCALES[args.scale]()
    result = module.run(scale, jobs=jobs)
    print(module.format(result))
    cache = artifact_cache.get_cache()
    if cache is not None:
        stats = cache.stats
        print(
            f"[cache] dir={cache.dir} hits={stats.hits} "
            f"misses={stats.misses} puts={stats.puts} "
            f"hit-rate={stats.hit_rate:.0%}",
            file=sys.stderr,
        )
    if observe:
        if args.trace:
            print("\n[trace]", file=sys.stderr)
            print(obs.format_span_tree(), file=sys.stderr)
        if args.manifest_dir is not None:
            cache_info = None
            if cache is not None:
                cache_info = {"max_bytes": cache.max_bytes}
            manifest = obs.build_manifest(
                args.name,
                scale=scale,
                result=result,
                jobs=jobs,
                scale_name=args.scale,
                cache_info=cache_info,
            )
            path = obs.manifest_path(args.manifest_dir, args.name, args.scale)
            obs.write_manifest(manifest, path)
            print(f"[manifest] {path}", file=sys.stderr)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "stats":
        return _cmd_obs_stats(args)
    from repro import obs

    a = obs.load_manifest(args.manifest_a)
    b = obs.load_manifest(args.manifest_b)
    ignore = () if args.all else obs.DEFAULT_DIFF_IGNORE
    diffs = obs.diff_manifests(a, b, ignore=ignore, rtol=args.rtol)
    if not diffs:
        note = "" if args.all else " (timings/environment ignored)"
        print(f"manifests agree{note}")
        return 0
    print(obs.format_diff(diffs))
    return 1


def _cmd_obs_stats(args: argparse.Namespace) -> int:
    """Print a server's (or a shard router's merged) STATS snapshot."""
    import json

    from repro.serve import EddieClient

    with EddieClient(args.host, args.port) as cli:
        stats = cli.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    router = stats.get("router")
    if router is not None:
        print(
            f"cluster: {router['workers_responding']}"
            f"/{router['workers_configured']} workers responding, "
            f"{router['redirects']} redirects, "
            f"{router['placement_failures']} placement failures"
        )
        for worker in stats.get("workers", []):
            print(
                f"  worker {worker.get('worker')}: "
                f"open={worker['sessions_open']}/{worker['max_sessions']} "
                f"chunks={worker['chunks']} windows={worker['windows']} "
                f"checkpoints={worker['checkpoints']}"
            )
    print(
        f"sessions: open={stats['sessions_open']}"
        f"/{stats['max_sessions']} opened={stats['sessions_opened']} "
        f"closed={stats['sessions_closed']} shed={stats['sessions_shed']} "
        f"evicted={stats['sessions_evicted']} "
        f"resumed={stats['sessions_resumed']}"
    )
    print(
        f"work: chunks={stats['chunks']} windows={stats['windows']} "
        f"reports={stats['reports']} checkpoints={stats['checkpoints']} "
        f"bytes_in={stats['bytes_in']} bytes_out={stats['bytes_out']}"
    )
    print(
        f"state: draining={stats['draining']} "
        f"protocol_errors={stats['protocol_errors']}"
    )
    for session in stats.get("sessions", []):
        worker = session.get("worker")
        where = f" (worker {worker})" if worker is not None else ""
        print(
            f"  session {session.get('session')}{where}: "
            f"model {session.get('model')}"
        )
    return 0


def _cmd_capture(args: argparse.Namespace) -> int:
    from repro.serialize import save_trace

    scenario = EmScenario.build(
        BENCHMARKS[args.benchmark](), core=CoreConfig.iot_inorder(args.clock),
        faults=_make_fault_injector(args.faults, args.fault_rate),
    )
    if args.inject_loop:
        scenario.simulator.set_loop_injection(
            INJECTION_LOOPS[args.benchmark], injection_mix(4, 4),
            args.contamination,
        )
    for k in range(args.runs):
        seed = args.seed + k
        trace = scenario.capture(seed=seed)
        path = f"{args.output_prefix}{seed}.npz"
        save_trace(trace, path)
        print(
            f"captured seed {seed}: {trace.iq.duration * 1e3:.2f} ms, "
            f"{len(trace.iq)} IQ samples, "
            f"{trace.injected_instr_count} injected instrs, "
            f"{len(trace.fault_spans)} fault spans -> {path}"
        )
    return 0


def _cmd_monitor_trace(args: argparse.Namespace) -> int:
    from repro.serialize import load_trace

    model = load_model(args.model)
    if args.quality_gating:
        model = model.with_quality_gating(True)
    detector = TrainedDetector(model, source=None)
    for path in args.traces:
        trace = load_trace(path)
        report = detector.monitor(trace)
        metrics = report.metrics
        latency = (
            f"{metrics.detection_latency * 1e3:.2f} ms"
            if metrics.detection_latency is not None
            else "-"
        )
        line = (
            f"{path}: reports={len(report.result.reports)} "
            f"detected={metrics.detected} latency={latency} "
            f"FP={metrics.false_positive_rate:.2f}%"
        )
        if trace.fault_spans or args.quality_gating:
            line += (
                f" faulted-groups={metrics.n_faulted_groups}"
                f" unscorable={metrics.n_unscorable}"
                f" desyncs={metrics.n_desyncs}"
                f" status={metrics.status}"
            )
        print(line)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import itertools

    from repro.stream import FleetScheduler

    model = load_model(args.model)
    if model.program_name != args.benchmark:
        print(
            f"warning: model was trained on {model.program_name!r}, "
            f"streaming {args.benchmark!r}",
            file=sys.stderr,
        )
    if args.quality_gating:
        model = model.with_quality_gating(True)
    if args.sessions < 1:
        raise ConfigurationError(
            f"--sessions must be >= 1, got {args.sessions}"
        )
    scenario = _make_source(args.benchmark, "em", args.clock)
    if args.inject_loop:
        scenario.simulator.set_loop_injection(
            INJECTION_LOOPS[args.benchmark], injection_mix(4, 4),
            args.contamination,
        )
    fleet = FleetScheduler(
        max_sessions=args.sessions, early_exit=args.early_exit
    )
    for s in range(args.sessions):
        # The seed list is materialized eagerly: a genexpr over `base + k`
        # would close over the loop variable and stream every session from
        # the last session's seeds.
        seeds = [args.seed + s * args.runs + k for k in range(args.runs)]
        source = itertools.chain.from_iterable(
            scenario.capture_chunks(args.chunk_samples, seed=sd)
            for sd in seeds
        )
        fleet.add_session(f"dev-{s:03d}", model, source=source)
    rounds = 0
    while fleet.step_round():
        rounds += 1
    summaries = fleet.summaries
    for session_id in sorted(summaries):
        s = summaries[session_id]
        print(
            f"{session_id}: chunks={s.chunks} windows={s.windows} "
            f"reports={len(s.reports)} detected={s.detected} "
            f"unscorable={s.unscorable_fraction:.1%} status={s.status}"
            + (" (early exit)" if s.stopped_early else "")
        )
    detected = sum(1 for s in summaries.values() if s.detected)
    print(
        f"fleet: {len(summaries)} sessions, {rounds} dispatch rounds, "
        f"{detected} detected"
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.serialize import load_trace, save_model
    from repro.transfer import calibrate_model

    if args.output is None and args.registry is None:
        print(
            "error: nowhere to put the derived model; pass -o FILE "
            "and/or --registry DIR",
            file=sys.stderr,
        )
        return 2
    registry = base_entry = None
    if args.registry is not None:
        from repro.serve import ModelRegistry

        registry = ModelRegistry(args.registry)
        model, base_entry = registry.load(args.model)
    else:
        model = load_model(args.model)
    capture = load_trace(args.capture)
    result = calibrate_model(model, capture, variant=args.variant)
    print(result.report.format())
    if registry is not None:
        entry = registry.publish_derived(result.model, base_entry)
        print(
            f"published {entry.spec} (fp:{entry.fingerprint[:12]}) "
            f"-> {entry.path}"
        )
    if args.output is not None:
        save_model(result.model, args.output)
        print(f"saved derived model -> {args.output}")
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from repro.serve import ModelRegistry

    registry = ModelRegistry(args.registry)
    entry = registry.publish(
        load_model(args.model), args.name, version=args.version
    )
    print(
        f"published {entry.spec} (fp:{entry.fingerprint[:12]}) "
        f"-> {entry.path}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from repro.serve import EddieServer, ModelRegistry, ServerConfig

    registry = ModelRegistry(args.registry)
    entries = registry.list_entries()
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        evict_idle=args.evict_idle,
        queue_depth=args.queue_depth,
        worker_threads=args.threads,
        checkpoint_interval=args.checkpoint_interval,
        spill_dir=args.spill_dir,
    )
    if args.workers > 1:
        return _serve_sharded(args, registry, entries, config)

    async def _run() -> None:
        server = EddieServer(registry, config=config)
        await server.start()
        host, port = server.address
        print(
            f"serving on {host}:{port} -- {len(entries)} published "
            f"model(s) in {registry.root}, max {config.max_sessions} "
            f"sessions ({'evict-idle' if config.evict_idle else 'shed'} "
            f"at capacity), checkpoints every "
            f"{config.checkpoint_interval or 'never'} chunk(s) "
            f"-> {server.spill_dir}"
        )
        for entry in entries:
            print(f"  {entry.spec:32s} fp:{entry.fingerprint[:12]}")
        # SIGTERM/SIGINT trigger a graceful drain: every live session is
        # checkpointed and suspended, so clients resume against the next
        # server pointed at the same registry + spill dir.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("draining...", file=sys.stderr)
        final = await server.drain()
        await server.stop()
        print(
            f"drained: {final['sessions_suspended']} session(s) "
            f"suspended for resume, {final['checkpoints']} checkpoint(s) "
            f"written",
            file=sys.stderr,
        )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("stopped", file=sys.stderr)
    return 0


def _serve_sharded(args, registry, entries, config) -> int:
    """`eddie serve --workers N`: worker processes behind a shard router.

    Each worker is a full :class:`EddieServer` in its own process with
    its own spill namespace; the router at (host, port) places sessions
    by consistent hash. SIGTERM/SIGINT drain every worker gracefully
    (sessions checkpoint and suspend, clients RESUME against a restarted
    cluster at the same registry).
    """
    import dataclasses
    import signal
    import threading

    from repro.serve import ShardCluster

    # The router owns the public port; workers bind ephemeral ports.
    worker_config = dataclasses.replace(config, port=0)
    cluster = ShardCluster(
        registry,
        workers=args.workers,
        config=worker_config,
        host=args.host,
        router_port=args.port,
        spill_root=args.spill_dir,
    )
    cluster.start()
    try:
        host, port = cluster.address
        print(
            f"serving on {host}:{port} -- {args.workers} worker "
            f"process(es) behind a shard router, {len(entries)} "
            f"published model(s) in {registry.root}, "
            f"{config.max_sessions} sessions/worker, checkpoints every "
            f"{config.checkpoint_interval or 'never'} chunk(s) "
            f"-> {cluster.spill_root}"
        )
        for worker_id, whost, wport in cluster.worker_addresses:
            print(f"  worker {worker_id}: {whost}:{wport}")
        for entry in entries:
            print(f"  {entry.spec:32s} fp:{entry.fingerprint[:12]}")
        stop = threading.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, lambda *_: stop.set())
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
        print("draining workers...", file=sys.stderr)
        for worker_id, _, _ in cluster.worker_addresses:
            cluster.drain_worker(worker_id)
        print("drained", file=sys.stderr)
    finally:
        cluster.stop()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.serve import EddieClient

    if bool(args.trace) == (args.benchmark is not None):
        raise ConfigurationError(
            "give exactly one of --trace or --benchmark"
        )
    if args.trace:
        from repro.serialize import load_trace

        captures = [(path, load_trace(path)) for path in args.trace]
    else:
        scenario = _make_source(args.benchmark, "em", args.clock)
        if args.inject_loop:
            scenario.simulator.set_loop_injection(
                INJECTION_LOOPS[args.benchmark], injection_mix(4, 4),
                args.contamination,
            )
        captures = [
            (
                f"{args.benchmark} seed {args.seed + k}",
                scenario.capture(seed=args.seed + k),
            )
            for k in range(args.runs)
        ]
    # One connection per capture: the server scopes a connection to a
    # single monitoring session.
    for label, trace in captures:
        with EddieClient(
            args.host, args.port,
            window=args.window,
            connect_timeout=args.connect_timeout,
            io_timeout=args.io_timeout,
            reconnect=not args.no_reconnect,
        ) as cli:
            cli.open(args.model_spec, t0=trace.iq.t0)
            for report in cli.replay(
                trace, chunk_samples=args.chunk_samples
            ):
                print(
                    f"  anomaly t={report.time * 1e3:9.3f} ms "
                    f"region={report.region} streak={report.streak}"
                )
            s = cli.last_summary
            line = (
                f"{label}: chunks={s.chunks} windows={s.windows} "
                f"reports={len(s.reports)} detected={s.detected} "
                f"status={s.status}"
            )
            if cli.reconnects:
                line += f" (resumed {cli.reconnects}x mid-stream)"
            print(line)
    if args.stats:
        with EddieClient(args.host, args.port) as cli:
            stats = cli.stats()
        print(
            f"server: open={stats['sessions_open']}"
            f"/{stats['max_sessions']} "
            f"opened={stats['sessions_opened']} "
            f"shed={stats['sessions_shed']} "
            f"evicted={stats['sessions_evicted']} "
            f"chunks={stats['chunks']} reports={stats['reports']}"
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.cfg.graph import ControlFlowGraph
    from repro.cfg.loops import find_loops
    from repro.cfg.regions import build_region_machine

    program = BENCHMARKS[args.benchmark]()
    cfg = ControlFlowGraph.from_program(program)
    forest = find_loops(cfg)
    machine = build_region_machine(program, cfg, forest)

    print(f"{program.name}: {len(cfg)} basic blocks, "
          f"{program.static_size} static instructions, "
          f"{len(program.params)} input parameters")
    print(f"\nloop regions ({len(machine.loop_regions)}):")
    for name, region in machine.loop_regions.items():
        nest = forest.by_header(region.header)
        depth = max((lp.depth for lp in forest if lp.blocks <= nest.blocks),
                    default=1)
        print(f"  {name:28s} blocks={len(region.blocks)} nest-depth={depth}")
    print(f"\ninter-loop regions ({len(machine.inter_regions)}):")
    for name, inter in machine.inter_regions.items():
        print(f"  {name:44s} via {len(inter.blocks)} block(s)")
    print("\nregion state machine:")
    for region in machine.region_names():
        successors = machine.successors(region)
        if successors:
            print(f"  {region} -> {', '.join(successors)}")
    print(f"\ndefault injection target: {INJECTION_LOOPS[args.benchmark]}")
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    print("benchmarks:")
    for name in BENCHMARKS:
        print(f"  {name} (injection target: {INJECTION_LOOPS[name]})")
    print("experiments:")
    for name, module in _EXPERIMENTS.items():
        print(f"  {name:8s} -> {module}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "monitor": _cmd_monitor,
        "experiment": _cmd_experiment,
        "obs": _cmd_obs,
        "capture": _cmd_capture,
        "monitor-trace": _cmd_monitor_trace,
        "stream": _cmd_stream,
        "calibrate": _cmd_calibrate,
        "publish": _cmd_publish,
        "serve": _cmd_serve,
        "client": _cmd_client,
        "inspect": _cmd_inspect,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
