"""Shared experiment machinery: scaling knobs, training, trace capture,
and group-size sweeps.

The paper's experiments run seconds of GHz execution; a laptop-scale
reproduction needs a scaling knob. :class:`Scale` bundles every such knob;
``Scale.default()`` finishes each experiment in seconds-to-minutes, and
``Scale.paper()`` records the paper-faithful values (25 IoT / 10 simulator
runs, literal clocks) for completeness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro import obs
from repro.arch.config import CoreConfig
from repro.arch.simulator import Simulator
from repro.cache import configure as configure_cache
from repro.cache import describe, digest, fingerprint, get_cache
from repro.core.detector import Eddie, TrainedDetector, TraceLike
from repro.core.metrics import RunMetrics, aggregate_metrics
from repro.core.model import EddieConfig
from repro.em.scenario import EmScenario
from repro.errors import ConfigurationError
from repro.obs import span
from repro.programs.ir import Program

__all__ = [
    "Scale",
    "build_detector",
    "capture_traces",
    "monitor_traces",
    "parallel_map",
    "resolve_jobs",
    "sweep_group_sizes",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class Scale:
    """Experiment scaling knobs.

    Attributes:
        train_runs: injection-free training runs per benchmark.
        clean_runs: monitored injection-free runs per benchmark.
        injected_runs: monitored runs per injection configuration.
        clock_hz: core clock used for the runs (see CoreConfig docs on why
            scaled clocks are legitimate).
        seed: base RNG seed; derived seeds are offsets from it.
        group_sizes: K-S group sizes swept by latency-trade-off figures.
    """

    train_runs: int = 8
    clean_runs: int = 3
    injected_runs: int = 3
    clock_hz: float = 1e8
    seed: int = 0
    group_sizes: Tuple[int, ...] = (8, 12, 16, 24, 32, 48, 64, 96)

    @classmethod
    def quick(cls) -> "Scale":
        """Smallest meaningful scale (CI smoke runs)."""
        return cls(train_runs=4, clean_runs=2, injected_runs=2,
                   group_sizes=(8, 16, 32, 64))

    @classmethod
    def default(cls) -> "Scale":
        return cls()

    @classmethod
    def paper(cls) -> "Scale":
        """The paper's own parameters (hours of compute; for reference)."""
        return cls(
            train_runs=25,
            clean_runs=25,
            injected_runs=25,
            clock_hz=1.008e9,
            group_sizes=(8, 16, 32, 64, 128, 256, 512),
        )

    def train_seed(self, offset: int = 0) -> int:
        return self.seed + offset

    def monitor_seed(self, offset: int = 0) -> int:
        return self.seed + 10_000 + offset

    def injected_seed(self, offset: int = 0) -> int:
        return self.seed + 20_000 + offset


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Worker-process count from a ``--jobs`` value.

    ``None``/``0``/``1`` mean serial; ``'auto'`` means one worker per
    CPU; any other value is taken literally (floored at 1).
    """
    if jobs in (None, 0, 1):
        return 1
    if jobs == "auto":
        return os.cpu_count() or 1
    try:
        return max(1, int(jobs))
    except (TypeError, ValueError):
        raise ConfigurationError(f"invalid jobs value {jobs!r}") from None


def _init_worker(
    cache_dir: Optional[str],
    max_bytes: Optional[int],
    obs_enabled: bool = False,
) -> None:
    """Executor initializer: workers inherit the parent's cache and
    observability setup.

    With observability on, each worker records its own spans and metrics
    (including the cache's per-process hit/miss stats) and ships them back
    with every task result (:class:`_ObsTask`); the parent folds them into
    its registry in task order, so merged totals are deterministic and
    complete -- per-process tallies alone would be silently partial.
    """
    configure_cache(cache_dir, max_bytes)
    if obs_enabled:
        # Under fork-based multiprocessing the worker inherits the parent's
        # recorded spans and counters; drop them or every export would
        # re-ship (and re-merge) state the parent already holds.
        obs.reset()
        obs.enable()


class _ObsTask:
    """Picklable task wrapper returning (result, worker observability state).

    Export resets the worker's spans and metrics after each task, so every
    payload carries exactly one task's worth of state no matter how the
    executor distributes items over workers.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[_T], _R]) -> None:
        self.fn = fn

    def __call__(self, item: _T):
        result = self.fn(item)
        return result, obs.export_state(reset_after=True)


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    jobs: Union[int, str, None] = 1,
) -> List[_R]:
    """``[fn(x) for x in items]``, optionally over a process pool.

    Results come back in input order (``executor.map`` preserves it), so
    a parallel run is output-identical to a serial one whenever ``fn``
    is deterministic in its argument -- which every experiment task is:
    all randomness flows from explicit per-task seeds derived by
    :class:`Scale`'s disjoint seed namespaces.

    With observability enabled, worker spans and metric increments are
    merged back into the parent process in task order (deterministic), so
    traces and counter totals match a serial run of the same work.
    """
    n_workers = min(resolve_jobs(jobs), len(items))
    if n_workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    cache = get_cache()
    with_obs = obs.enabled()
    initargs = (
        (str(cache.dir), cache.max_bytes, with_obs)
        if cache is not None
        else (None, None, with_obs)
    )
    task = _ObsTask(fn) if with_obs else fn
    with ProcessPoolExecutor(
        max_workers=n_workers, initializer=_init_worker, initargs=initargs
    ) as executor:
        raw = list(executor.map(task, items))
    if not with_obs:
        return raw
    results: List[_R] = []
    for result, state in raw:
        obs.merge_export(state)
        results.append(result)
    return results


def _fresh_source(
    program: Program, core: CoreConfig, source: str
) -> Union[EmScenario, Simulator]:
    if source == "em":
        return EmScenario.build(program, core=core)
    return Simulator(program, core)


def build_detector(
    program: Program,
    scale: Scale,
    source: str = "em",
    core: Optional[CoreConfig] = None,
    config: Optional[EddieConfig] = None,
) -> TrainedDetector:
    """Train a detector for one program at the given scale.

    When an artifact cache is configured (:mod:`repro.cache`), the
    trained model is memoized under a fingerprint of everything training
    depends on -- program IR, core config, pipeline config, run count,
    seed, and source kind -- and a hit skips training entirely (the
    detector is rebound to a fresh injection-free source).
    """
    if core is None:
        if source == "em":
            core = CoreConfig.iot_inorder(clock_hz=scale.clock_hz)
        else:
            core = CoreConfig.sim_ooo(clock_hz=scale.clock_hz)
    eddie = Eddie(config)
    with span("build_detector"):
        cache = get_cache()
        if cache is None:
            return eddie.train(
                program, core=core, runs=scale.train_runs,
                seed=scale.train_seed(), source=source,
            )
        key = fingerprint(
            "model", program, core, eddie.config, scale.train_runs,
            scale.train_seed(), source,
        )
        model = cache.get_model(key)
        if model is not None:
            return TrainedDetector(
                model, source=_fresh_source(program, core, source)
            )
        detector = eddie.train(
            program, core=core, runs=scale.train_runs,
            seed=scale.train_seed(), source=source,
        )
        cache.put_model(key, detector.model)
        return detector


def capture_traces(
    detector: TrainedDetector, seeds: Sequence[int]
) -> List[TraceLike]:
    """Capture one trace per seed from the detector's bound source
    (with whatever injections are currently configured).

    With an artifact cache configured, each trace is memoized under a
    fingerprint of the full source state -- program, core, configured
    injections/bursts, EM channel and receiver parameters -- plus the
    seed, so changing any of them (or clearing injections) changes the
    key. Cached traces round-trip losslessly (exact arrays), so
    downstream monitoring is bit-identical to a fresh capture.
    """
    from repro.core.detector import _capture  # shared private helper

    with span("capture_traces"):
        cache = get_cache()
        if cache is None:
            return [
                _capture(detector.source, seed=s, inputs=None) for s in seeds
            ]
        # Describing the source (program IR, core, injection state)
        # dominates the per-key cost and is identical for every seed:
        # hoist it.
        source_desc = describe(detector.source)
        traces: List[TraceLike] = []
        for s in seeds:
            key = digest(["seq", ["trace", source_desc, describe(s)]])
            trace = cache.get_trace(key)
            if trace is None:
                trace = _capture(detector.source, seed=s, inputs=None)
                cache.put_trace(key, trace)
            traces.append(trace)
        return traces


def monitor_traces(
    detector: TrainedDetector, traces: Sequence[TraceLike]
) -> RunMetrics:
    """Monitor a set of traces and aggregate their metrics."""
    with span("monitor_traces"):
        reports = [detector.monitor(trace) for trace in traces]
        return aggregate_metrics([r.metrics for r in reports])


def sweep_group_sizes(
    detector: TrainedDetector,
    traces: Sequence[TraceLike],
    group_sizes: Sequence[int],
) -> Dict[int, RunMetrics]:
    """Re-monitor the same traces at each forced K-S group size n.

    Latency-trade-off figures (3, 6, 8, 9, 10) vary detection latency by
    varying n; capturing traces once and re-running only the (cheap)
    monitoring keeps the sweep fast.
    """
    results: Dict[int, RunMetrics] = {}
    with span("sweep_group_sizes"):
        for n in group_sizes:
            variant = detector.with_group_size(n)
            results[n] = monitor_traces(variant, traces)
    return results
