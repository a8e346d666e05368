"""High-level EDDIE facade.

Typical use::

    from repro import Eddie
    from repro.programs.mibench import bitcount
    from repro.arch.config import CoreConfig

    eddie = Eddie()
    detector = eddie.train(bitcount(), core=CoreConfig.iot_inorder(1e8),
                           runs=10, seed=0)

    # Monitor a clean run captured from the bound source:
    report = detector.monitor(seed=100)
    assert not report.metrics.detected

    # Monitor an attacked run:
    detector.source.simulator.set_loop_injection("count_bits", injected, 1.0)
    report = detector.monitor(seed=101)

``TrainedDetector.monitor`` is polymorphic: pass nothing (capture from
the bound source), a raw :class:`~repro.types.Signal`, or a captured
trace -- it always returns a :class:`MonitorReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.config import CoreConfig
from repro.arch.simulator import SimulationResult, Simulator
from repro.core.metrics import RunMetrics, evaluate_run
from repro.core.model import EddieConfig, EddieModel
from repro.core.monitor import Monitor, MonitorResult
from repro.core.training import Trainer
from repro.em.scenario import EmScenario, EmTrace
from repro.errors import ConfigurationError, MonitoringError
from repro.obs import OBS, histogram, record_count, span
from repro.programs.ir import Program
from repro.types import RegionTimeline, Signal

# Coarse decade bins: trace mean power spans orders of magnitude between
# the simulator's power traces and the receiver's IQ envelopes.
_TRACE_POWER_EDGES = tuple(float(10.0 ** e) for e in range(-12, 9, 2))

__all__ = ["Eddie", "TrainedDetector", "MonitorReport"]

TraceLike = Union[EmTrace, SimulationResult]


def _signal_of(trace: TraceLike) -> Signal:
    """The monitored signal of a trace: EM IQ or simulator power."""
    if isinstance(trace, EmTrace):
        return trace.iq
    if isinstance(trace, SimulationResult):
        return trace.power
    raise MonitoringError(f"unsupported trace type {type(trace).__name__}")


@dataclass
class MonitorReport:
    """Result of monitoring one run, with ground truth when available.

    ``trace`` is ``None`` when the run came from a raw
    :class:`~repro.types.Signal` (no ground truth to score against --
    the metrics then only describe the report stream itself).
    """

    result: MonitorResult
    metrics: RunMetrics
    trace: Optional[TraceLike] = None

    @property
    def anomalies(self) -> List[float]:
        """Times of reported anomalies."""
        return [r.time for r in self.result.reports]

    @property
    def detected(self) -> bool:
        return self.metrics.detected


class TrainedDetector:
    """A trained EDDIE model bound to the source it was trained on."""

    def __init__(
        self,
        model: EddieModel,
        source: Optional[Union[EmScenario, Simulator]] = None,
    ) -> None:
        self.model = model
        self.source = source

    # -- monitoring -------------------------------------------------------------

    def monitor(
        self,
        source: Optional[Union[Signal, TraceLike]] = None,
        *,
        seed: Optional[int] = None,
        inputs=None,
    ) -> MonitorReport:
        """Run Algorithm 1 over any monitorable source.

        Dispatches on ``source``:

        - ``None``: capture a fresh run from the bound source (injections
          configured on its simulator apply -- the one-call way to run an
          attack experiment); ``seed``/``inputs`` parameterize the run.
        - a :class:`~repro.types.Signal`: monitor raw samples with no
          ground truth (``report.trace`` is ``None`` and the metrics only
          describe the report stream).
        - an :class:`EmTrace` or :class:`SimulationResult`: monitor the
          captured signal and score against the trace's ground truth.

        Always returns a :class:`MonitorReport`.
        """
        if source is None:
            if self.source is None:
                raise MonitoringError(
                    "detector has no bound source; pass a Signal or a "
                    "captured trace to monitor()"
                )
            source = _capture(self.source, seed=seed, inputs=inputs)
        elif seed is not None or inputs is not None:
            raise MonitoringError(
                "seed/inputs only apply when capturing from the bound "
                "source (monitor() with no positional argument)"
            )
        if isinstance(source, Signal):
            result = self._score_signal(source)
            metrics = self._evaluate(result, RegionTimeline(), [], ())
            return MonitorReport(result=result, metrics=metrics, trace=None)
        if isinstance(source, (EmTrace, SimulationResult)):
            trace = source
            result = self._score_signal(_signal_of(trace))
            metrics = self._evaluate(
                result,
                trace.timeline,
                trace.injected_spans,
                getattr(trace, "fault_spans", ()),
            )
            return MonitorReport(result=result, metrics=metrics, trace=trace)
        raise MonitoringError(
            f"cannot monitor a {type(source).__name__}; expected a Signal, "
            f"an EmTrace, or a SimulationResult"
        )

    def stream(
        self,
        *,
        early_exit: bool = False,
        keep_history: bool = False,
        t0: float = 0.0,
        session_id: str = "",
    ):
        """An online :class:`~repro.stream.StreamingMonitor` for this model.

        Feed it IQ chunks as they arrive; results are bit-identical to
        ``monitor()`` over the same samples (DESIGN.md D17).
        """
        from repro.stream import StreamingMonitor

        return StreamingMonitor(
            self.model,
            early_exit=early_exit,
            keep_history=keep_history,
            t0=t0,
            session_id=session_id,
        )

    def _score_signal(self, signal: Signal) -> MonitorResult:
        if OBS.enabled:
            histogram(
                "core.detector", "trace_mean_power", _TRACE_POWER_EDGES
            ).record(float(np.mean(np.abs(signal.samples) ** 2)))
        with span("monitor.trace"):
            return Monitor(self.model).run_signal(signal)

    def _evaluate(
        self, result, timeline, injected_spans, fault_spans
    ) -> RunMetrics:
        cfg = self.model.config
        hop = self.model.hop_duration
        return evaluate_run(
            result,
            timeline,
            injected_spans,
            window_duration=cfg.window_samples / self.model.sample_rate,
            hop_duration=hop,
            report_linger=self.model.max_group_size * hop,
            fault_spans=fault_spans,
        )

    # -- model tweaking (experiment knobs) -----------------------------------------

    def with_group_size(self, group_size: int) -> "TrainedDetector":
        """A detector variant with a forced K-S group size (latency sweeps)."""
        return TrainedDetector(self.model.with_group_size(group_size), self.source)

    def with_alpha(self, alpha: float) -> "TrainedDetector":
        """A detector variant with a different K-S confidence (Figure 9)."""
        return TrainedDetector(self.model.with_alpha(alpha), self.source)

    def with_quality_gating(self, enabled: bool = True) -> "TrainedDetector":
        """A detector variant with acquisition-quality gating toggled.

        With gating on, windows whose raw samples show acquisition faults
        (clipping, overflow gaps, dead stretches, energy outliers) are
        treated as unscorable instead of anomalous, and the monitor
        resynchronizes after gaps (DESIGN.md D14).
        """
        return TrainedDetector(
            self.model.with_quality_gating(enabled), self.source
        )


def _capture(
    source: Union[EmScenario, Simulator], seed: Optional[int], inputs
) -> TraceLike:
    if isinstance(source, EmScenario):
        return source.capture(seed=seed, inputs=inputs)
    if isinstance(source, Simulator):
        return source.run(seed=seed, inputs=inputs)
    raise MonitoringError(f"unsupported source type {type(source).__name__}")


class Eddie:
    """Trainer/factory for EDDIE detectors."""

    def __init__(self, config: Optional[EddieConfig] = None) -> None:
        self.config = config or EddieConfig()

    def train(
        self,
        program: Program,
        core: Optional[CoreConfig] = None,
        runs: int = 10,
        seed: int = 0,
        source: str = "em",
        scenario: Optional[EmScenario] = None,
        build_seed: int = 0,
    ) -> TrainedDetector:
        """Train on freshly simulated, injection-free runs of ``program``.

        Args:
            program: the application to model.
            core: processor model (defaults to the paper's IoT in-order
                core for ``source='em'`` and the SESC OOO core otherwise).
            runs: number of training runs, each with freshly sampled
                inputs (the paper uses 25 for the IoT setup, 10 for
                simulation).
            seed: base RNG seed; run k uses ``seed + k``.
            source: ``'em'`` (EM IQ capture through the channel model) or
                ``'power'`` (the simulator's power signal, as in Table 2).
            scenario: a pre-built :class:`EmScenario` to train on (takes
                precedence over ``core``/``source``).
        """
        if scenario is not None:
            bound: Union[EmScenario, Simulator] = scenario
        elif source == "em":
            bound = EmScenario.build(program, core=core or CoreConfig.iot_inorder())
        elif source == "power":
            bound = Simulator(program, core or CoreConfig.sim_ooo())
        else:
            raise ConfigurationError(f"unknown source {source!r}")

        machine = (
            bound.machine if isinstance(bound, EmScenario) else bound.machine
        )
        trainer = Trainer(
            program_name=program.name,
            successors={r: machine.successors(r) for r in machine.region_names()},
            initial_regions=machine.initial_regions(),
            config=self.config,
        )
        with span("train"):
            for k in range(runs):
                trace = _capture(bound, seed=seed + k, inputs=None)
                if trace.injected_instr_count:
                    raise ConfigurationError(
                        "training source has injections configured; train on "
                        "clean runs only"
                    )
                trainer.add_run(_signal_of(trace), trace.timeline)
            model = trainer.build(seed=build_seed)
        if OBS.enabled:
            record_count("core.detector", "training_runs", runs)
            record_count("core.detector", "models_trained")
        return TrainedDetector(model, source=bound)

    def train_from_runs(
        self,
        program_name: str,
        runs: Sequence[Tuple[Signal, RegionTimeline]],
        successors: dict,
        initial_regions: Sequence[str],
        build_seed: int = 0,
    ) -> TrainedDetector:
        """Train from pre-captured (signal, timeline) pairs."""
        trainer = Trainer(
            program_name=program_name,
            successors=successors,
            initial_regions=initial_regions,
            config=self.config,
        )
        for signal, timeline in runs:
            trainer.add_run(signal, timeline)
        return TrainedDetector(trainer.build(seed=build_seed), source=None)
