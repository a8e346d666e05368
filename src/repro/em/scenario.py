"""One-call EM monitoring scenario: program -> core -> channel -> receiver.

:class:`EmScenario` is the synthetic counterpart of the paper's real-IoT
setup (Section 5.1): the program runs on the core model, its power waveform
amplitude-modulates the clock carrier, the emission crosses the near-field
channel, and the receiver captures IQ samples -- together with the
ground-truth timeline the training instrumentation would record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.arch.config import CoreConfig
from repro.arch.simulator import SimulationResult, Simulator
from repro.em.channel import ChannelModel
from repro.em.faults import FaultInjector
from repro.em.modulation import am_modulate
from repro.em.receiver import Receiver
from repro.obs import span
from repro.types import FaultSpan, RegionTimeline, Signal

__all__ = ["EmTrace", "EmScenario"]


@dataclass
class EmTrace:
    """One captured EM monitoring trace with its ground truth.

    ``fault_spans`` is the acquisition-fault ground truth emitted by the
    scenario's :class:`~repro.em.faults.FaultInjector` (empty for clean
    captures): which stretches of the IQ stream were corrupted by the
    front end rather than produced by the program.
    """

    iq: Signal
    timeline: RegionTimeline
    injected_spans: List[Tuple[float, float]]
    instr_count: int
    injected_instr_count: int
    inputs: Dict[str, float]
    fault_spans: List[FaultSpan] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.iq.duration

    def contains_injection(self, start: float, end: float) -> bool:
        """Whether [start, end) overlaps any injected span."""
        return any(s < end and start < e for s, e in self.injected_spans)

    def iter_chunks(self, chunk_samples: int):
        """Yield the captured IQ as consecutive :class:`Signal` chunks.

        The streaming-ingestion view of a capture -- what a live receiver
        delivering ``chunk_samples`` at a time would hand a
        :class:`~repro.stream.StreamingMonitor`.
        """
        return self.iq.iter_chunks(chunk_samples)


@dataclass
class EmScenario:
    """A reusable program-on-device EM capture setup.

    The underlying :class:`~repro.arch.simulator.Simulator` is exposed as
    ``.simulator`` so injections can be configured exactly as for power
    traces.
    """

    simulator: Simulator
    channel: ChannelModel = field(default_factory=ChannelModel)
    receiver: Receiver = field(default_factory=Receiver)
    mod_depth: float = 0.5
    carrier_offset_hz: float = 0.0
    faults: Optional[FaultInjector] = None

    @classmethod
    def build(
        cls,
        program,
        core: Optional[CoreConfig] = None,
        channel: Optional[ChannelModel] = None,
        receiver: Optional[Receiver] = None,
        mod_depth: float = 0.5,
        carrier_offset_hz: float = 0.0,
        faults: Optional[FaultInjector] = None,
    ) -> "EmScenario":
        """Construct a scenario from a program and a core config."""
        core = core or CoreConfig.iot_inorder()
        return cls(
            simulator=Simulator(program, core),
            channel=channel or ChannelModel(),
            receiver=receiver or Receiver(),
            mod_depth=mod_depth,
            carrier_offset_hz=carrier_offset_hz,
            faults=faults,
        )

    @property
    def machine(self):
        """The program's region-level state machine."""
        return self.simulator.machine

    def capture(
        self,
        seed: Optional[int] = None,
        inputs: Optional[Mapping[str, float]] = None,
    ) -> EmTrace:
        """Run the program once and capture its EM emanations."""
        rng = np.random.default_rng(seed)
        with span("em.capture"):
            result: SimulationResult = self.simulator.run(rng=rng, inputs=inputs)
            emission = am_modulate(
                result.power,
                mod_depth=self.mod_depth,
                carrier_offset_hz=self.carrier_offset_hz,
            )
            received = self.channel.apply(emission, rng)
            iq = self.receiver.capture(received)
            fault_spans: List[FaultSpan] = []
            if self.faults is not None:
                iq, fault_spans = self.faults.inject(iq, rng=rng)
        return EmTrace(
            iq=iq,
            timeline=result.timeline,
            injected_spans=result.injected_spans,
            instr_count=result.instr_count,
            injected_instr_count=result.injected_instr_count,
            inputs=result.inputs,
            fault_spans=fault_spans,
        )

    def capture_chunks(
        self,
        chunk_samples: int,
        seed: Optional[int] = None,
        inputs: Optional[Mapping[str, float]] = None,
    ):
        """Capture one run and yield its IQ in ``chunk_samples`` pieces.

        The source feed for streaming sessions: pass the iterator as a
        :meth:`~repro.stream.FleetScheduler.add_session` ``source`` to
        replay a device's capture chunk by chunk.
        """
        return self.capture(seed=seed, inputs=inputs).iter_chunks(chunk_samples)
