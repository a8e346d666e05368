"""EM emanation substrate: what the paper's antenna + oscilloscope measured.

The paper's physical observation (Section 2) is that processor activity
amplitude-modulates periodic signals -- above all the clock -- so a loop
with per-iteration period T puts sidebands at ``f_clock +/- 1/T`` into the
radiated spectrum (their Figure 1). Since we have no SDR hardware, this
package synthesizes the equivalent received signal:

- :mod:`repro.em.modulation` -- AM modulation of the clock carrier by the
  simulated power waveform, generated directly at complex baseband
  (DESIGN.md D2),
- :mod:`repro.em.channel` -- AWGN, narrowband interferers, and antenna
  coupling loss,
- :mod:`repro.em.harsh` -- the harsh-environment scenario matrix (strong
  interferers, co-located emitters, low-SNR distance sweeps) exercised
  by the SVD denoising front end (DESIGN.md D22),
- :mod:`repro.em.receiver` -- an SDR-like front end (gain, band-limiting,
  decimation),
- :mod:`repro.em.faults` -- acquisition fault injection (overflow gaps,
  saturation bursts, AGC gain steps, impulsive interference, dead
  channels, non-finite samples) with ground-truth fault logs,
- :mod:`repro.em.scenario` -- one-call pipeline: run a program on a core,
  emanate, propagate, receive.
"""

from repro.em.channel import ChannelModel
from repro.em.harsh import (
    CoEmitter,
    HarshChannel,
    HarshPoint,
    co_device_points,
    distance_sweep,
    harsh_matrix,
    interferer_bank,
    low_snr_sweep,
)
from repro.em.faults import (
    DeadChannelFault,
    FaultInjector,
    GainStepFault,
    ImpulseNoiseFault,
    NonFiniteFault,
    SampleDropFault,
    SaturationFault,
    standard_fault_mix,
)
from repro.em.modulation import am_modulate
from repro.em.receiver import OverflowCounter, Receiver, saturate
from repro.em.scenario import EmScenario, EmTrace

__all__ = [
    "am_modulate",
    "ChannelModel",
    "HarshChannel",
    "CoEmitter",
    "HarshPoint",
    "low_snr_sweep",
    "distance_sweep",
    "interferer_bank",
    "co_device_points",
    "harsh_matrix",
    "Receiver",
    "OverflowCounter",
    "saturate",
    "EmScenario",
    "EmTrace",
    "FaultInjector",
    "SampleDropFault",
    "SaturationFault",
    "GainStepFault",
    "ImpulseNoiseFault",
    "DeadChannelFault",
    "NonFiniteFault",
    "standard_fault_mix",
]
