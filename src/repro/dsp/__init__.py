"""Composable signal-preprocessing front end (DESIGN.md D22).

The seam between capture and STFT: a tuple of
:class:`~repro.dsp.FrontendStage` objects on
:attr:`repro.EddieConfig.frontend` is applied to every signal the
pipeline touches -- training runs, batch monitoring, streaming sessions,
the fleet kernel, and served models (the chain rides in the model's
metadata and config fingerprint, so a served model reproduces its
training front end exactly).

Stages:

- :class:`SvdDenoiser` -- windowed-Hankel spectral-subspace denoising
  for harsh RF environments (arXiv 2212.05643),
- :class:`AgcStage` -- block automatic gain control, the cheap SDR's
  AGC on the shared preprocessing chain,
- :class:`FirGateStage` -- linear-phase FIR band gate, group-delay
  compensated (the receiver's decimation FIR, usable without
  decimating).
"""

from repro.dsp.stage import (
    AgcStage,
    BlockStage,
    FirGateStage,
    FrontendChain,
    FrontendStage,
    StreamingStage,
    apply_frontend,
    register_stage,
    stage_from_dict,
    stage_to_dict,
    validate_frontend,
)
from repro.dsp.svd import SvdDenoiser

__all__ = [
    "FrontendStage",
    "StreamingStage",
    "BlockStage",
    "FrontendChain",
    "AgcStage",
    "FirGateStage",
    "SvdDenoiser",
    "apply_frontend",
    "register_stage",
    "stage_to_dict",
    "stage_from_dict",
    "validate_frontend",
]
