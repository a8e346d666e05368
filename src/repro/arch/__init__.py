"""Architectural simulation substrate (the paper's SESC + WATTCH + CACTI).

The paper's second experimental setup feeds EDDIE a power signal generated
by the SESC cycle-accurate simulator with WATTCH/CACTI power models, sampled
every 20 cycles. This package reproduces that stack:

- :mod:`repro.arch.isa` -- instruction classes, latencies, functional units,
- :mod:`repro.arch.config` -- core/cache configurations (in-order and
  out-of-order presets matching the paper's two setups),
- :mod:`repro.arch.cache` -- the analytic steady-state miss-rate model
  used by the fast composition engine,
- :mod:`repro.arch.branch` -- the steady-state two-bit mispredict-rate
  model,
- :mod:`repro.arch.pipeline` -- cycle-accurate scheduling of one control
  path through in-order / out-of-order pipelines,
- :mod:`repro.arch.power` -- WATTCH-style per-unit activity energies,
- :mod:`repro.arch.engine` -- vectorized composition of loop executions
  from memoized path schedules (design decision D1 in DESIGN.md),
- :mod:`repro.arch.simulator` -- whole-program execution producing a
  sampled power :class:`~repro.types.Signal` and the ground-truth region
  timeline.
"""

from repro.arch.config import CacheConfig, CoreConfig, MemoryConfig
from repro.arch.simulator import SimulationResult, Simulator, simulate

__all__ = [
    "CacheConfig",
    "MemoryConfig",
    "CoreConfig",
    "Simulator",
    "SimulationResult",
    "simulate",
]
