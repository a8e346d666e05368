"""WATTCH-style activity-based power model.

Each scheduled instruction contributes front-end energy at its fetch cycle
and execution energy spread over its latency at its functional unit; every
cycle carries static power. The absolute unit is arbitrary (EDDIE only sees
the signal's *shape*); values are relative magnitudes in the spirit of
WATTCH's per-structure activity energies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Dict, Mapping, Optional

import numpy as np

from repro.arch.config import CoreConfig
from repro.arch.pipeline import PathSchedule
from repro.programs.ir import OpClass

__all__ = ["PowerParams", "PowerModel"]


def _default_op_energy() -> Dict[OpClass, float]:
    return {
        OpClass.IADD: 0.08,
        OpClass.LOGIC: 0.07,
        OpClass.SHIFT: 0.07,
        OpClass.CMP: 0.06,
        OpClass.NOP: 0.02,
        OpClass.IMUL: 0.30,
        OpClass.IDIV: 0.90,
        OpClass.FADD: 0.20,
        OpClass.FMUL: 0.35,
        OpClass.FDIV: 0.80,
        OpClass.LOAD: 0.10,   # address generation; cache energy added separately
        OpClass.STORE: 0.10,
        OpClass.BRANCH: 0.05,
        OpClass.CALL: 0.10,
        OpClass.RET: 0.10,
        OpClass.SYSCALL: 1.50,
    }


@dataclass(frozen=True)
class PowerParams:
    """Per-event energies (arbitrary units) and per-cycle power levels.

    Immutable and hashable, so a parameter set can key the simulator's
    variant memo (DESIGN.md D27): ``op_energy`` is a read-only copy of the
    mapping it was given.
    """

    static_per_cycle: float = 0.10
    frontend_per_instr: float = 0.05
    ooo_window_per_instr: float = 0.03
    stall_extra_per_cycle: float = 0.02
    l1_access: float = 0.10
    l2_access: float = 0.45
    dram_access: float = 2.2
    # Compared but not hashed: equal parameter sets still hash equal, and
    # a hash stays a handful of float hashes.
    op_energy: Mapping[OpClass, float] = field(
        default_factory=_default_op_energy, hash=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "op_energy", MappingProxyType(dict(self.op_energy)))

    def __reduce__(self):
        # A mappingproxy does not pickle (or deep-copy); rebuild from a dict.
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["op_energy"] = dict(self.op_energy)
        return (PowerParams, tuple(values.values()))


class PowerModel:
    """Turns a :class:`PathSchedule` into a per-cycle power waveform."""

    def __init__(self, core: CoreConfig, params: Optional[PowerParams] = None) -> None:
        self.core = core
        self.params = params if params is not None else PowerParams()

    @property
    def stall_power(self) -> float:
        """Per-cycle power during a stall (miss/mispredict refill)."""
        return self.params.static_per_cycle + self.params.stall_extra_per_cycle

    @property
    def idle_power(self) -> float:
        """Per-cycle power with no instruction activity."""
        return self.params.static_per_cycle

    def miss_energy(self, to_dram: bool) -> float:
        """Energy of one cache-miss refill (L2 access, plus DRAM if needed)."""
        energy = self.params.l2_access
        if to_dram:
            energy += self.params.dram_access
        return energy

    def waveform(self, schedule: PathSchedule) -> np.ndarray:
        """Per-cycle power of one scheduled path (assuming L1 hits).

        Cache-miss and mispredict energy/stalls are added per dynamic
        iteration by the composition engine, not here.
        """
        params = self.params
        n_cycles = schedule.cycles
        power = np.full(n_cycles, params.static_per_cycle)
        if not schedule.instrs:
            return power

        per_instr_front = params.frontend_per_instr
        if self.core.is_ooo:
            per_instr_front += params.ooo_window_per_instr

        fetch = np.minimum(schedule.fetch, n_cycles - 1)
        np.add.at(power, fetch, per_instr_front)

        # Execution energy, spread evenly over [issue, complete) of each
        # instruction. ``ufunc.at`` adds in index order, so every cycle
        # receives its instructions' shares in program order -- the sums
        # equal a per-instruction slice loop bit for bit.
        op_energy = params.op_energy
        l1_access = params.l1_access
        totals = np.array([
            op_energy[instr.op] + l1_access if instr.op.is_memory
            else op_energy[instr.op]
            for instr in schedule.instrs
        ])
        start = schedule.issue
        spans = schedule.complete - start
        covered = np.repeat(start - np.cumsum(spans) + spans, spans)
        cycles = covered + np.arange(len(covered))
        np.add.at(power, cycles, np.repeat(totals / np.maximum(spans, 1), spans))
        return power
