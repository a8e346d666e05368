"""Instruction-class timing and functional-unit properties.

Latencies are in cycles and deliberately generic RISC values; what EDDIE
observes is *relative* per-iteration timing, so the exact numbers only shape
where loop peaks fall, not whether the method works.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.errors import ConfigurationError
from repro.programs.ir import Instr, OpClass

__all__ = ["Unit", "UNIT_OF", "base_latency"]


class Unit(enum.Enum):
    """Functional units of the modelled cores."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    FPU = "fpu"
    MEM = "mem"
    CTRL = "ctrl"

    __hash__ = object.__hash__  # as OpClass: singletons, hashed in C


UNIT_OF: Dict[OpClass, Unit] = {
    OpClass.IADD: Unit.ALU,
    OpClass.LOGIC: Unit.ALU,
    OpClass.SHIFT: Unit.ALU,
    OpClass.CMP: Unit.ALU,
    OpClass.NOP: Unit.ALU,
    OpClass.IMUL: Unit.MUL,
    OpClass.IDIV: Unit.DIV,
    OpClass.FADD: Unit.FPU,
    OpClass.FMUL: Unit.FPU,
    OpClass.FDIV: Unit.DIV,
    OpClass.LOAD: Unit.MEM,
    OpClass.STORE: Unit.MEM,
    OpClass.BRANCH: Unit.CTRL,
    OpClass.CALL: Unit.CTRL,
    OpClass.RET: Unit.CTRL,
    OpClass.SYSCALL: Unit.CTRL,
}

# Execution latency in cycles, assuming L1 hits for memory operations.
_BASE_LATENCY: Dict[OpClass, int] = {
    OpClass.IADD: 1,
    OpClass.LOGIC: 1,
    OpClass.SHIFT: 1,
    OpClass.CMP: 1,
    OpClass.NOP: 1,
    OpClass.IMUL: 3,
    OpClass.IDIV: 12,
    OpClass.FADD: 3,
    OpClass.FMUL: 4,
    OpClass.FDIV: 10,
    OpClass.LOAD: 0,  # resolved from the cache config's L1 hit latency
    OpClass.STORE: 1,  # retires into the store buffer
    OpClass.BRANCH: 1,
    OpClass.CALL: 2,
    OpClass.RET: 2,
    OpClass.SYSCALL: 40,  # trap entry/exit overhead
}


def base_latency(instr: Instr, l1_hit_latency: int) -> int:
    """Execution latency of ``instr`` in cycles, assuming cache hits."""
    if instr.op is OpClass.LOAD:
        return l1_hit_latency
    latency = _BASE_LATENCY.get(instr.op)
    if latency is None:
        raise ConfigurationError(f"no latency defined for {instr.op!r}")
    return latency
