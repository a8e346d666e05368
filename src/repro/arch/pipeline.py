"""Cycle-accurate scheduling of one control path through a core.

A *path* is a straight-line instruction sequence (one control path through a
loop body, or one basic block). :func:`schedule_path` assigns each
instruction a fetch, issue, and completion cycle under either an in-order or
an out-of-order (dataflow) discipline, respecting operand dependencies,
issue width, functional-unit structural hazards, and (for OOO) the reorder
buffer.

Out-of-order cores additionally support *schedule variants*: passing an
``rng`` perturbs issue arbitration the way dynamic events (port conflicts,
replay, partial flushes) do on real OOO hardware. The paper observes that
OOO cores "produce more variation in the dynamically constructed
instruction schedule, creating more variation among STSs" (Section 5.3);
variants are how the model reproduces that.

Cross-iteration overlap is not modelled: consecutive iterations execute
back-to-back without pipelining across the back edge. This uniformly
stretches per-iteration periods, shifting loop peaks without changing any
of the comparative results (DESIGN.md D1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import CoreConfig
from repro.arch.isa import UNIT_OF, Unit, base_latency
from repro.errors import SimulationError
from repro.programs.ir import Instr

__all__ = ["PathSchedule", "schedule_path", "unit_pipes"]

# Mean arbitration-delay events per *cycle* of a perturbed OOO schedule
# variant. Scaling with the path's cycle count (not its instruction
# count) keeps the relative timing difference between schedule variants
# independent of issue width -- the paper's ANOVA finds width has no
# significant effect on detection latency.
_OOO_JITTER_RATE = 0.025


@dataclass(frozen=True)
class PathSchedule:
    """Cycle assignment for each instruction of a path.

    Attributes:
        instrs: the scheduled instructions.
        fetch: cycle each instruction entered the front end.
        issue: cycle each instruction began executing.
        complete: first cycle at which each result is available.
        cycles: total path length in cycles.
    """

    instrs: Tuple[Instr, ...]
    fetch: np.ndarray
    issue: np.ndarray
    complete: np.ndarray
    cycles: int

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the path."""
        return len(self.instrs) / self.cycles if self.cycles else 0.0


def unit_pipes(core: CoreConfig) -> Dict[Unit, int]:
    """Number of pipes (parallel issue slots) per functional unit."""
    width = core.issue_width
    return {
        Unit.ALU: max(1, width),
        Unit.MUL: 1,
        Unit.DIV: 1,
        Unit.FPU: max(1, width // 2),
        Unit.MEM: max(1, width // 2),
        Unit.CTRL: 1,
    }


def schedule_path(
    instrs: Sequence[Instr],
    core: CoreConfig,
    rng: Optional[np.random.Generator] = None,
    expected_cycles: Optional[int] = None,
) -> PathSchedule:
    """Schedule ``instrs`` on ``core``; see module docstring.

    ``rng`` requests a perturbed OOO schedule variant; it is ignored for
    in-order cores, whose schedules are deterministic. ``expected_cycles``
    (the unperturbed schedule's length, when the caller knows it) sets the
    jitter-event budget; otherwise it is estimated from the issue width.
    """
    n = len(instrs)
    if n == 0:
        return PathSchedule((), np.array([], int), np.array([], int), np.array([], int), 0)

    l1_latency = core.mem.l1.hit_latency
    width = core.issue_width
    is_ooo = core.is_ooo
    rob_size = core.rob_size
    fetch: List[int] = []
    issue: List[int] = []
    complete: List[int] = []

    # Cycle at which each pipe of each functional unit is next free.
    # Pipelined units accept one instruction per pipe per cycle; the
    # divider is unpipelined and is busy until its operation completes.
    free: Dict[Unit, List[int]] = {
        unit: [0] * pipes for unit, pipes in unit_pipes(core).items()
    }
    issued_in_cycle: Dict[int, int] = {}
    reg_ready: Dict[str, int] = {}

    jitter = rng if (rng is not None and is_ooo) else None
    delayed: Dict[int, int] = {}
    if jitter is not None:
        estimated_cycles = expected_cycles or max(1, n // width)
        n_events = min(n, int(jitter.poisson(_OOO_JITTER_RATE * estimated_cycles)))
        max_delay = 1 + core.pipeline_depth // 10
        for index in jitter.choice(n, size=n_events, replace=False):
            delayed[int(index)] = int(jitter.integers(1, max_delay + 1))

    prev_issue = 0
    for i, instr in enumerate(instrs):
        latency = base_latency(instr, l1_latency)
        unit = UNIT_OF[instr.op]
        pipes = free[unit]

        operand_ready = 0
        for src in instr.srcs:
            ready = reg_ready.get(src, 0)
            if ready > operand_ready:
                operand_ready = ready

        if is_ooo:
            fetched = i // width
            earliest = max(fetched + 1, operand_ready)
            if i >= rob_size:
                # ROB full until the instruction rob_size back retires.
                earliest = max(earliest, complete[i - rob_size])
            if i in delayed:
                # Dynamic-arbitration delay; its magnitude grows with
                # pipeline depth (deeper front end => larger replay/flush
                # transients), which is what gives depth its weak effect
                # on OOO detection latency in the paper's Section 5.3
                # ANOVA.
                earliest += delayed[i]
        else:
            # In-order issue: cannot issue before the previous instruction.
            earliest = max(prev_issue, operand_ready)
            fetched = max(0, earliest - 1)

        soonest = min(pipes)
        t = max(earliest, soonest)
        while issued_in_cycle.get(t, 0) >= width:
            t += 1
        issued_in_cycle[t] = issued_in_cycle.get(t, 0) + 1
        # The first pipe to come free takes it (unpipelined: until done).
        pipes[pipes.index(soonest)] = t + latency if unit is Unit.DIV else t + 1

        fetch.append(fetched)
        issue.append(t)
        complete.append(t + latency)
        if instr.dst is not None:
            reg_ready[instr.dst] = t + latency
        prev_issue = t

    cycles = max(complete)
    if cycles <= 0:
        raise SimulationError("schedule produced a zero-length path")
    return PathSchedule(
        tuple(instrs),
        np.array(fetch, dtype=int),
        np.array(issue, dtype=int),
        np.array(complete, dtype=int),
        cycles,
    )
