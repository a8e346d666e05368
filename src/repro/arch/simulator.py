"""Whole-program execution: power trace + ground-truth region timeline.

The simulator walks a program's CFG. Blocks outside loops are rendered one
at a time; on reaching the header of a top-level loop nest, the vectorized
composition engine renders the entire nest execution. Along the way it
records the region timeline exactly as the paper's training instrumentation
does (region identifier, entry time, exit time) and the ground-truth spans
of any injected execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import CoreConfig
from repro.arch.engine import CompositionEngine, TraceBuilder
from repro.arch.power import PowerModel
from repro.cfg.dominators import compute_dominators
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.loops import LoopForest, find_loops
from repro.cfg.regions import ENTRY, EXIT, RegionMachine, build_region_machine
from repro.errors import SimulationError
from repro.obs import OBS, record_count, span
from repro.programs.ir import Branch, Halt, Instr, Jump, LoopBack, OpClass, Program
from repro.types import RegionInterval, RegionTimeline, Signal

__all__ = ["BurstSpec", "SimulationResult", "Simulator", "simulate"]

_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class BurstSpec:
    """A burst of injected execution between two loop regions.

    The burst executes ``body`` ``iterations`` times, right after the
    ``occurrence``-th dynamic exit from the loop region named
    ``after_region`` (a ``loop:<header>`` name). This models the paper's
    shellcode injection: ~476k instructions executed outside any
    application loop.
    """

    after_region: str
    body: Tuple[Instr, ...]
    iterations: int = 1
    occurrence: int = 0

    @property
    def instr_count(self) -> int:
        return len(self.body) * self.iterations


@dataclass
class SimulationResult:
    """Everything one simulated run produces.

    Attributes:
        power: the sampled power trace (one sample per
            ``core.cycles_per_sample`` cycles).
        timeline: ground-truth region intervals, in seconds.
        injected_spans: (t_start, t_end) of every stretch containing
            injected execution.
        cycles: total simulated cycles.
        instr_count: dynamic instructions executed (injected included).
        injected_instr_count: dynamic injected instructions executed.
        inputs: the resolved input parameters of this run.
    """

    power: Signal
    timeline: RegionTimeline
    injected_spans: List[Tuple[float, float]] = field(default_factory=list)
    cycles: int = 0
    instr_count: int = 0
    injected_instr_count: int = 0
    inputs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.power.duration

    def contains_injection(self, start: float, end: float) -> bool:
        """Whether [start, end) overlaps any injected span."""
        return any(s < end and start < e for s, e in self.injected_spans)


class Simulator:
    """Executes a program on a core model.

    One simulator serves one (program, core) pair; :meth:`run` may be
    called many times with different seeds/inputs. Compiled path
    schedules live in a process-wide memo (DESIGN.md D27) that every
    simulator on the same core and power parameters shares, so neither a
    second run nor a second simulator compiles them again. Injections are
    configured per-simulator with :meth:`set_loop_injection` /
    :meth:`add_burst`.
    """

    def __init__(
        self,
        program: Program,
        core: CoreConfig,
        power_model: Optional[PowerModel] = None,
    ) -> None:
        self.program = program
        self.core = core
        self.cfg = ControlFlowGraph.from_program(program)
        domtree = compute_dominators(self.cfg)
        self.forest: LoopForest = find_loops(self.cfg, domtree)
        self.machine: RegionMachine = build_region_machine(program, self.cfg, self.forest)
        self.engine = CompositionEngine(program, core, self.forest, power_model)
        self._bursts: List[BurstSpec] = []

    # -- injection configuration ---------------------------------------------

    def set_loop_injection(
        self, loop_header: str, instrs: Sequence[Instr], contamination: float = 1.0
    ) -> None:
        """Inject ``instrs`` into the body of the loop headed at ``loop_header``.

        Each iteration independently executes the injection with probability
        ``contamination`` (the paper's contamination rate, Section 5.4).
        """
        if not 0.0 <= contamination <= 1.0:
            raise SimulationError(f"contamination {contamination} outside [0, 1]")
        if not self.forest.is_header(loop_header):
            raise SimulationError(f"{loop_header!r} is not a loop header")
        self.engine.loop_injections[loop_header] = (tuple(instrs), contamination)

    def clear_injections(self) -> None:
        self.engine.loop_injections.clear()
        self._bursts.clear()

    def add_burst(self, burst: BurstSpec) -> None:
        """Schedule a burst injection after a loop region exit."""
        if burst.after_region not in self.machine.loop_regions:
            raise SimulationError(
                f"burst after_region {burst.after_region!r} is not a loop "
                f"region of {self.program.name!r}"
            )
        self._bursts.append(burst)

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        seed: Optional[int] = None,
        inputs: Optional[Mapping[str, float]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> SimulationResult:
        """Execute the program once and return its trace and ground truth."""
        with span("sim.run"):
            result = self._run(seed, inputs, rng)
        if OBS.enabled:
            record_count("arch.simulator", "runs")
            record_count("arch.simulator", "cycles", result.cycles)
            record_count("arch.simulator", "instructions", result.instr_count)
            if result.injected_instr_count:
                record_count(
                    "arch.simulator",
                    "injected_instructions",
                    result.injected_instr_count,
                )
        return result

    def _run(
        self,
        seed: Optional[int],
        inputs: Optional[Mapping[str, float]],
        rng: Optional[np.random.Generator],
    ) -> SimulationResult:
        if rng is None:
            rng = np.random.default_rng(seed)
        resolved = dict(inputs) if inputs is not None else self.program.sample_input(rng)

        builder = TraceBuilder(self.core.cycles_per_sample)
        clock = self.core.clock_hz
        timeline = RegionTimeline()
        injected_spans: List[Tuple[float, float]] = []
        instr_count = 0
        injected_instrs = 0
        loop_exit_counts: Dict[str, int] = {}

        block = self.program.entry
        last_loop_region = ENTRY
        inter_start_cycle = 0
        steps = 0
        halted = False

        while not halted:
            steps += 1
            if steps > _MAX_STEPS:
                raise SimulationError(
                    f"execution of {self.program.name!r} exceeded "
                    f"{_MAX_STEPS} control steps; runaway program?"
                )
            nest = self.forest.top_level_containing(block)
            if nest is not None and block == nest.header:
                region_name = f"loop:{nest.header}"
                # Close the preceding inter-loop region.
                enter_cycle = builder.total_cycles
                self._record_inter(
                    timeline, last_loop_region, region_name,
                    inter_start_cycle, enter_cycle, clock,
                )
                execution = self.engine.run_nest(nest, resolved, rng, builder)
                exit_cycle = builder.total_cycles
                timeline.append(
                    RegionInterval(region_name, enter_cycle / clock, exit_cycle / clock)
                )
                instr_count += execution.instr_count
                injected_instrs += execution.injected_instr_count
                if execution.injected_instr_count > 0:
                    injected_spans.append((enter_cycle / clock, exit_cycle / clock))

                # Burst injections scheduled after this region occurrence.
                occurrence = loop_exit_counts.get(region_name, 0)
                loop_exit_counts[region_name] = occurrence + 1
                for burst in self._bursts:
                    if burst.after_region == region_name and burst.occurrence == occurrence:
                        burst_start = builder.total_cycles
                        executed = self.engine.run_repeated(
                            list(burst.body), burst.iterations, rng, builder
                        )
                        instr_count += executed
                        injected_instrs += executed
                        injected_spans.append(
                            (burst_start / clock, builder.total_cycles / clock)
                        )

                inter_start_cycle = exit_cycle
                last_loop_region = region_name
                block = execution.exit_block
                continue

            # Plain block outside any loop.
            blk = self.program.block(block)
            term = blk.terminator
            if isinstance(term, Halt):
                instr_count += self.engine.run_straightline(blk.instrs, (), rng, builder)
                halted = True
            elif isinstance(term, Jump):
                instrs = list(blk.instrs) + [Instr(OpClass.BRANCH)]
                instr_count += self.engine.run_straightline(instrs, (), rng, builder)
                block = term.target
            elif isinstance(term, Branch):
                p_taken = self.program.resolve_prob(term.taken_prob, resolved)
                instrs = list(blk.instrs) + [Instr(OpClass.BRANCH)]
                instr_count += self.engine.run_straightline(
                    instrs, (p_taken,), rng, builder
                )
                block = term.taken if rng.random() < p_taken else term.not_taken
            elif isinstance(term, LoopBack):
                raise SimulationError(
                    f"block {block!r} carries a LoopBack but is outside every "
                    f"loop; malformed program"
                )
            else:
                raise SimulationError(f"unhandled terminator {term!r}")

        # Close the final inter-loop region (to EXIT).
        self._record_inter(
            timeline, last_loop_region, EXIT,
            inter_start_cycle, builder.total_cycles, clock,
        )

        power = Signal(builder.samples(), self.core.sample_rate)
        return SimulationResult(
            power=power,
            timeline=timeline,
            injected_spans=_merge_spans(injected_spans),
            cycles=builder.total_cycles,
            instr_count=instr_count,
            injected_instr_count=injected_instrs,
            inputs=resolved,
        )

    def _record_inter(
        self,
        timeline: RegionTimeline,
        src: str,
        dst: str,
        start_cycle: int,
        end_cycle: int,
        clock: float,
    ) -> None:
        if end_cycle <= start_cycle:
            return
        name = self.machine.inter_region_between(src, dst)
        if name is None:
            # The walk may traverse a src->dst pair the static machine did
            # not enumerate (it can only happen through engine exit paths);
            # label it with the canonical name so monitoring still sees a
            # consistent identifier.
            name = f"inter:{src}->{dst}"
        timeline.append(RegionInterval(name, start_cycle / clock, end_cycle / clock))


def _merge_spans(spans: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping/adjacent (start, end) spans."""
    if not spans:
        return []
    ordered = sorted(spans)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def simulate(
    program: Program,
    core: CoreConfig,
    seed: Optional[int] = None,
    inputs: Optional[Mapping[str, float]] = None,
) -> SimulationResult:
    """One-call convenience: build a Simulator and run it once."""
    return Simulator(program, core).run(seed=seed, inputs=inputs)
